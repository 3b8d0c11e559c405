#include "src/core/cell_host.h"

#include <unistd.h>

#include <algorithm>
#include <climits>
#include <memory>
#include <string>
#include <utility>

#include "src/util/assert.h"
#include "src/util/ckpt.h"

namespace presto {
namespace {

std::string CellPrefix(int cell_index) {
  return "cell" + std::to_string(cell_index) + "/";
}

}  // namespace

Result<std::unique_ptr<CellHost>> CellHost::Create(const FederationConfig& config,
                                                   int host_index, int num_hosts) {
  const DeploymentConfig& cell = config.cell;
  if (num_hosts < 1 || host_index < 0 || host_index >= num_hosts ||
      config.num_cells < 1 || config.epoch <= 0) {
    return InvalidArgumentError("cell_host: bad host or federation parameters");
  }
  // Everything below is a PRESTO_CHECK in Deployment::Build or
  // Simulator::ConfigureLanes; a worker must refuse it, not abort on it.
  if (cell.num_proxies < 1 || cell.sensors_per_proxy < 1 ||
      cell.sensors_per_proxy >= 1000) {
    return InvalidArgumentError(
        "cell_host: cells need >= 1 proxy and 1..999 sensors per proxy");
  }
  if (cell.replication_factor < 1) {
    return InvalidArgumentError("cell_host: replication_factor must be >= 1");
  }
  if (cell.lane_engine && cell.num_proxies > 1 && cell.sim_epoch <= 0) {
    return InvalidArgumentError("cell_host: the lane engine needs sim_epoch > 0");
  }
  const int64_t per_cell = int64_t{cell.num_proxies} * cell.sensors_per_proxy;
  if (per_cell > INT_MAX || per_cell * config.num_cells > INT_MAX) {
    return InvalidArgumentError("cell_host: federation population overflows int");
  }
  const FlashParams& flash = cell.flash;
  if (flash.page_size_bytes < 1 || flash.pages_per_block < 1 || flash.num_blocks < 1 ||
      int64_t{flash.pages_per_block} * flash.num_blocks > INT_MAX) {
    return InvalidArgumentError("cell_host: flash geometry must be positive and fit int");
  }
  // What this host would allocate up front: every hosted sensor's flash image
  // (allocated eagerly) plus each hosted cell's trunk row. Doubles, so the
  // product cannot overflow; a config past physical memory is refused, not built.
  const double hosted_cells = static_cast<double>(
      (int64_t{config.num_cells} - host_index + num_hosts - 1) / num_hosts);
  const double flash_bytes = static_cast<double>(flash.page_size_bytes) *
                             flash.pages_per_block * flash.num_blocks;
  const double trunk_row_bytes =
      static_cast<double>(config.num_cells) *
      (sizeof(CellLink) + sizeof(std::unique_ptr<CellLink>));
  const double upfront =
      hosted_cells * (static_cast<double>(per_cell) * flash_bytes + trunk_row_bytes);
  const double physical = static_cast<double>(::sysconf(_SC_PHYS_PAGES)) *
                          static_cast<double>(::sysconf(_SC_PAGESIZE));
  if (upfront > physical) {
    return InvalidArgumentError("cell_host: cells exceed the host's physical memory");
  }
  return std::unique_ptr<CellHost>(new CellHost(config, host_index, num_hosts));
}

CellHost::CellHost(const FederationConfig& config, int host_index, int num_hosts)
    : config_(config), host_index_(host_index), num_hosts_(num_hosts) {
  for (int c = host_index_; c < config_.num_cells; c += num_hosts_) {
    DeploymentConfig cell_config = config_.cell;
    cell_config.seed = FederationCellSeed(config_.seed, c);
    cells_.push_back(std::make_unique<Deployment>(cell_config));
    cores_.push_back(std::make_unique<FedCell>(c, &config_, cells_.back().get()));
  }
  const int hosted = static_cast<int>(cells_.size());
  pool_ = std::make_unique<WorkerPool>(std::min(config_.cell_threads, hosted));
}

Result<int> CellHost::SlotOf(int cell_index) const {
  if (cell_index >= host_index_ && cell_index < config_.num_cells &&
      cell_index % num_hosts_ == host_index_) {
    return (cell_index - host_index_) / num_hosts_;
  }
  return InvalidArgumentError("cell_host: cell is not hosted here");
}

Status CellHost::CheckCell(int cell_index) const {
  if (cell_index < 0 || cell_index >= config_.num_cells) {
    return InvalidArgumentError("cell_host: cell index out of range");
  }
  return OkStatus();
}

Deployment& CellHost::cell(int cell_index) {
  auto slot = SlotOf(cell_index);
  PRESTO_CHECK_MSG(slot.ok(), "cell is not hosted here");
  return *cells_[static_cast<size_t>(*slot)];
}

FedCell& CellHost::router(int cell_index) {
  auto slot = SlotOf(cell_index);
  PRESTO_CHECK_MSG(slot.ok(), "cell is not hosted here");
  return *cores_[static_cast<size_t>(*slot)];
}

Status CellHost::Start() {
  for (auto& cell : cells_) {
    cell->Start();
  }
  return OkStatus();
}

Result<int> CellHost::AttachDriver(int origin_cell, const QueryDriverParams& params) {
  auto slot = SlotOf(origin_cell);
  if (!slot.ok()) {
    return slot.status();
  }
  if (params.mix.num_sensors > TotalSensors()) {
    return InvalidArgumentError("driver namespace exceeds the federation population");
  }
  return cores_[static_cast<size_t>(*slot)]->AttachDriver(params);
}

Status CellHost::StartDriver(int cell, int slot, Duration duration) {
  auto hosted = SlotOf(cell);
  if (!hosted.ok()) {
    return hosted.status();
  }
  FedCell& core = *cores_[static_cast<size_t>(*hosted)];
  if (slot < 0 || slot >= core.num_drivers()) {
    return InvalidArgumentError("cell_host: driver slot out of range");
  }
  core.StartDriver(slot, duration);
  return OkStatus();
}

Status CellHost::Step(SimTime barrier, SimTime end, std::vector<FedMail> mail) {
  for (FedMail& m : mail) {
    auto slot = SlotOf(m.target_cell);
    if (!slot.ok()) {
      return slot.status();
    }
    if (m.op != kFedOpExecute && m.op != kFedOpComplete) {
      return DataLossError("cell_host: bad mail op in step");
    }
    cores_[static_cast<size_t>(*slot)]->DeliverMail(std::move(m), barrier);
  }
  // Cells only interact through mail delivered above, so which host thread steps
  // a cell is unobservable: fingerprints and driver histograms are identical at
  // every cell_threads value.
  const int hosted = static_cast<int>(cells_.size());
  pool_->Run(hosted, [&](int i) { cells_[static_cast<size_t>(i)]->RunUntil(end); });
  return OkStatus();
}

Status CellHost::Inject(int origin_cell, uint64_t token,
                        const FederationQuerySpec& spec) {
  auto slot = SlotOf(origin_cell);
  if (!slot.ok()) {
    return slot.status();
  }
  if (spec.fed_sensor < 0 || spec.fed_sensor >= TotalSensors()) {
    return InvalidArgumentError("cell_host: inject sensor out of range");
  }
  FedCell::Pending q;
  q.origin = FedCell::Origin::kHost;
  q.host_token = token;
  // Fail-fast (dead target) and same-instant completions land in the host-done
  // list right away and ride back in this op's own reply.
  cores_[static_cast<size_t>(*slot)]->Issue(spec, std::move(q));
  return OkStatus();
}

Status CellHost::KillCell(int cell) {
  PRESTO_RETURN_IF_ERROR(CheckCell(cell));
  // Every hosted gateway marks the cell down and fails its pending queries toward
  // it (hosted-cell ascending, qid ascending within — deterministic), then the
  // cell's own proxies die if it lives here.
  for (auto& core : cores_) {
    core->SetCellDown(cell, true);
    core->FailPendingToward(cell);
  }
  auto slot = SlotOf(cell);
  if (slot.ok()) {
    Deployment& victim = *cells_[static_cast<size_t>(*slot)];
    for (int p = 0; p < victim.config().num_proxies; ++p) {
      victim.KillProxy(p);
    }
  }
  return OkStatus();
}

Status CellHost::ReviveCell(int cell) {
  PRESTO_RETURN_IF_ERROR(CheckCell(cell));
  auto slot = SlotOf(cell);
  if (slot.ok()) {
    Deployment& revived = *cells_[static_cast<size_t>(*slot)];
    for (int p = 0; p < revived.config().num_proxies; ++p) {
      revived.ReviveProxy(p);
    }
  }
  for (auto& core : cores_) {
    core->SetCellDown(cell, false);
  }
  return OkStatus();
}

Status CellHost::ProxyOp(int cell, int proxy, bool kill) {
  auto slot = SlotOf(cell);
  if (!slot.ok()) {
    return slot.status();
  }
  Deployment& target = *cells_[static_cast<size_t>(*slot)];
  if (proxy < 0 || proxy >= target.config().num_proxies) {
    return InvalidArgumentError("cell_host: proxy index out of range");
  }
  if (kill) {
    target.KillProxy(proxy);
  } else {
    target.ReviveProxy(proxy);
  }
  return OkStatus();
}

Status CellHost::MigrateSensor(int cell, int global_index, int new_owner) {
  auto slot = SlotOf(cell);
  if (!slot.ok()) {
    return slot.status();
  }
  Deployment& target = *cells_[static_cast<size_t>(*slot)];
  if (global_index < 0 || global_index >= target.total_sensors() || new_owner < 0 ||
      new_owner >= target.config().num_proxies) {
    return InvalidArgumentError("cell_host: migrate-sensor argument out of range");
  }
  target.MigrateSensor(global_index, new_owner);
  return OkStatus();
}

Status CellHost::Snapshot(std::vector<FedCellSnapshot>* out) {
  out->clear();
  for (size_t i = 0; i < cores_.size(); ++i) {
    const FedCell& core = *cores_[i];
    FedCellSnapshot snap;
    snap.sim_fingerprint = cells_[i]->sim().fingerprint();
    snap.events = cells_[i]->sim().events_executed();
    snap.counters = core.counters();
    snap.trunks = core.TrunkTotals();
    for (int d = 0; d < core.num_drivers(); ++d) {
      snap.drivers.push_back(cores_[i]->driver(d).stats());
    }
    out->push_back(std::move(snap));
  }
  return OkStatus();
}

Status CellHost::SaveCheckpoint(Checkpoint* out) {
  for (size_t i = 0; i < cores_.size(); ++i) {
    // The deployment's own sections plus the "cell<i>/fed" router section.
    const std::string prefix = CellPrefix(cores_[i]->index());
    PRESTO_RETURN_IF_ERROR(cells_[i]->SaveCheckpoint(out, prefix));
    CkptSectionsOut book(prefix);
    book("fed", [&](CkptOut& io) { io(*cores_[i]); });
    PRESTO_RETURN_IF_ERROR(book.Commit(out));
  }
  return OkStatus();
}

Status CellHost::LoadCheckpoint(const Checkpoint& ckpt,
                                const std::vector<uint8_t>& cell_down) {
  if (cell_down.size() != static_cast<size_t>(config_.num_cells)) {
    return InvalidArgumentError("cell_host: cell-down flags do not match num_cells");
  }
  for (size_t i = 0; i < cores_.size(); ++i) {
    FedCell& core = *cores_[i];
    core.RestoreCellDown(cell_down);
    std::vector<FedMail> stale;
    core.TakeOutbox(&stale);
    const std::string prefix = CellPrefix(core.index());
    // Router first: the cell's simulator (loaded last inside LoadCheckpoint)
    // re-announces restored events into fully rebuilt tables.
    CkptSectionsIn book(ckpt, prefix);
    book("fed", [&](CkptIn& io) { io(core); });
    PRESTO_RETURN_IF_ERROR(book.status());
    PRESTO_RETURN_IF_ERROR(cells_[i]->LoadCheckpoint(ckpt, prefix));
  }
  return OkStatus();
}

Status CellHost::TakeReply(CellHostReply* out) {
  for (auto& core : cores_) {
    core->TakeOutbox(&out->mail);
    core->TakeHostDone(&out->host_done);
  }
  return OkStatus();
}

}  // namespace presto
