#include "src/core/federation.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cell_host.h"
#include "src/core/cell_worker.h"
#include "src/util/assert.h"
#include "src/util/hash.h"

namespace presto {
namespace {

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;

// Folded into the barrier hash (with the cell index) when a worker dies: a crash
// is part of the run's observable history, exactly like a drained barrier.
constexpr uint64_t kWorkerDeathMark = 0xdeadc377ull;

}  // namespace

FedEndpoint MakeFedEndpoint(const char* host, uint16_t port) {
  FedEndpoint out;
  PRESTO_CHECK_MSG(std::strlen(host) < sizeof(out.host),
                   "endpoint host string too long");
  std::strncpy(out.host, host, sizeof(out.host) - 1);
  out.port = port;
  return out;
}

CellDirectory::CellDirectory(int num_cells, int sensors_per_cell)
    : num_cells_(num_cells), sensors_per_cell_(sensors_per_cell) {
  PRESTO_CHECK(num_cells_ >= 1);
  PRESTO_CHECK(sensors_per_cell_ >= 1);
}

int CellDirectory::CellOf(int fed_index) const {
  PRESTO_CHECK(fed_index >= 0 && fed_index < total_sensors());
  return fed_index / sensors_per_cell_;
}

int CellDirectory::LocalOf(int fed_index) const {
  PRESTO_CHECK(fed_index >= 0 && fed_index < total_sensors());
  return fed_index % sensors_per_cell_;
}

int CellDirectory::FedIndexOf(int cell, int local) const {
  PRESTO_CHECK(cell >= 0 && cell < num_cells_);
  PRESTO_CHECK(local >= 0 && local < sensors_per_cell_);
  return cell * sensors_per_cell_ + local;
}

// ---------------------------------------------------------------------------
// Seam codecs.
// ---------------------------------------------------------------------------

std::vector<uint8_t> EncodeFedControlReply(
    const std::vector<FedMail>& mail,
    const std::vector<FedCell::HostDone>& host_done) {
  return CkptWriteAll(mail, host_done);
}

Status DecodeFedControlReply(span<const uint8_t> payload, std::vector<FedMail>* mail,
                             std::vector<FedCell::HostDone>* host_done) {
  return CkptReadAll(payload, *mail, *host_done);
}

// ---------------------------------------------------------------------------
// FedCell: the per-cell half of the router.
// ---------------------------------------------------------------------------

FedCell::FedCell(int index, const FederationConfig* config, Deployment* cell)
    : index_(index),
      config_(config),
      directory_(config->num_cells,
                 config->cell.num_proxies * config->cell.sensors_per_proxy),
      cell_(cell) {
  PRESTO_CHECK(cell_ != nullptr);
  PRESTO_CHECK(index_ >= 0 && index_ < config_->num_cells);
  by_target_.resize(static_cast<size_t>(config_->num_cells));
  cell_down_.assign(static_cast<size_t>(config_->num_cells), 0);
  links_out_.reserve(static_cast<size_t>(config_->num_cells));
  for (int d = 0; d < config_->num_cells; ++d) {
    links_out_.push_back(d == index_ ? nullptr
                                     : std::make_unique<CellLink>(config_->link));
  }
  // Tagged cross-cell queries complete through OnDeploymentQueryDone, and the
  // router is a sink on the cell simulator (mail-delivery events), so both
  // survive checkpoints. The caller constructs FedCells in cell-index order, so
  // sink ids match across modes.
  cell_->SetFederationClient(this);
  cell_->sim().RegisterSink(this);
}

void FedCell::Issue(const FederationQuerySpec& spec, Pending q) {
  // Runs on this cell's control lane (driver arrivals, mail) or host control
  // context between steps: the counter block is single-writer either way, so qid
  // allocation (qid ≡ index_ mod num_cells) needs no cross-cell coordination —
  // and is deterministic, unlike a shared counter under cell-parallel stepping.
  const int target = directory_.CellOf(spec.fed_sensor);
  const int local = directory_.LocalOf(spec.fed_sensor);
  ++counters_.queries;
  const uint64_t qid =
      ++counters_.next_qid * static_cast<uint64_t>(config_->num_cells) +
      static_cast<uint64_t>(index_);
  const int spp = config_->cell.sensors_per_proxy;
  q.spec.type = spec.type;
  q.spec.sensor_id = Deployment::SensorId(local / spp, local % spp);
  q.spec.range = spec.range;
  q.spec.tolerance = spec.tolerance;
  q.spec.latency_bound = spec.latency_bound;
  q.result.origin_cell = index_;
  q.result.target_cell = target;
  q.result.cross_cell = target != index_;
  q.result.issued_at = cell_->sim().Now();
  if (cell_down_[static_cast<size_t>(target)]) {
    // Fail fast at this gateway: zero added latency, no trunk hop, no pending
    // entry — the directory knows the cell is down, so the query never leaves.
    q.result.cell = UnifiedQueryResult{};
    q.result.cell.answer.status =
        UnavailableError("federation: target cell is down");
    Complete(std::move(q));
    return;
  }
  by_target_[static_cast<size_t>(target)].insert(qid);
  if (target == index_) {
    ++counters_.local;
    pending_.emplace(qid, std::move(q));
    ExecuteLocal(qid);  // no trunk hop: straight into the local store
    return;
  }
  ++counters_.forwarded;
  // This origin->target trunk is driven only by this cell's control lane, so its
  // serialization clock stays single-writer and monotone under parallel stepping.
  const SimTime at = links_out_[static_cast<size_t>(target)]->Deliver(
      q.result.issued_at, config_->query_bytes);
  ByteWriter body;
  CkptWrite(body, q.spec);
  pending_.emplace(qid, std::move(q));
  outbox_.push_back(
      FedMail{index_, target, at, kFedOpExecute, qid, body.TakeBuffer()});
}

void FedCell::ExecuteLocal(uint64_t qid) {
  auto it = pending_.find(qid);
  PRESTO_CHECK(it != pending_.end());
  // Copy: QueryAsyncFederated may complete synchronously and erase the entry.
  const QuerySpec spec = it->second.spec;
  cell_->QueryAsyncFederated(spec, qid);
}

void FedCell::OnSimEvent(EventKind kind, EventPayload& payload) {
  PRESTO_CHECK(kind == EventKind::kQuery);
  switch (payload.a) {
    case kFedOpExecute: {
      if (cell_down_[static_cast<size_t>(index_)]) {
        // Mail raced a kill: the origin already failed (or will fail) this query
        // in its own kill sweep. Dropping here keeps a dead cell silent.
        ++counters_.orphans;
        return;
      }
      QuerySpec spec;
      ByteReader r{span<const uint8_t>(payload.bytes)};
      const Status s = CkptRead(r, spec);
      PRESTO_CHECK_MSG(s.ok() && r.remaining() == 0,
                       "federation: bad execute mail body");
      // Tagged (not closure) form: the deployment carries the fed qid through its
      // own checkpointable pending table and calls OnDeploymentQueryDone when the
      // store answers.
      cell_->QueryAsyncFederated(spec, payload.b);
      return;
    }
    case kFedOpComplete: {
      if (pending_.find(payload.b) == pending_.end()) {
        // A response for a query this origin already failed fast at kill time.
        ++counters_.orphans;
        return;
      }
      UnifiedQueryResult result;
      ByteReader r{span<const uint8_t>(payload.bytes)};
      const Status s = CkptRead(r, result);
      PRESTO_CHECK_MSG(s.ok() && r.remaining() == 0,
                       "federation: bad complete mail body");
      FinalizeEntry(payload.b, result);
      return;
    }
    default:
      PRESTO_CHECK_MSG(false, "unknown federation op");
  }
}

void FedCell::OnDeploymentQueryDone(uint64_t qid, const UnifiedQueryResult& result) {
  // Runs on this cell's control lane (QueryAsync marshals completions there).
  const int origin = OriginOf(qid);
  if (origin == index_) {
    if (pending_.find(qid) == pending_.end()) {
      ++counters_.orphans;  // completed after a kill sweep already failed it
      return;
    }
    FinalizeEntry(qid, result);
    return;
  }
  // Cross-cell: the answer rides the target->origin trunk home as FedMail (PAST
  // answers pay for their sample payload).
  const size_t bytes = config_->response_base_bytes +
                       result.answer.samples.size() *
                           static_cast<size_t>(config_->response_sample_bytes);
  const SimTime at =
      links_out_[static_cast<size_t>(origin)]->Deliver(cell_->sim().Now(), bytes);
  ByteWriter body;
  CkptWrite(body, result);
  outbox_.push_back(
      FedMail{index_, origin, at, kFedOpComplete, qid, body.TakeBuffer()});
}

void FedCell::FinalizeEntry(uint64_t qid, const UnifiedQueryResult& result) {
  auto it = pending_.find(qid);
  PRESTO_CHECK(it != pending_.end());
  Pending q = std::move(it->second);
  by_target_[static_cast<size_t>(q.result.target_cell)].erase(qid);
  pending_.erase(it);
  q.result.cell = result;
  Complete(std::move(q));
}

void FedCell::Complete(Pending q) {
  q.result.completed_at = cell_->sim().Now();
  if (!q.result.cell.answer.status.ok()) {
    ++counters_.failed;
  }
  switch (q.origin) {
    case Origin::kDriver: {
      // The gateway's clock, not the serving cell's: federation latency spans
      // both trunk hops. source_cell is the cell whose sensors paid any energy.
      QueryOutcome outcome = OutcomeFromResult(q.result.cell);
      outcome.issued_at = q.result.issued_at;
      outcome.completed_at = q.result.completed_at;
      outcome.cross_cell = q.result.cross_cell;
      outcome.past = q.past;
      outcome.source_cell = q.result.target_cell;
      PRESTO_CHECK(q.driver_slot < drivers_.size());
      drivers_[static_cast<size_t>(q.driver_slot)]->RecordOutcome(outcome);
      return;
    }
    case Origin::kHost:
      host_done_.push_back(HostDone{q.host_token, std::move(q.result)});
      return;
  }
}

int FedCell::AttachDriver(const QueryDriverParams& params) {
  QueryDriverParams p = params;
  if (p.mix.num_sensors <= 0) {
    p.mix.num_sensors = directory_.total_sensors();
  }
  PRESTO_CHECK_MSG(p.mix.num_sensors <= directory_.total_sensors(),
                   "driver namespace exceeds the federation population");
  // Tagged (slot) issue path: the pending entry carries this driver's slot
  // instead of capturing the completion closure, so in-flight driver queries
  // survive a checkpoint. Complete records the outcome directly.
  const uint64_t slot = drivers_.size();
  auto issue = [this, slot](const QueryRequest& request,
                            QueryDriver::CompletionFn done) {
    (void)done;  // completion flows through the driver-slot tag, not the closure
    FederationQuerySpec fspec;
    fspec.fed_sensor = request.sensor;
    fspec.tolerance = request.tolerance;
    fspec.latency_bound = request.latency_bound;
    if (request.past) {
      fspec.type = QueryType::kPast;
      fspec.range = PastRangeOf(request, cell_->sim().Now());
    }
    Pending q;
    q.origin = Origin::kDriver;
    q.driver_slot = slot;
    q.past = request.past;
    Issue(fspec, std::move(q));
  };
  drivers_.push_back(
      std::make_unique<QueryDriver>(&cell_->sim(), p, std::move(issue)));
  return static_cast<int>(slot);
}

void FedCell::StartDriver(int slot, Duration duration) {
  PRESTO_CHECK(slot >= 0 && slot < num_drivers());
  drivers_[static_cast<size_t>(slot)]->Start(duration);
}

void FedCell::SetCellDown(int cell_index, bool down) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_->num_cells);
  cell_down_[static_cast<size_t>(cell_index)] = down ? 1 : 0;
}

void FedCell::FailPendingToward(int cell_index) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_->num_cells);
  std::set<uint64_t> victims;
  victims.swap(by_target_[static_cast<size_t>(cell_index)]);
  for (const uint64_t qid : victims) {  // ascending qid: deterministic order
    auto it = pending_.find(qid);
    PRESTO_CHECK(it != pending_.end());
    Pending q = std::move(it->second);
    pending_.erase(it);
    q.result.cell = UnifiedQueryResult{};
    q.result.cell.answer.status =
        UnavailableError("federation: target cell was killed");
    Complete(std::move(q));
  }
}

void FedCell::RestoreCellDown(const std::vector<uint8_t>& flags) {
  PRESTO_CHECK(flags.size() == cell_down_.size());
  cell_down_ = flags;
}

void FedCell::DeliverMail(FedMail mail, SimTime barrier) {
  PRESTO_CHECK(mail.target_cell == index_);
  EventPayload payload;
  payload.a = mail.op;
  payload.b = mail.qid;
  payload.bytes = std::move(mail.body);
  // Delivery clamps to this barrier: inter-cell granularity is the federation
  // epoch (trunk latency below it is only faithful modulo the clamp).
  cell_->sim().ScheduleEventAt(std::max(mail.time, barrier), EventKind::kQuery,
                               this, std::move(payload), Simulator::kLaneControl);
}

FederationTrunkTotals FedCell::TrunkTotals() const {
  FederationTrunkTotals total;
  for (const auto& link : links_out_) {
    if (link == nullptr) {
      continue;
    }
    total.messages += link->stats().messages;
    total.bytes += link->stats().bytes;
  }
  return total;
}

template <typename Io>
void FedCell::CkptFields(Io& io) {
  io(counters_);
  for (auto& link : links_out_) {
    if (link != nullptr) {
      io(*link);
    }
  }
  // Ascending qid: the serialized bytes must not depend on hash layout.
  std::map<uint64_t, Pending> pending;
  if constexpr (!Io::kLoading) {
    pending.insert(pending_.begin(), pending_.end());
  }
  io(pending);
  CkptExpect(io, static_cast<uint64_t>(drivers_.size()), StatusCode::kFailedPrecondition,
             "federation restore: attach the same drivers before restoring");
  for (const auto& driver : drivers_) {
    io(*driver);
  }
  if constexpr (Io::kLoading) {
    for (const auto& [qid, q] : pending) {
      CkptReject(io,
                 OriginOf(qid) != index_ || q.result.origin_cell != index_ ||
                     q.result.target_cell < 0 ||
                     q.result.target_cell >= config_->num_cells,
                 "federation restore: pending query origin or cell out of range");
      CkptReject(io, q.driver_slot >= drivers_.size(),
                 "federation restore: pending query names a missing driver");
    }
    if (!io.ok()) {
      return;
    }
    pending_.clear();
    for (auto& targets : by_target_) {
      targets.clear();
    }
    for (auto& [qid, q] : pending) {
      by_target_[static_cast<size_t>(q.result.target_cell)].insert(qid);
      pending_.emplace(qid, std::move(q));
    }
  }
}

PRESTO_CKPT_FIELDS(FedCell);

Status FedCell::SaveState(ByteWriter& w) const { return CkptSave(w, *this); }
Status FedCell::LoadState(ByteReader& r) { return CkptRead(r, *this); }

// ---------------------------------------------------------------------------
// Federation: construction and the shared barrier schedule.
// ---------------------------------------------------------------------------

Federation::Federation(const FederationConfig& config)
    : config_(config),
      directory_(config.num_cells,
                 config.cell.num_proxies * config.cell.sensors_per_proxy) {
  PRESTO_CHECK(config_.num_cells >= 1);
  PRESTO_CHECK_MSG(config_.epoch > 0, "federation epoch must be positive");
  cell_processes_ =
      std::max(1, std::min(config_.cell_processes, config_.num_cells));
  const bool cell_parallel = std::min(config_.cell_threads, config_.num_cells) > 1;
  PRESTO_CHECK_MSG(!cell_parallel || cell_processes_ == 1,
                   "cell_processes and cell_threads are mutually exclusive");
  socket_mode_ = config_.num_endpoints > 0;
  if (socket_mode_) {
    PRESTO_CHECK_MSG(config_.num_endpoints <= kMaxFedEndpoints,
                     "num_endpoints exceeds kMaxFedEndpoints");
    PRESTO_CHECK_MSG(config_.cell_threads == 1 && config_.cell_processes == 1,
                     "cell_endpoints is mutually exclusive with cell_threads / "
                     "cell_processes");
    PRESTO_CHECK_MSG(config_.frame_deadline > 0,
                     "frame_deadline must be positive in socket mode");
    // Endpoints play the worker-process role: cell c -> endpoint c % N, the
    // exact placement rule fork mode uses, so observables cannot drift.
    cell_processes_ = std::min(config_.num_endpoints, config_.num_cells);
  }
  if (config_.auto_epoch) {
    config_.epoch = DeriveEpoch();
    config_.auto_epoch = false;  // resolved: workers must not re-derive
  }
  const Duration lane_epoch = CellLaneEpoch();
  // A trunk cannot deliver finer than its endpoints step: clamping inter-cell
  // mail to federation barriers below the cells' own barrier grid would schedule
  // into epochs the cells never open.
  PRESTO_CHECK_MSG(lane_epoch == Simulator::kNoEpochGrid || config_.epoch >= lane_epoch,
                   "federation epoch must cover the cell lane epoch");
  cell_down_.assign(static_cast<size_t>(config_.num_cells), 0);
  route_.resize(static_cast<size_t>(config_.num_cells));
  snaps_.assign(static_cast<size_t>(config_.num_cells), FedCellSnapshot{});
  AssignHostCells();
  deliver_.resize(hosts_.size());
  if (!process_mode()) {
    auto host = CellHost::Create(config_, 0, 1);
    PRESTO_CHECK_MSG(host.ok(), host.status().message().c_str());
    local_ = host->get();
    hosts_[0].handle = std::move(*host);
  } else if (socket_mode_) {
    ConnectWorkers();
  } else {
    SpawnWorkers();
  }
}

// Out of line: Host holds handles only complete here.
Federation::~Federation() = default;

Duration Federation::CellLaneEpoch() const {
  // Config-only math (no instantiated simulator needed — workers aren't local):
  // lane-engine cells step on their configured sim_epoch grid; legacy
  // single-queue cells have no grid and impose no constraint.
  return config_.cell.lane_engine ? config_.cell.sim_epoch : Simulator::kNoEpochGrid;
}

Duration Federation::DeriveEpoch() const {
  // Topology-derived conservative bound: the fastest trunk is the soonest any
  // cell can affect another, so stepping no coarser than it keeps barrier
  // clamping from distorting cross-cell delivery times. All trunks share
  // config_.link, so the minimum is the configured latency.
  Duration derived = std::min(config_.epoch, config_.link.latency);
  derived = std::max(derived, CellLaneEpoch());  // kNoEpochGrid = 0: no floor
  PRESTO_CHECK_MSG(derived > 0, "derived federation epoch must be positive");
  return derived;
}

void Federation::Start() {
  BroadcastControl([](CellHostHandle& host) { return host.Start(); });
}

void Federation::RunUntil(SimTime t) {
  PRESTO_CHECK_MSG(t >= now_, "cannot run the federation backwards");
  while (now_ < t) {
    const SimTime end = std::min((now_ / config_.epoch + 1) * config_.epoch, t);
    // Mail drains only on the absolute epoch grid. A RunUntil that stopped
    // off-grid resumes with a partial iteration whose start is *not* a barrier —
    // draining there would make delivery times (and the barrier hash) depend on
    // how the host happened to slice its RunUntil calls.
    StepHosts(end, /*on_grid=*/now_ % config_.epoch == 0);
    now_ = end;
  }
}

void Federation::StepHosts(SimTime end, bool on_grid) {
  if (on_grid) {
    // The barrier drain: route_ holds per-source FIFOs, walked source-ascending,
    // so every target sees the same arrival order whichever host runs it.
    uint64_t drained = 0;
    for (auto& box : route_) {
      for (FedMail& mail : box) {
        const int h = HostOf(mail.target_cell);
        ++drained;  // delivery happened at this barrier either way
        if (cell_down_[static_cast<size_t>(mail.source_cell)] != 0) {
          // A killed cell keeps stepping, but its trunks are down: late mail from
          // it is dropped at the barrier, never delivered. This is what makes a
          // KillCell run fingerprint-identical on the survivors to a run whose
          // worker was SIGKILLed (where that mail never exists at all).
          ++orphans_;
          continue;
        }
        if (!hosts_[static_cast<size_t>(h)].alive) {
          ++orphans_;  // the dead cell drops it, counted like any orphan
          continue;
        }
        deliver_[static_cast<size_t>(h)].push_back(std::move(mail));
      }
      box.clear();
    }
    ++serial_stats_.barriers;
    if (drained > 0) {
      serial_stats_.mail_drained += drained;
      // Which barrier took delivery of how much inter-cell traffic is part of
      // the federation replay contract (mirrors the simulator's barrier hash).
      FnvMix(barrier_hash_, static_cast<uint64_t>(now_));
      FnvMix(barrier_hash_, drained);
    }
  }
  // Step every host, then collect every reply: worker processes step their cells
  // concurrently in between. A host whose step failed is dead by then.
  for (size_t h = 0; h < hosts_.size(); ++h) {
    if (!hosts_[h].alive) {
      continue;
    }
    const size_t mail = deliver_[h].size();
    if (!hosts_[h].handle->Step(now_, end, std::move(deliver_[h])).ok()) {
      PRESTO_CHECK_MSG(!hosts_[h].alive, "in-process cell step failed");
      orphans_ += mail;
    }
  }
  for (size_t h = 0; h < hosts_.size(); ++h) {
    CellHostReply reply;
    if (hosts_[h].alive && hosts_[h].handle->TakeReply(&reply).ok()) {
      Route(&reply);
    }
  }
  // Only now — with no reply outstanding — may the survivors hear about deaths.
  FlushDeadCellKills();
  snaps_fresh_ = false;
}

bool Federation::Control(int h, const HostOp& op) {
  CellHostHandle& host = *hosts_[static_cast<size_t>(h)].handle;
  snaps_fresh_ = false;
  CellHostReply reply;
  Status s = op(host);
  if (s.ok()) {
    s = host.TakeReply(&reply);
  }
  if (!s.ok()) {
    PRESTO_CHECK_MSG(!hosts_[static_cast<size_t>(h)].alive, s.message().c_str());
    return false;
  }
  Route(&reply);
  return true;
}

void Federation::Route(CellHostReply* reply) {
  for (FedMail& m : reply->mail) {
    route_[static_cast<size_t>(m.source_cell)].push_back(std::move(m));
  }
  for (FedCell::HostDone& d : reply->host_done) {
    host_results_[d.token] = std::move(d.result);
  }
}

void Federation::BroadcastControl(const HostOp& op) {
  for (size_t h = 0; h < hosts_.size(); ++h) {
    if (hosts_[h].alive) {
      Control(static_cast<int>(h), op);
    }
  }
  FlushDeadCellKills();
}

// ---------------------------------------------------------------------------
// In-process-only accessors.
// ---------------------------------------------------------------------------

Deployment& Federation::cell(int index) {
  PRESTO_CHECK_MSG(!process_mode(), "Federation::cell is in-process only");
  PRESTO_CHECK(index >= 0 && index < config_.num_cells);
  snaps_fresh_ = false;  // the caller may mutate or step the cell directly
  return local_->cell(index);
}

const CellLink& Federation::link(int src, int dst) const {
  PRESTO_CHECK_MSG(!process_mode(), "Federation::link is in-process only");
  PRESTO_CHECK(src >= 0 && src < config_.num_cells);
  PRESTO_CHECK(dst >= 0 && dst < config_.num_cells && src != dst);
  return local_->router(src).link_out(dst);
}

QueryDriver& Federation::AttachQueryDriver(int origin_cell,
                                           const QueryDriverParams& params) {
  PRESTO_CHECK_MSG(!process_mode(),
                   "Federation::AttachQueryDriver is in-process only");
  const int index = AttachDriver(origin_cell, params);
  const auto [cell_index, slot] = driver_map_[static_cast<size_t>(index)];
  return local_->router(cell_index).driver(slot);
}

// ---------------------------------------------------------------------------
// Mode-independent facade.
// ---------------------------------------------------------------------------

int Federation::AttachDriver(int origin_cell, const QueryDriverParams& params) {
  PRESTO_CHECK(origin_cell >= 0 && origin_cell < config_.num_cells);
  CellHostHandle& host = *hosts_[static_cast<size_t>(HostOf(origin_cell))].handle;
  auto slot = host.AttachDriver(origin_cell, params);
  PRESTO_CHECK_MSG(slot.ok(), "failed to attach a query driver");
  driver_map_.emplace_back(origin_cell, *slot);
  driver_params_.push_back(params);
  snaps_fresh_ = false;
  return static_cast<int>(driver_map_.size()) - 1;
}

void Federation::StartDriver(int driver_index, Duration duration) {
  PRESTO_CHECK(driver_index >= 0 && driver_index < num_drivers());
  const auto [cell_index, slot] = driver_map_[static_cast<size_t>(driver_index)];
  const int h = HostOf(cell_index);
  if (!hosts_[static_cast<size_t>(h)].alive) {
    return;  // the dead worker's cells are already down: nothing to start
  }
  Control(h, [&](CellHostHandle& host) {
    return host.StartDriver(cell_index, slot, duration);
  });
  FlushDeadCellKills();
}

QueryDriverStats Federation::DriverStats(int driver_index) const {
  PRESTO_CHECK(driver_index >= 0 && driver_index < num_drivers());
  const auto [cell_index, slot] = driver_map_[static_cast<size_t>(driver_index)];
  RefreshSnapshots();
  const FedCellSnapshot& snap = snaps_[static_cast<size_t>(cell_index)];
  if (static_cast<size_t>(slot) >= snap.drivers.size()) {
    return QueryDriverStats{};  // worker died before its first snapshot fold
  }
  return snap.drivers[static_cast<size_t>(slot)];
}

FederationQueryResult Federation::QueryAndWait(int origin_cell,
                                               const FederationQuerySpec& spec,
                                               Duration max_wait) {
  PRESTO_CHECK(origin_cell >= 0 && origin_cell < config_.num_cells);
  const SimTime deadline = now_ + max_wait;
  const int h = HostOf(origin_cell);
  auto synthesize = [&](Status status) {
    FederationQueryResult out;
    out.cell.answer.status = std::move(status);
    out.origin_cell = origin_cell;
    out.target_cell = directory_.CellOf(spec.fed_sensor);
    out.issued_at = now_;
    out.completed_at = now_;
    return out;
  };
  if (!hosts_[static_cast<size_t>(h)].alive) {
    return synthesize(UnavailableError("federation: origin cell's worker is gone"));
  }
  const uint64_t token = ++next_host_token_;
  Control(h, [&](CellHostHandle& host) { return host.Inject(origin_cell, token, spec); });
  FlushDeadCellKills();
  // Fail-fast and same-epoch completions ride back in the inject reply itself;
  // anything slower surfaces through a later step reply's host_done fold.
  auto it = host_results_.find(token);
  while (it == host_results_.end() && now_ < deadline &&
         hosts_[static_cast<size_t>(h)].alive) {
    RunUntil(std::min(now_ + config_.epoch, deadline));
    it = host_results_.find(token);  // re-find: routing may rehash the map
  }
  if (it == host_results_.end()) {
    if (!hosts_[static_cast<size_t>(h)].alive) {
      return synthesize(
          UnavailableError("federation: origin cell's worker died mid-query"));
    }
    return synthesize(
        DeadlineExceededError("federated query did not complete in max_wait"));
  }
  FederationQueryResult out = std::move(it->second);
  host_results_.erase(it);
  return out;
}

void Federation::KillCell(int cell_index) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_.num_cells);
  cell_down_[static_cast<size_t>(cell_index)] = 1;
  // Every gateway marks the cell down and fails its pending queries toward it
  // (cell-index order, ascending qid within a cell: deterministic), then the
  // cell's own proxies die.
  BroadcastControl([&](CellHostHandle& host) { return host.KillCell(cell_index); });
}

void Federation::ReviveCell(int cell_index) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_.num_cells);
  PRESTO_CHECK_MSG(hosts_[static_cast<size_t>(HostOf(cell_index))].alive,
                   "cannot revive a cell whose worker died");
  BroadcastControl([&](CellHostHandle& host) { return host.ReviveCell(cell_index); });
  cell_down_[static_cast<size_t>(cell_index)] = 0;
}

void Federation::KillProxyInCell(int cell_index, int proxy_index) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_.num_cells);
  const int h = HostOf(cell_index);
  PRESTO_CHECK_MSG(hosts_[static_cast<size_t>(h)].alive,
                   "cannot mutate a cell whose worker died");
  Control(h, [&](CellHostHandle& host) {
    return host.ProxyOp(cell_index, proxy_index, /*kill=*/true);
  });
  FlushDeadCellKills();
}

void Federation::ReviveProxyInCell(int cell_index, int proxy_index) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_.num_cells);
  const int h = HostOf(cell_index);
  PRESTO_CHECK_MSG(hosts_[static_cast<size_t>(h)].alive,
                   "cannot mutate a cell whose worker died");
  Control(h, [&](CellHostHandle& host) {
    return host.ProxyOp(cell_index, proxy_index, /*kill=*/false);
  });
  FlushDeadCellKills();
}

void Federation::MigrateSensorInCell(int cell_index, int global_index,
                                     int new_owner) {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_.num_cells);
  const int h = HostOf(cell_index);
  PRESTO_CHECK_MSG(hosts_[static_cast<size_t>(h)].alive,
                   "cannot mutate a cell whose worker died");
  Control(h, [&](CellHostHandle& host) {
    return host.MigrateSensor(cell_index, global_index, new_owner);
  });
  FlushDeadCellKills();
}

uint64_t Federation::EventsExecuted() const {
  RefreshSnapshots();
  uint64_t total = 0;
  for (const FedCellSnapshot& snap : snaps_) {
    total += snap.events;
  }
  return total;
}

FederationTrunkTotals Federation::TrunkTotals() const {
  RefreshSnapshots();
  FederationTrunkTotals total;
  for (const FedCellSnapshot& snap : snaps_) {
    total.messages += snap.trunks.messages;
    total.bytes += snap.trunks.bytes;
  }
  return total;
}

FederationStats Federation::stats() const {
  RefreshSnapshots();
  FederationStats total = serial_stats_;
  for (const FedCellSnapshot& snap : snaps_) {
    total.queries += snap.counters.queries;
    total.local += snap.counters.local;
    total.forwarded += snap.counters.forwarded;
    total.failed += snap.counters.failed;
    total.orphans += snap.counters.orphans;
  }
  total.orphans += orphans_;
  return total;
}

uint64_t Federation::fingerprint() const {
  RefreshSnapshots();
  uint64_t total = barrier_hash_;
  uint64_t index = 0;
  for (const FedCellSnapshot& snap : snaps_) {
    // Bind each stream to its cell identity before the commutative sum, so
    // swapping two cells' entire histories (a directory misrouting bug) still
    // changes the fold — the same shape as the simulator's per-lane fingerprint.
    uint64_t term = snap.sim_fingerprint;
    FnvMix(term, index++);
    total += term * kGolden;
  }
  return total;
}

uint64_t Federation::CellFingerprint(int cell_index) const {
  PRESTO_CHECK(cell_index >= 0 && cell_index < config_.num_cells);
  RefreshSnapshots();
  return snaps_[static_cast<size_t>(cell_index)].sim_fingerprint;
}

int Federation::worker_pid(int w) const {
  const Host& host = hosts_[static_cast<size_t>(w)];
  if (host.handle == nullptr) {
    return -1;
  }
  return static_cast<int>(static_cast<const RemoteCellHost&>(*host.handle).pid());
}

// ---------------------------------------------------------------------------
// Process mode: worker lifecycle.
// ---------------------------------------------------------------------------

RemoteCellHost& Federation::Remote(int w) {
  PRESTO_CHECK(local_ == nullptr);
  return static_cast<RemoteCellHost&>(*hosts_[static_cast<size_t>(w)].handle);
}

void Federation::AssignHostCells() {
  hosts_.resize(static_cast<size_t>(cell_processes_));
  for (int c = 0; c < config_.num_cells; ++c) {
    hosts_[static_cast<size_t>(HostOf(c))].cells.push_back(c);
  }
}

void Federation::SpawnWorkers() {
  const std::string bin = ResolveCellWorkerBinary();
  for (int w = 0; w < cell_processes_; ++w) {
    int fds[2];
    PRESTO_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    // The parent-side fd must not leak into *any* worker (each fork inherits
    // every fd open at that moment): close-on-exec before the first fork.
    PRESTO_CHECK(::fcntl(fds[0], F_SETFD, FD_CLOEXEC) == 0);
    const pid_t pid = ::fork();
    PRESTO_CHECK(pid >= 0);
    if (pid == 0) {
      char fd_arg[16];
      std::snprintf(fd_arg, sizeof(fd_arg), "%d", fds[1]);
      ::execl(bin.c_str(), "presto_cell", fd_arg, static_cast<char*>(nullptr));
      _exit(127);  // exec failed; bootstrap below reports the actionable error
    }
    ::close(fds[1]);
    hosts_[static_cast<size_t>(w)].handle = std::make_unique<RemoteCellHost>(
        std::make_unique<FrameChannel>(fds[0]), pid, [this, w] { MarkWorkerDead(w); });
  }
  for (int w = 0; w < cell_processes_; ++w) {
    const Status s = BootstrapWorker(w);
    PRESTO_CHECK_MSG(
        s.ok(),
        "failed to bootstrap a presto_cell worker (is the presto_cell binary "
        "next to this executable? set PRESTO_CELL_BIN otherwise)");
  }
}

void Federation::ConnectWorkers() {
  for (int w = 0; w < cell_processes_; ++w) {
    const Status s = ConnectWorkerChannel(w, config_.cell_endpoints[w]);
    PRESTO_CHECK_MSG(s.ok(),
                     "failed to connect a presto_cell --listen worker (is it "
                     "running at cell_endpoints[w]?)");
  }
  for (int w = 0; w < cell_processes_; ++w) {
    const Status s = BootstrapWorker(w);
    PRESTO_CHECK_MSG(s.ok(),
                     "failed to bootstrap a presto_cell worker over its socket");
  }
}

Status Federation::ConnectWorkerChannel(int w, const FedEndpoint& endpoint) {
  if (endpoint.host[0] == '\0' || endpoint.port == 0) {
    return InvalidArgumentError("federation: empty cell endpoint");
  }
  auto fd = TcpConnect(endpoint.host, endpoint.port, config_.frame_deadline);
  if (!fd.ok()) {
    return fd.status();
  }
  auto channel = std::make_unique<FrameChannel>(*fd);
  channel->SetDeadline(config_.frame_deadline);
  PRESTO_RETURN_IF_ERROR(FedHelloClient(*channel, w, cell_processes_));
  // Not our child (pid -1): death surfaces as a channel failure.
  hosts_[static_cast<size_t>(w)].handle = std::make_unique<RemoteCellHost>(
      std::move(channel), -1, [this, w] { MarkWorkerDead(w); });
  return OkStatus();
}

Status Federation::BootstrapWorker(int w) {
  // The worker constructs its hosted cells from the *resolved* config: epoch
  // already derived, parallelism fields neutralized (the worker is the
  // parallelism), num_cells kept — every worker owns a full routing view. The
  // endpoint map is neutralized too: the transport that delivered this config
  // is not part of the simulated world, so socket- and fork-mode workers build
  // from identical bytes.
  FederationConfig wire = config_;
  wire.auto_epoch = false;
  wire.cell_threads = 1;
  wire.cell_processes = 1;
  wire.num_endpoints = 0;
  // memset (not per-element assignment) so padding bytes zero too: the struct
  // ships as raw bytes and every worker must receive identical payloads.
  std::memset(static_cast<void*>(wire.cell_endpoints), 0,
              sizeof(wire.cell_endpoints));
  return Remote(w).Bootstrap(wire, w, cell_processes_);
}

void Federation::MarkWorkerDead(int w) {
  Host& host = hosts_[static_cast<size_t>(w)];
  if (!host.alive) {
    return;
  }
  // Local bookkeeping only — never sends frames (a sibling step reply may still
  // be outstanding; see the header). Survivors learn via FlushDeadCellKills.
  host.alive = false;
  if (host.handle != nullptr) {
    Remote(w).Abandon();
  }
  for (const int c : host.cells) {
    // A crash is observable history: fold a death marker per cell into the
    // barrier hash (always — even if the cell was already marked down).
    FnvMix(barrier_hash_, kWorkerDeathMark);
    FnvMix(barrier_hash_, static_cast<uint64_t>(c));
    if (!cell_down_[static_cast<size_t>(c)]) {
      cell_down_[static_cast<size_t>(c)] = 1;
      dead_cells_pending_kill_.push_back(c);
    }
  }
  // Undelivered mail toward the dead cells can never land: drop and count.
  for (auto& box : route_) {
    size_t kept = 0;
    for (FedMail& mail : box) {
      if (!hosts_[static_cast<size_t>(HostOf(mail.target_cell))].alive) {
        ++orphans_;
        continue;
      }
      // Guard the no-drops-yet case: a vector self-move empties the mail body.
      if (&box[kept] != &mail) {
        box[kept] = std::move(mail);
      }
      ++kept;
    }
    box.resize(kept);
  }
  snaps_fresh_ = false;
}

void Federation::FlushDeadCellKills() {
  // Loop: broadcasting a kill can itself discover another dead worker, which
  // queues more kills.
  while (!dead_cells_pending_kill_.empty()) {
    std::vector<int> batch = std::exchange(dead_cells_pending_kill_, {});
    for (const int c : batch) {
      const HostOp kill = [c](CellHostHandle& host) { return host.KillCell(c); };
      for (size_t h = 0; h < hosts_.size(); ++h) {
        if (hosts_[h].alive) {
          Control(static_cast<int>(h), kill);
        }
      }
    }
  }
}

void Federation::RefreshSnapshots() const {
  if (snaps_fresh_) {
    return;
  }
  // Logically const: folds host telemetry into the mutable snapshot cache. A
  // failing worker marks itself dead, which is exactly the "crashed worker
  // freezes at its last fold" contract.
  auto* self = const_cast<Federation*>(this);
  for (const Host& host : hosts_) {
    std::vector<FedCellSnapshot> snaps;
    if (!host.alive || !host.handle->Snapshot(&snaps).ok()) {
      continue;  // its cells freeze at their last folded snapshot
    }
    for (size_t i = 0; i < snaps.size(); ++i) {
      snaps_[static_cast<size_t>(host.cells[i])] = std::move(snaps[i]);
    }
  }
  self->FlushDeadCellKills();
  snaps_fresh_ = true;
}

// ---------------------------------------------------------------------------
// Checkpoints: per-cell sections + one orchestrator "fed" section, byte-
// identical whichever mode produced them (the live-migration contract).
// ---------------------------------------------------------------------------

template <typename Io>
void Federation::CkptFields(Io& io, std::vector<FedMail>& mail) {
  // Orchestrator-only state: the federation clock, barrier-sequence hash,
  // barrier counters, orphan count, cell-down flags, and the undrained FedMail
  // (per-source FIFO, flattened source-ascending).
  io(now_, barrier_hash_, serial_stats_.barriers, serial_stats_.mail_drained, orphans_);
  CkptCellBitmap(io, cell_down_, static_cast<size_t>(config_.num_cells));
  io(mail);
  for (const FedMail& m : mail) {
    CkptReject(io,
               m.source_cell < 0 || m.source_cell >= config_.num_cells ||
                   m.target_cell < 0 || m.target_cell >= config_.num_cells ||
                   (m.op != kFedOpExecute && m.op != kFedOpComplete),
               "federation restore: bad mail entry");
  }
}

Status Federation::SaveCheckpoint(Checkpoint* out) const {
  PRESTO_CHECK(out != nullptr);
  std::vector<Checkpoint> subs(hosts_.size());
  for (size_t h = 0; h < hosts_.size(); ++h) {
    if (!hosts_[h].alive) {
      return FailedPreconditionError("federation checkpoint: a cell worker died");
    }
    // e.g. a probe query in flight on the host
    PRESTO_RETURN_IF_ERROR(hosts_[h].handle->SaveCheckpoint(&subs[h]));
  }
  // Deterministic cell-index section order regardless of host layout: walk cells
  // 0..N-1 and copy each cell's sections from its host's checkpoint. The
  // trailing '/' in the prefix keeps "cell1/" from matching "cell10/...".
  Checkpoint staged;
  for (int c = 0; c < config_.num_cells; ++c) {
    const std::string prefix = "cell" + std::to_string(c) + "/";
    for (const Checkpoint::Section& section :
         subs[static_cast<size_t>(HostOf(c))].sections()) {
      if (section.name.compare(0, prefix.size(), prefix) == 0) {
        staged.Add(section.name, section.payload);
      }
    }
  }
  std::vector<FedMail> mail;
  for (const auto& box : route_) {
    mail.insert(mail.end(), box.begin(), box.end());
  }
  CkptSectionsOut book("");
  book("fed", [&](CkptOut& io) { const_cast<Federation*>(this)->CkptFields(io, mail); });
  PRESTO_RETURN_IF_ERROR(book.Commit(&staged));
  // Nothing partial on failure: sections land in the output only once every
  // cell and the federation itself serialized cleanly.
  for (const Checkpoint::Section& section : staged.sections()) {
    out->Add(section.name, section.payload);
  }
  return OkStatus();
}

Status Federation::LoadCheckpoint(const Checkpoint& ckpt) {
  std::vector<FedMail> mail;
  CkptSectionsIn book(ckpt, "");
  book("fed", [&](CkptIn& io) { CkptFields(io, mail); });
  PRESTO_RETURN_IF_ERROR(book.status());
  // Every host restores its cells from the same container — live migration is
  // just "bootstrap, then load". Router state restores before each cell's
  // simulator, so restored events re-announce into fully rebuilt tables.
  for (Host& host : hosts_) {
    if (!host.alive) {
      return FailedPreconditionError("federation restore: a cell worker died");
    }
    PRESTO_RETURN_IF_ERROR(host.handle->LoadCheckpoint(ckpt, cell_down_));
  }
  for (auto& box : route_) {
    box.clear();
  }
  for (FedMail& m : mail) {
    route_[static_cast<size_t>(m.source_cell)].push_back(std::move(m));
  }
  host_results_.clear();
  snaps_fresh_ = false;
  return OkStatus();
}

Status Federation::ReplayDriverAttachments(int w) {
  for (size_t i = 0; i < driver_map_.size(); ++i) {
    const auto [cell_index, slot] = driver_map_[i];
    if (HostOf(cell_index) != w) {
      continue;
    }
    auto replayed = Remote(w).AttachDriver(cell_index, driver_params_[i]);
    if (!replayed.ok()) {
      return replayed.status();
    }
    if (*replayed != slot) {
      return DataLossError("federation migrate: driver slot mismatch on re-attach");
    }
  }
  return OkStatus();
}

Status Federation::MigrateWorkerEndpoint(int w, const FedEndpoint& endpoint) {
  PRESTO_CHECK_MSG(socket_mode_, "MigrateWorkerEndpoint requires socket transport");
  PRESTO_CHECK(w >= 0 && w < cell_processes_);
  if (!hosts_[static_cast<size_t>(w)].alive) {
    return FailedPreconditionError("federation migrate: worker is already dead");
  }
  // The migration payload is the full federation checkpoint — the same bytes a
  // fork-mode restore reads. SaveCheckpoint enforces its own preconditions
  // (every worker alive, no host probe in flight).
  Checkpoint ckpt;
  PRESTO_RETURN_IF_ERROR(SaveCheckpoint(&ckpt));
  // Decommission the old endpoint (best effort: the peer may already be gone),
  // then stand the worker up again over the new fd. Any failure from here on
  // takes the usual containment path: mark its cells down, tell survivors.
  Remote(w).Shutdown();
  Status s = ConnectWorkerChannel(w, endpoint);
  if (s.ok()) {
    s = BootstrapWorker(w);
  }
  if (s.ok()) {
    s = ReplayDriverAttachments(w);
  }
  if (s.ok() && !Control(w, [](CellHostHandle& host) { return host.Start(); })) {
    s = UnavailableError("federation migrate: start failed on the new worker");
  }
  if (s.ok()) {
    s = Remote(w).LoadCheckpoint(ckpt, cell_down_);
  }
  if (!s.ok()) {
    MarkWorkerDead(w);
    FlushDeadCellKills();
    return s;
  }
  snaps_fresh_ = false;
  return OkStatus();
}

}  // namespace presto
