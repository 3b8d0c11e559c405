// The cell side of the federation seam, written once for every execution mode.
//
// A CellHost owns the Deployment + FedCell pairs of the cells it hosts and runs
// every cell-side operation a Federation drives: start, driver attach/start,
// barrier stepping with mail delivery, host-probe injection, cell and proxy
// kill/revive, sensor migration, telemetry snapshots, and checkpoint save/load.
// Each op checks its arguments and returns a Status instead of aborting.
//
// The Federation reaches its hosts through CellHostHandle. In-process it holds one
// CellHost hosting every cell and calls it directly (no frame encoding); with
// cell_processes > 1 or cell_endpoints it holds one RemoteCellHost per presto_cell
// worker (src/core/cell_worker.h), which forwards each op as fed_wire frames to a
// CellWorker that runs the very same CellHost on the other side. One cell-side
// implementation is what keeps the modes bit-identical.

#ifndef SRC_CORE_CELL_HOST_H_
#define SRC_CORE_CELL_HOST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/federation.h"
#include "src/util/worker_pool.h"

namespace presto {

// What host ops generated for the orchestrator to route: trunk mail (FIFO within
// each source cell) and host-probe completions.
struct CellHostReply {
  std::vector<FedMail> mail;
  std::vector<FedCell::HostDone> host_done;
};

// The ops a Federation drives on one host. Cell arguments are global cell indices
// and must be hosted there (KillCell/ReviveCell take any cell: every hosted gateway
// updates its routing view). Mail and host-probe completions an op generates wait
// for TakeReply.
class CellHostHandle {
 public:
  virtual ~CellHostHandle() = default;

  virtual Status Start() = 0;
  // Returns the driver's slot in its origin cell.
  virtual Result<int> AttachDriver(int origin_cell, const QueryDriverParams& params) = 0;
  virtual Status StartDriver(int cell, int slot, Duration duration) = 0;
  // Delivers barrier mail (clamped to `barrier`) and runs every hosted cell to
  // `end`. A remote host may return before its cells finish: the next TakeReply
  // waits for them, so the orchestrator can step every host concurrently.
  virtual Status Step(SimTime barrier, SimTime end, std::vector<FedMail> mail) = 0;
  // Issues a host probe at `origin_cell`; its result returns as a HostDone
  // carrying `token`.
  virtual Status Inject(int origin_cell, uint64_t token,
                        const FederationQuerySpec& spec) = 0;
  virtual Status KillCell(int cell) = 0;
  virtual Status ReviveCell(int cell) = 0;
  virtual Status ProxyOp(int cell, int proxy, bool kill) = 0;
  virtual Status MigrateSensor(int cell, int global_index, int new_owner) = 0;
  // One snapshot per hosted cell, ascending cell index.
  virtual Status Snapshot(std::vector<FedCellSnapshot>* out) = 0;
  // Fills the empty `out` with every hosted cell's "cell<i>/" sections, ascending
  // cell index.
  virtual Status SaveCheckpoint(Checkpoint* out) = 0;
  // Restores every hosted cell from a full federation checkpoint; `cell_down` is
  // the orchestrator's routing view. Mail the cells had not handed over is dropped
  // (undrained mail belongs to the orchestrator's "fed" section).
  virtual Status LoadCheckpoint(const Checkpoint& ckpt,
                                const std::vector<uint8_t>& cell_down) = 0;
  // Moves the mail and host-probe completions generated since the last call into
  // `*out`, which the caller passes empty.
  virtual Status TakeReply(CellHostReply* out) = 0;
};

class CellHost : public CellHostHandle {
 public:
  // Hosts the cells c with c % num_hosts == host_index, each a Deployment + FedCell
  // pair built in ascending cell order — the sink-registration order every mode
  // shares (the checkpoint sink-id contract). Rejects with InvalidArgument every
  // config Deployment::Build or Simulator::ConfigureLanes would abort on, since a
  // presto_cell worker builds from bytes off the wire. Steps its cells on
  // min(config.cell_threads, hosted cells) host threads.
  static Result<std::unique_ptr<CellHost>> Create(const FederationConfig& config,
                                                  int host_index, int num_hosts);

  CellHost(const CellHost&) = delete;
  CellHost& operator=(const CellHost&) = delete;

  int num_cells() const { return config_.num_cells; }
  // Direct access to a hosted cell (PRESTO_CHECKed): the in-process accessors.
  Deployment& cell(int cell_index);
  FedCell& router(int cell_index);

  Status Start() override;
  Result<int> AttachDriver(int origin_cell, const QueryDriverParams& params) override;
  Status StartDriver(int cell, int slot, Duration duration) override;
  Status Step(SimTime barrier, SimTime end, std::vector<FedMail> mail) override;
  Status Inject(int origin_cell, uint64_t token,
                const FederationQuerySpec& spec) override;
  Status KillCell(int cell) override;
  Status ReviveCell(int cell) override;
  Status ProxyOp(int cell, int proxy, bool kill) override;
  Status MigrateSensor(int cell, int global_index, int new_owner) override;
  Status Snapshot(std::vector<FedCellSnapshot>* out) override;
  Status SaveCheckpoint(Checkpoint* out) override;
  Status LoadCheckpoint(const Checkpoint& ckpt,
                        const std::vector<uint8_t>& cell_down) override;
  Status TakeReply(CellHostReply* out) override;

 private:
  CellHost(const FederationConfig& config, int host_index, int num_hosts);

  // Hosted slot of a global cell index, or an error if it lives elsewhere.
  Result<int> SlotOf(int cell_index) const;
  Status CheckCell(int cell_index) const;
  // The federation-wide sensor namespace (Create ruled out int overflow).
  int TotalSensors() const {
    return config_.num_cells * config_.cell.num_proxies * config_.cell.sensors_per_proxy;
  }

  FederationConfig config_;  // outlives the FedCells, which hold a pointer
  int host_index_;
  int num_hosts_;
  std::vector<std::unique_ptr<Deployment>> cells_;  // paired with cores_
  std::vector<std::unique_ptr<FedCell>> cores_;
  std::unique_ptr<WorkerPool> pool_;  // joined before the cells it steps die
};

}  // namespace presto

#endif  // SRC_CORE_CELL_HOST_H_
