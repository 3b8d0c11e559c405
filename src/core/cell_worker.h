// The presto_cell worker and its orchestrator-side handle: both ends of the
// fed_wire process seam around one CellHost.
//
// A Federation in process mode (FederationConfig::cell_processes > 1) forks one
// presto_cell per process slot; with cell_endpoints it connects to `presto_cell
// --listen` workers instead. Cell c lives in worker c % cell_processes. Each
// worker is a CellWorker: it decodes one frame, calls its CellHost (built by
// kBootstrap with the same seeds and sink-registration order as an in-process
// host — the cross-mode fingerprint contract), and encodes the reply. The
// orchestrator holds a RemoteCellHost per worker, the CellHostHandle that turns
// each op into one frame round trip.
//
// Error discipline mirrors fed_wire's: malformed payloads and refused arguments
// return kError frames (Status code + message), never a PRESTO_CHECK abort — the
// parent treats an aborted worker as a crashed cell, so clean errors must stay
// clean.

#ifndef SRC_CORE_CELL_WORKER_H_
#define SRC_CORE_CELL_WORKER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cell_host.h"
#include "src/core/federation.h"
#include "src/net/fed_wire.h"

namespace presto {

class CellWorker {
 public:
  // `channel` must outlive the worker (it is the process's one link to the
  // parent orchestrator).
  explicit CellWorker(FrameChannel* channel) : channel_(channel) {}

  CellWorker(const CellWorker&) = delete;
  CellWorker& operator=(const CellWorker&) = delete;

  // Serves frames until kShutdown or the parent closes the channel; either is a
  // clean exit (returns the process exit code). Every request gets exactly one
  // reply: kAck with the op's payload, or kError carrying a Status.
  int Serve();

  // Whether Serve ended because the parent sent kShutdown (vs. channel EOF).
  // The --listen accept loop re-accepts after an EOF — a reconnecting
  // orchestrator re-bootstraps the worker — but exits on a real shutdown.
  bool shutdown_requested() const { return shutdown_requested_; }

 private:
  // Routes one request; a non-OK return becomes the kError reply.
  Status Dispatch(const FedFrame& request, FedFrame* reply);
  Status Bootstrap(ByteReader& r);

  FrameChannel* channel_;
  bool shutdown_requested_ = false;
  std::unique_ptr<CellHost> host_;  // built by kBootstrap
};

// The orchestrator's handle on one presto_cell worker: every CellHostHandle op is
// one strict request/reply round trip. A transport failure, or any deviation in a
// control op's reply, reports through `on_death` — the orchestrator contains it
// as a cell failure (MarkWorkerDead), never an abort. A worker's kError reply to a
// checkpoint or attach request comes back as that Status, worker still alive.
class RemoteCellHost : public CellHostHandle {
 public:
  // `pid` > 0: a forked child this handle reaps; -1: a socket peer.
  RemoteCellHost(std::unique_ptr<FrameChannel> channel, long pid,
                 std::function<void()> on_death)
      : channel_(std::move(channel)), pid_(pid), on_death_(std::move(on_death)) {}
  ~RemoteCellHost() override { Shutdown(); }

  RemoteCellHost(const RemoteCellHost&) = delete;
  RemoteCellHost& operator=(const RemoteCellHost&) = delete;

  long pid() const { return pid_; }

  // kBootstrap: the worker builds CellHost::Create(config, host_index, num_hosts).
  Status Bootstrap(const FederationConfig& config, int host_index, int num_hosts);
  // Best-effort kShutdown, then close; a forked worker that did not ack is killed.
  // Reaps. Safe to call twice.
  void Shutdown();
  // Closes the channel and SIGKILLs + reaps a forked worker, without asking.
  void Abandon();

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
  // One round trip. Transport failures report death; a kError reply returns the
  // worker's Status; anything but kAck/kError is DataLoss.
  Status Call(FedFrameType type, std::vector<uint8_t> payload,
              std::vector<uint8_t>* reply);
  // Call for control ops: requires kAck and a well-formed control reply, which is
  // queued for TakeReply; any deviation reports death.
  Status Control(FedFrameType type, std::vector<uint8_t> payload);
  Status AbsorbControlReply(const std::vector<uint8_t>& payload);
  Status Die(Status status);

  std::unique_ptr<FrameChannel> channel_;
  long pid_;
  std::function<void()> on_death_;
  int num_cells_ = 0;  // from Bootstrap: bounds-checks reply mail
  int hosted_ = 0;     // from Bootstrap: cells per snapshot reply
  bool step_in_flight_ = false;
  CellHostReply reply_;  // control replies awaiting TakeReply
};

// Path to the presto_cell binary: $PRESTO_CELL_BIN wins, else the file next to
// this executable, else whatever PATH resolves. Shared by the fork bootstrap
// (federation.cc) and the test/bench helpers that spawn listening workers.
std::string ResolveCellWorkerBinary();

// The `presto_cell --listen <port>` accept loop: binds 0.0.0.0:<port> (0 picks
// an ephemeral port), prints `PRESTO_CELL_LISTENING <bound_port>` on stdout,
// then serves orchestrator connections one at a time. Each connection gets a
// handshake-deadlined FedHelloServer, then an undeadlined CellWorker::Serve()
// (a dead orchestrator arrives as EOF/RST, so the worker re-accepts — that is
// exactly how a resumed/migrated orchestrator re-adopts the worker). Returns
// the process exit code; exits the loop on kShutdown or, with `once`, after
// the first connection ends either way.
int RunCellWorkerListenLoop(uint16_t port, Duration handshake_deadline, bool once);

// Fork-exec helper for tests and benches: spawns `presto_cell --listen 0` and
// parses the announcement line for the kernel-chosen port.
struct SpawnedCellWorker {
  long pid = -1;
  uint16_t port = 0;
};
Result<SpawnedCellWorker> SpawnCellWorkerListening();
// SIGKILL + reap; safe to call twice (pid resets to -1).
void StopCellWorker(SpawnedCellWorker& worker);

}  // namespace presto

#endif  // SRC_CORE_CELL_WORKER_H_
