#include "src/core/cell_worker.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "src/util/ckpt.h"

namespace presto {
namespace {

// Trivially copyable structs (configs, driver params) ride the wire as one
// length-prefixed raw byte blob.
template <typename T>
void WriteRaw(ByteWriter& w, const T& v) {
  static_assert(std::is_trivially_copyable<T>::value, "raw wire structs only");
  w.WriteBytes(span<const uint8_t>(reinterpret_cast<const uint8_t*>(&v), sizeof(T)));
}

template <typename T>
Status ReadRaw(ByteReader& r, T* out) {
  static_assert(std::is_trivially_copyable<T>::value, "raw wire structs only");
  auto raw = r.ReadBytes();
  if (!raw.ok()) {
    return raw.status();
  }
  if (raw->size() != sizeof(T)) {
    return DataLossError("fed seam: raw struct size mismatch");
  }
  std::memcpy(static_cast<void*>(out), raw->data(), sizeof(T));
  return OkStatus();
}

// Every request payload has an exact layout: leftover bytes are corruption.
Status AtEnd(const ByteReader& r, const char* what) {
  if (r.remaining() != 0) {
    return DataLossError(std::string("cell_worker: ") + what + " trailing bytes");
  }
  return OkStatus();
}

}  // namespace

// ---------------------------------------------------------------------------
// CellWorker: decode one frame, call the CellHost, encode the reply.
// ---------------------------------------------------------------------------

int CellWorker::Serve() {
  while (true) {
    auto request = channel_->Recv();
    if (!request.ok()) {
      // The parent exited or closed the channel: a clean worker exit, so a
      // normal shutdown never trips process-death detection (or LeakSanitizer).
      return 0;
    }
    FedFrame reply;
    reply.type = FedFrameType::kAck;
    const Status s = Dispatch(*request, &reply);
    if (!s.ok()) {
      ByteWriter w;
      CkptWrite(w, s);
      reply.type = FedFrameType::kError;
      reply.payload = w.TakeBuffer();
    }
    if (request->type == FedFrameType::kShutdown) {
      // Requested even if the kAck below fails to send — the parent is leaving
      // either way, and the --listen loop must not re-accept after a shutdown.
      shutdown_requested_ = true;
    }
    if (!channel_->Send(reply).ok()) {
      return 0;
    }
    if (request->type == FedFrameType::kShutdown) {
      return 0;
    }
  }
}

Status CellWorker::Dispatch(const FedFrame& request, FedFrame* reply) {
  const span<const uint8_t> payload(request.payload);
  ByteReader r{payload};
  if (request.type == FedFrameType::kBootstrap) {
    return Bootstrap(r);
  }
  if (request.type == FedFrameType::kShutdown) {
    return OkStatus();  // reply kAck, then Serve leaves its loop
  }
  if (host_ == nullptr) {
    return FailedPreconditionError("cell_worker: not bootstrapped");
  }
  CellHost& host = *host_;
  int cell = 0;
  switch (request.type) {
    case FedFrameType::kStart:
      PRESTO_RETURN_IF_ERROR(host.Start());
      break;
    case FedFrameType::kAttachDriver: {
      QueryDriverParams params{};
      PRESTO_RETURN_IF_ERROR(CkptRead(r, cell));
      PRESTO_RETURN_IF_ERROR(ReadRaw(r, &params));
      PRESTO_RETURN_IF_ERROR(AtEnd(r, "attach-driver"));
      auto slot = host.AttachDriver(cell, params);
      if (!slot.ok()) {
        return slot.status();
      }
      ByteWriter w;
      w.WriteVarU64(static_cast<uint64_t>(*slot));
      reply->payload = w.TakeBuffer();
      return OkStatus();
    }
    case FedFrameType::kStartDriver: {
      int slot = 0;
      Duration duration = 0;
      PRESTO_RETURN_IF_ERROR(CkptReadAll(payload, cell, slot, duration));
      PRESTO_RETURN_IF_ERROR(host.StartDriver(cell, slot, duration));
      break;
    }
    case FedFrameType::kStep: {
      SimTime barrier = 0, end = 0;
      std::vector<FedMail> mail;
      PRESTO_RETURN_IF_ERROR(CkptReadAll(payload, barrier, end, mail));
      PRESTO_RETURN_IF_ERROR(host.Step(barrier, end, std::move(mail)));
      break;
    }
    case FedFrameType::kInject: {
      uint64_t token = 0;
      FederationQuerySpec spec;
      PRESTO_RETURN_IF_ERROR(CkptReadAll(payload, cell, token, spec));
      PRESTO_RETURN_IF_ERROR(host.Inject(cell, token, spec));
      break;
    }
    case FedFrameType::kKillCell:
    case FedFrameType::kReviveCell:
      PRESTO_RETURN_IF_ERROR(CkptReadAll(payload, cell));
      if (request.type == FedFrameType::kKillCell) {
        PRESTO_RETURN_IF_ERROR(host.KillCell(cell));
      } else {
        PRESTO_RETURN_IF_ERROR(host.ReviveCell(cell));
      }
      break;
    case FedFrameType::kKillProxy:
    case FedFrameType::kReviveProxy: {
      int proxy = 0;
      PRESTO_RETURN_IF_ERROR(CkptReadAll(payload, cell, proxy));
      const bool kill = request.type == FedFrameType::kKillProxy;
      PRESTO_RETURN_IF_ERROR(host.ProxyOp(cell, proxy, kill));
      break;
    }
    case FedFrameType::kMigrateSensor: {
      int global_index = 0, new_owner = 0;
      PRESTO_RETURN_IF_ERROR(CkptReadAll(payload, cell, global_index, new_owner));
      PRESTO_RETURN_IF_ERROR(host.MigrateSensor(cell, global_index, new_owner));
      break;
    }
    case FedFrameType::kSnapshot: {
      std::vector<FedCellSnapshot> snaps;
      PRESTO_RETURN_IF_ERROR(host.Snapshot(&snaps));
      reply->payload = CkptWriteAll(snaps);
      return OkStatus();
    }
    case FedFrameType::kCkptSave: {
      Checkpoint sub;
      PRESTO_RETURN_IF_ERROR(host.SaveCheckpoint(&sub));
      reply->payload = sub.Encode();
      return OkStatus();
    }
    case FedFrameType::kCkptLoad: {
      std::vector<uint8_t> blob;
      std::vector<uint8_t> down;
      CkptIn io(r);
      io(blob);
      CkptCellBitmap(io, down, static_cast<size_t>(host.num_cells()));
      PRESTO_RETURN_IF_ERROR(io.status());
      PRESTO_RETURN_IF_ERROR(AtEnd(r, "ckpt-load"));
      auto ckpt = Checkpoint::Decode(span<const uint8_t>(blob));
      if (!ckpt.ok()) {
        return ckpt.status();
      }
      return host.LoadCheckpoint(*ckpt, down);
    }
    default:
      return InvalidArgumentError("cell_worker: unexpected frame type");
  }
  // Every control op replies with the mail (and host-probe completions) it
  // generated, so the parent's routing never waits an extra barrier.
  CellHostReply out;
  PRESTO_RETURN_IF_ERROR(host.TakeReply(&out));
  reply->payload = EncodeFedControlReply(out.mail, out.host_done);
  return OkStatus();
}

Status CellWorker::Bootstrap(ByteReader& r) {
  if (host_ != nullptr) {
    return FailedPreconditionError("cell_worker: already bootstrapped");
  }
  FederationConfig config{};
  int host_index = 0, num_hosts = 0;
  PRESTO_RETURN_IF_ERROR(ReadRaw(r, &config));
  CkptIn io(r);
  io(host_index, num_hosts);
  PRESTO_RETURN_IF_ERROR(io.status());
  PRESTO_RETURN_IF_ERROR(AtEnd(r, "bootstrap"));
  auto host = CellHost::Create(config, host_index, num_hosts);
  if (!host.ok()) {
    return host.status();
  }
  host_ = std::move(*host);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// RemoteCellHost: the orchestrator side of the same seam.
// ---------------------------------------------------------------------------

Status RemoteCellHost::Die(Status status) {
  on_death_();  // idempotent on the orchestrator side
  return status;
}

Status RemoteCellHost::Call(FedFrameType type, std::vector<uint8_t> payload,
                            std::vector<uint8_t>* reply) {
  FedFrame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  const Status sent = channel_->Send(frame);
  if (!sent.ok()) {
    return Die(sent);
  }
  auto received = channel_->Recv();
  if (!received.ok()) {
    return Die(received.status());
  }
  if (received->type == FedFrameType::kError) {
    ByteReader r{span<const uint8_t>(received->payload)};
    Status failure = OkStatus();
    PRESTO_RETURN_IF_ERROR(CkptRead(r, failure));
    if (failure.ok()) {
      return DataLossError("federation: kError reply without an error");
    }
    return failure;
  }
  if (received->type != FedFrameType::kAck) {
    return DataLossError("federation: unexpected worker reply");
  }
  *reply = std::move(received->payload);
  return OkStatus();
}

Status RemoteCellHost::Control(FedFrameType type, std::vector<uint8_t> payload) {
  std::vector<uint8_t> reply;
  Status s = Call(type, std::move(payload), &reply);
  if (s.ok()) {
    s = AbsorbControlReply(reply);
  }
  return s.ok() ? s : Die(std::move(s));
}

Status RemoteCellHost::AbsorbControlReply(const std::vector<uint8_t>& payload) {
  std::vector<FedMail> mail;
  std::vector<FedCell::HostDone> host_done;
  PRESTO_RETURN_IF_ERROR(
      DecodeFedControlReply(span<const uint8_t>(payload), &mail, &host_done));
  for (FedMail& m : mail) {
    if (m.source_cell < 0 || m.source_cell >= num_cells_ || m.target_cell < 0 ||
        m.target_cell >= num_cells_ ||
        (m.op != kFedOpExecute && m.op != kFedOpComplete)) {
      return DataLossError("federation: bad mail in control reply");
    }
    reply_.mail.push_back(std::move(m));
  }
  for (FedCell::HostDone& d : host_done) {
    reply_.host_done.push_back(std::move(d));
  }
  return OkStatus();
}

Status RemoteCellHost::Bootstrap(const FederationConfig& config, int host_index,
                                 int num_hosts) {
  ByteWriter payload;
  WriteRaw(payload, config);
  CkptOut io(payload);
  io(host_index, num_hosts);
  std::vector<uint8_t> reply;
  PRESTO_RETURN_IF_ERROR(Call(FedFrameType::kBootstrap, payload.TakeBuffer(), &reply));
  num_cells_ = config.num_cells;
  hosted_ = 0;
  for (int c = host_index; c < config.num_cells; c += num_hosts) {
    ++hosted_;
  }
  return OkStatus();
}

void RemoteCellHost::Shutdown() {
  bool clean = false;
  if (channel_->fd() >= 0) {
    FedFrame frame;
    frame.type = FedFrameType::kShutdown;
    auto reply = channel_->Call(frame);
    clean = reply.ok() && reply->type == FedFrameType::kAck;
    channel_->Close();
  }
  if (pid_ > 0) {
    if (!clean) {
      ::kill(static_cast<pid_t>(pid_), SIGKILL);
    }
    ::waitpid(static_cast<pid_t>(pid_), nullptr, 0);
    pid_ = -1;
  }
}

void RemoteCellHost::Abandon() {
  channel_->Close();
  if (pid_ > 0) {
    ::kill(static_cast<pid_t>(pid_), SIGKILL);
    ::waitpid(static_cast<pid_t>(pid_), nullptr, 0);
    pid_ = -1;
  }
}

Status RemoteCellHost::Start() { return Control(FedFrameType::kStart, {}); }

Result<int> RemoteCellHost::AttachDriver(int origin_cell,
                                         const QueryDriverParams& params) {
  ByteWriter w;
  CkptWrite(w, origin_cell);
  WriteRaw(w, params);
  std::vector<uint8_t> reply;
  PRESTO_RETURN_IF_ERROR(Call(FedFrameType::kAttachDriver, w.TakeBuffer(), &reply));
  ByteReader r{span<const uint8_t>(reply)};
  auto slot = r.ReadVarU64();
  if (!slot.ok() || r.remaining() != 0) {
    return DataLossError("federation: bad attach-driver reply");
  }
  return static_cast<int>(*slot);
}

Status RemoteCellHost::StartDriver(int cell, int slot, Duration duration) {
  return Control(FedFrameType::kStartDriver, CkptWriteAll(cell, slot, duration));
}

Status RemoteCellHost::Step(SimTime barrier, SimTime end, std::vector<FedMail> mail) {
  FedFrame frame;
  frame.type = FedFrameType::kStep;
  frame.payload = CkptWriteAll(barrier, end, mail);
  const Status sent = channel_->Send(frame);
  if (!sent.ok()) {
    return Die(sent);
  }
  step_in_flight_ = true;  // TakeReply collects the reply
  return OkStatus();
}

Status RemoteCellHost::Inject(int origin_cell, uint64_t token,
                              const FederationQuerySpec& spec) {
  return Control(FedFrameType::kInject, CkptWriteAll(origin_cell, token, spec));
}

Status RemoteCellHost::KillCell(int cell) {
  return Control(FedFrameType::kKillCell, CkptWriteAll(cell));
}

Status RemoteCellHost::ReviveCell(int cell) {
  return Control(FedFrameType::kReviveCell, CkptWriteAll(cell));
}

Status RemoteCellHost::ProxyOp(int cell, int proxy, bool kill) {
  return Control(kill ? FedFrameType::kKillProxy : FedFrameType::kReviveProxy,
                 CkptWriteAll(cell, proxy));
}

Status RemoteCellHost::MigrateSensor(int cell, int global_index, int new_owner) {
  return Control(FedFrameType::kMigrateSensor,
                 CkptWriteAll(cell, global_index, new_owner));
}

Status RemoteCellHost::Snapshot(std::vector<FedCellSnapshot>* out) {
  std::vector<uint8_t> reply;
  Status s = Call(FedFrameType::kSnapshot, {}, &reply);
  if (s.ok()) {
    ByteReader r{span<const uint8_t>(reply)};
    s = CkptRead(r, *out);
    if (s.ok() && (out->size() != static_cast<size_t>(hosted_) || r.remaining() != 0)) {
      s = DataLossError("federation: bad snapshot reply");
    }
  }
  return s.ok() ? s : Die(std::move(s));
}

Status RemoteCellHost::SaveCheckpoint(Checkpoint* out) {
  std::vector<uint8_t> reply;
  PRESTO_RETURN_IF_ERROR(Call(FedFrameType::kCkptSave, {}, &reply));
  auto sub = Checkpoint::Decode(span<const uint8_t>(reply));
  if (!sub.ok()) {
    return sub.status();
  }
  *out = std::move(*sub);
  return OkStatus();
}

Status RemoteCellHost::LoadCheckpoint(const Checkpoint& ckpt,
                                      const std::vector<uint8_t>& cell_down) {
  ByteWriter payload;
  payload.WriteBytes(span<const uint8_t>(ckpt.Encode()));
  WriteCellBitmap(payload, cell_down);
  std::vector<uint8_t> reply;
  return Call(FedFrameType::kCkptLoad, payload.TakeBuffer(), &reply);
}

Status RemoteCellHost::TakeReply(CellHostReply* out) {
  if (step_in_flight_) {
    step_in_flight_ = false;
    auto reply = channel_->Recv();
    if (!reply.ok()) {
      return Die(reply.status());
    }
    if (reply->type != FedFrameType::kAck) {
      return Die(DataLossError("federation: worker failed a step"));
    }
    const Status absorbed = AbsorbControlReply(reply->payload);
    if (!absorbed.ok()) {
      return Die(absorbed);
    }
  }
  *out = std::exchange(reply_, {});
  return OkStatus();
}

std::string ResolveCellWorkerBinary() {
  // PRESTO_CELL_BIN wins, else next to this executable, else whatever PATH
  // resolves.
  if (const char* env = std::getenv("PRESTO_CELL_BIN")) {
    if (env[0] != '\0') {
      return env;
    }
  }
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n > 0) {
    self[n] = '\0';
    std::string dir(self);
    const size_t slash = dir.rfind('/');
    if (slash != std::string::npos) {
      return dir.substr(0, slash + 1) + "presto_cell";
    }
  }
  return "presto_cell";
}

int RunCellWorkerListenLoop(uint16_t port, Duration handshake_deadline,
                            bool once) {
  uint16_t bound_port = 0;
  auto listen_fd = TcpListen("0.0.0.0", port, &bound_port);
  if (!listen_fd.ok()) {
    std::fprintf(stderr, "presto_cell: %s\n", listen_fd.status().message().c_str());
    return 1;
  }
  // The spawn helpers (and human operators) read this line to learn the
  // kernel-chosen port; keep the format in lockstep with SpawnCellWorkerListening.
  std::printf("PRESTO_CELL_LISTENING %u\n", static_cast<unsigned>(bound_port));
  std::fflush(stdout);
  while (true) {
    auto conn = TcpAccept(*listen_fd, /*deadline=*/0);
    if (!conn.ok()) {
      std::fprintf(stderr, "presto_cell: %s\n", conn.status().message().c_str());
      ::close(*listen_fd);
      return 1;
    }
    bool shutdown = false;
    {
      FrameChannel channel(*conn);
      // Only the hello is deadlined: a connector that never completes the
      // handshake (half-open, slow-loris) must not wedge the accept loop. After
      // adoption the orchestrator paces the frames, and its death arrives as
      // EOF/RST — so Serve runs fully blocking, same as a fork-mode worker.
      channel.SetDeadline(handshake_deadline);
      auto hello = FedHelloServer(channel);
      if (!hello.ok()) {
        std::fprintf(stderr, "presto_cell: %s\n",
                     hello.status().message().c_str());
        continue;  // channel destructor closes the fd; keep listening
      }
      channel.SetDeadline(0);
      CellWorker worker(&channel);
      worker.Serve();
      shutdown = worker.shutdown_requested();
    }
    if (shutdown || once) {
      ::close(*listen_fd);
      return 0;
    }
    // EOF without shutdown: the orchestrator died or migrated away. Re-accept —
    // the next connection re-bootstraps this worker from scratch.
  }
}

Result<SpawnedCellWorker> SpawnCellWorkerListening() {
  int announce[2];
  if (::pipe(announce) != 0) {
    return InternalError("cell_worker spawn: pipe failed");
  }
  const std::string bin = ResolveCellWorkerBinary();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(announce[0]);
    ::close(announce[1]);
    return InternalError("cell_worker spawn: fork failed");
  }
  if (pid == 0) {
    ::close(announce[0]);
    ::dup2(announce[1], STDOUT_FILENO);
    ::close(announce[1]);
    ::execl(bin.c_str(), bin.c_str(), "--listen", "0", (char*)nullptr);
    _exit(127);
  }
  ::close(announce[1]);
  // Read the announcement line byte by byte; the worker writes it immediately
  // after binding, so a missing line means exec failed or the bind did.
  char line[256];
  size_t len = 0;
  while (len + 1 < sizeof(line)) {
    char c = 0;
    const ssize_t n = ::read(announce[0], &c, 1);
    if (n <= 0 || c == '\n') {
      break;
    }
    line[len++] = c;
  }
  line[len] = '\0';
  ::close(announce[0]);
  unsigned port = 0;
  if (std::sscanf(line, "PRESTO_CELL_LISTENING %u", &port) != 1 || port == 0 ||
      port > 65535) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return UnavailableError(
        "cell_worker spawn: no listen announcement (is the presto_cell binary "
        "next to this executable? set PRESTO_CELL_BIN otherwise)");
  }
  SpawnedCellWorker out;
  out.pid = pid;
  out.port = static_cast<uint16_t>(port);
  return out;
}

void StopCellWorker(SpawnedCellWorker& worker) {
  if (worker.pid <= 0) {
    return;
  }
  ::kill(static_cast<pid_t>(worker.pid), SIGKILL);
  ::waitpid(static_cast<pid_t>(worker.pid), nullptr, 0);
  worker.pid = -1;
}

}  // namespace presto
