// Discrete-event simulator with a parallel shard-lane execution engine.
//
// This is the testbed substitute for the paper's mote/proxy hardware: every radio
// transmission, flash operation, sensing tick, and query in PRESTO is an event here.
//
// Two execution modes share one event representation:
//
//  - Legacy (default): a single global queue executed inline, exactly the seed
//    behaviour. Events at equal timestamps fire in scheduling order, all randomness is
//    injected via seeded Pcg32 streams, and fingerprint() is the original global
//    rolling FNV-1a over every executed event's (time, seq) — replays bit-identically.
//
//  - Shard lanes (ConfigureLanes): the queue splits into `num_lanes` per-lane queues
//    (the deployment maps lane = home shard) executed by a worker pool under an
//    epoch-barrier schedule. Within an epoch [T, T+E) every lane runs its own events
//    independently; an event that schedules into *another* lane posts to a per-lane
//    mailbox instead, and mailboxes are drained serially at the next barrier (the
//    cross-lane delivery granularity is therefore the epoch). A serial *control lane*
//    runs at barriers with no workers active — deployment mutations (kill / revive /
//    promote / migrate / rebalance) execute there so they may touch any lane's state.
//
//    Determinism contract in lane mode: each lane keeps its own clock, sequence
//    counter, and rolling FNV fingerprint; mailboxes are single-writer FIFOs drained
//    in (source-lane, FIFO) order on a fixed absolute epoch grid, so per-lane event
//    streams do not depend on the worker count. fingerprint() folds the per-lane
//    fingerprints order-independently (commutative sum of mixed lane hashes) together
//    with a barrier-sequence hash over (epoch start, mail count) of every draining
//    barrier. threads=1 and threads=N produce identical fingerprints; a simulator
//    that never configured lanes keeps the legacy global fingerprint path.
//
// Events are typed, pool-allocated records, never closures: timer fires, radio frame
// deliveries, batch flushes, query stages, and topology mutations dispatch through an
// EventSink with a small POD payload (bulk frame bytes ride in the event itself), so
// every pending event allocates no closure state and can be checkpointed.
// Cancellation is generation-based: a handle names (lane, slot, generation) and a
// stale generation makes both Cancel() and queue pops no-ops.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "src/util/result.h"
#include "src/util/sim_time.h"
#include "src/util/worker_pool.h"

namespace presto {

class ByteReader;
class ByteWriter;
class EventHandle;
class Simulator;

// Typed event classes, dispatched through EventSink. Value 0 is reserved (it named
// the retired closure event); restores reject it.
enum class EventKind : uint8_t {
  kTimer = 1,      // PeriodicTimer fire
  kFrame = 2,      // Network frame delivery (message payload rides in the event)
  kBatchFlush = 3, // Network per-link coalescing flush
  kQuery = 4,      // query routing/completion stages, pull timeouts
  kMutation = 5,   // deployment topology mutation (control lane only)
};
constexpr uint64_t CkptEnumMax(EventKind) { return 5; }

// Small POD argument block for typed events. Meaning of a..f is sink-defined;
// `bytes` carries bulk payloads (radio frames) and its capacity is pooled.
struct EventPayload {
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;
  uint64_t e = 0;
  uint64_t f = 0;
  std::vector<uint8_t> bytes;
};

// Receiver of typed events. Implemented by Network, UnifiedStore, ProxyNode,
// Deployment, and PeriodicTimer.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnSimEvent(EventKind kind, EventPayload& payload) = 0;

  // Checkpoint restore hook: Simulator::LoadState announces every restored queue
  // event to its sink (per lane, in (time, seq) order) so holders of cancellable
  // handles — timers, pull timeouts, batch flushes — re-capture them. `lane` is the
  // external designator the event lives in (a worker lane index, or kLaneControl for
  // the control/legacy lane) — sinks with per-lane state use it to find the owning
  // context. Mailbox entries are not announced (cross-lane posts never had handles).
  // A sink whose own section also records the event (a timer's next fire, a
  // batch's flush time) returns kDataLoss when the two disagree, failing the
  // restore. Default no-op: sinks whose events carry no handle state ignore it.
  virtual Status OnEventRestored(SimTime t, EventKind kind, const EventPayload& payload,
                                 const EventHandle& handle, int lane) {
    (void)t;
    (void)kind;
    (void)payload;
    (void)handle;
    (void)lane;
    return OkStatus();
  }
};

// Handle to a scheduled event; allows cancellation (e.g. a retransmission timer being
// serviced by an ACK). Generation-based: cancelling after the event fired (or was
// cancelled, or its slot was reused) is a safe no-op. Cancel() must run either in the
// event's own lane, or from control context (barriers / between runs) — never from a
// concurrently executing other lane. Cross-lane (mailbox) schedules return an invalid
// handle: they cannot be cancelled once posted.
class EventHandle {
 public:
  EventHandle() = default;

  // Marks the event so the simulator skips it; safe to call multiple times or after
  // the event has fired.
  void Cancel();

  bool valid() const { return sim_ != nullptr; }

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, int lane, uint32_t slot, uint32_t gen)
      : sim_(sim), lane_(lane), slot_(slot), gen_(gen) {}
  Simulator* sim_ = nullptr;
  int lane_ = 0;  // internal lane index
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;
};

class Simulator {
 public:
  // Lane designators for the `lane` parameter of the Schedule* calls.
  static constexpr int kLaneCurrent = -2;  // the scheduling context's own lane
  static constexpr int kLaneControl = -1;  // serial barrier lane

  // Sentinel returned by epoch() when no lane grid is configured
  // (legacy mode). Layers that validate a stacked barrier schedule against the cell
  // grid must treat this value explicitly ("no grid" — not "grid of length zero"):
  // an unconfigured cell imposes no epoch constraint, and arithmetic on the grid
  // (GridEnd) is meaningless. Never a legal configured epoch (ConfigureLanes
  // requires epoch > 0).
  static constexpr Duration kNoEpochGrid = 0;

  Simulator() { lanes_.resize(1); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Splits execution into `num_lanes` parallel lanes plus the serial control lane,
  // run by `threads` workers (clamped to [1, num_lanes]; the calling thread is one of
  // them) on an absolute epoch grid of length `epoch`. Must be called once, before
  // any event is scheduled. num_lanes <= 1 keeps the legacy single-queue engine.
  void ConfigureLanes(int num_lanes, int threads, Duration epoch);

  // Worker lanes configured (0 in legacy mode).
  int num_lanes() const { return lane_mode_ ? static_cast<int>(lanes_.size()) - 1 : 0; }
  // Whether `lane` is a designator this simulator resolves (kLaneCurrent,
  // kLaneControl or a worker lane index); restores check saved lanes with it.
  bool IsLane(int lane) const {
    return lane == kLaneCurrent || lane == kLaneControl ||
           (lane >= 0 && lane < num_lanes());
  }
  int threads() const { return threads_; }
  // The epoch-barrier grid length passed to ConfigureLanes, fixed for the run
  // (kNoEpochGrid in legacy mode). Layers that stack their own barrier schedule on
  // top (the federation) validate against it.
  Duration epoch() const { return lane_mode_ ? epoch_ : kNoEpochGrid; }

  // Barrier-time lane re-binding: moves every *live* pending event and undrained
  // mailbox entry of `from_lane` that `match`es to `to_lane`, preserving delivery
  // times and relative order ((time, seq) order; mailbox entries keep their source
  // FIFO attribution). Control context only — lane membership changes only at
  // barriers, on the control lane. Handles into moved events are invalidated (the
  // old slot's generation bumps), so handle-holders (timers, pull timeouts) must
  // re-bind cooperatively instead; this call is for handle-free events (frame
  // deliveries). The rebind is folded into the barrier hash (order-independent
  // per-lane fingerprints are unaffected until the events execute in their new
  // lane). Returns the number of events + mails moved.
  size_t RebindMatchingEvents(
      int from_lane, int to_lane,
      const std::function<bool(EventKind, const EventSink*, const EventPayload&)>&
          match);

  // The lane the calling context executes in: a worker lane index during lane event
  // execution, else kLaneControl (also always kLaneControl in legacy mode).
  int CurrentLane() const;

  // Current simulated time: the executing lane's clock during event execution, the
  // global barrier clock otherwise.
  SimTime Now() const;

  // Schedules a typed event at absolute time `t` (must be >= Now()) in `lane`
  // (default: the scheduling context's lane), dispatched as
  // sink->OnSimEvent(kind, payload). Returns a cancellable handle, except for
  // cross-lane posts from a running lane (mailbox; invalid handle).
  EventHandle ScheduleEventAt(SimTime t, EventKind kind, EventSink* sink,
                              EventPayload payload, int lane = kLaneCurrent);

  // Runs a barrier-time hook before each epoch's workers launch (lane mode only):
  // the deployment pre-extends shared lazily-built world state (e.g. the temperature
  // field's weather fronts) through `epoch_end` so lane execution only reads it.
  void SetBarrierHook(std::function<void(SimTime epoch_end)> hook);

  // Legacy: executes the next event, returns false when the queue is empty.
  // Lane mode: advances one epoch covering the next pending event (or returns false
  // when nothing is pending anywhere).
  bool Step();

  // Runs until pending work is exhausted or `t` is reached; the clock finishes at
  // exactly `t` if any events remain beyond it (they stay queued). Events scheduled
  // at exactly `t` execute, matching the legacy inclusive bound.
  void RunUntil(SimTime t);

  // Runs until every queue and mailbox drains.
  void RunAll();

  uint64_t events_executed() const;
  size_t events_pending() const;

  // Replay fingerprint. Legacy: the global rolling FNV-1a over executed (time, seq).
  // Lane mode: order-independent fold of the per-lane rolling hashes plus the
  // barrier-sequence hash (see file header). Equal across reruns and worker counts.
  uint64_t fingerprint() const;

  // Timestamp of the next queued event (in any lane or mailbox), or -1 when idle.
  // Cancelled events may still occupy queues, so this is a lower bound.
  SimTime NextEventTime() const;

  // Introspection for tests: live + free slot counts of one lane's event pool.
  size_t PoolSlotsForTest(int lane) const;
  size_t FreeSlotsForTest(int lane) const;

  // --- Checkpoint support ---------------------------------------------------
  // Registers `sink` in the deterministic sink table checkpoints use to name event
  // receivers. Idempotent; returns the sink's stable id. Subsystems register in
  // their constructors, so an identically configured restore run (same construction
  // order) assigns identical ids — the contract that lets serialized sink ids
  // resolve to live objects.
  uint64_t RegisterSink(EventSink* sink);
  size_t RegisteredSinkCount() const { return sinks_.size(); }

  // Serializes the complete engine state: clocks, epoch grid, per-lane sequence
  // counters and fingerprints, every pending queue event (original (time, seq) —
  // tie-break order is part of the replay contract) and undrained mailbox entry.
  // Control context only (between runs or at a barrier). Fails without side effects
  // if any pending event references an unregistered sink.
  Status SaveState(ByteWriter& w) const;

  // Restores state saved by SaveState into a freshly constructed, identically
  // configured simulator: same lane count and epoch — the thread count may
  // differ (replay is thread-count independent). Existing queues are discarded;
  // events re-enter their pools with their original (time, seq) keys and each is
  // announced via OnEventRestored. Call after every subsystem's own LoadState, so
  // re-captured handles land in fully restored objects. Pending events must be
  // strictly ascending in (time, seq) per lane — the order SaveState writes.
  Status LoadState(ByteReader& r);
  template <typename Io>
  void CkptFields(Io& io);

 private:
  // Checkpoint records of pending queue events and mailbox entries.
  struct SavedEvent;
  struct SavedMail;
  // Validates restored records, then rebuilds every lane's pool, heap and
  // mailboxes and announces the events. Untouched on error.
  Status RestoreQueues(std::vector<std::vector<SavedEvent>>& queues,
                       std::vector<std::vector<std::vector<SavedMail>>>& inboxes);

  struct QueueEntry {
    SimTime time;
    uint64_t seq;  // tie-break: FIFO among same-time events within a lane
    uint32_t slot;
    uint32_t gen;
  };
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  struct Event {
    EventKind kind = EventKind::kTimer;
    uint32_t gen = 0;
    EventSink* sink = nullptr;
    EventPayload payload;
  };
  // A cross-lane schedule awaiting the next barrier. Lives in the *target* lane's
  // per-source FIFO, written only by the source lane's worker.
  struct Mail {
    SimTime time;
    EventKind kind;
    EventSink* sink;
    EventPayload payload;
  };
  struct Lane {
    SimTime now = 0;
    uint64_t next_seq = 0;
    uint64_t executed = 0;
    uint64_t fp = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    std::vector<Event> pool;
    std::vector<uint32_t> free_slots;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, Later> queue;
    std::vector<std::vector<Mail>> inbox;  // [source worker lane] -> FIFO
  };

  friend class EventHandle;

  int ControlIndex() const {
    return lane_mode_ ? static_cast<int>(lanes_.size()) - 1 : 0;
  }
  int ResolveLane(int lane) const;
  EventHandle Push(int internal_lane, SimTime t, EventKind kind, EventSink* sink,
                   EventPayload&& payload);
  uint32_t Enqueue(Lane& lane, SimTime t, EventKind kind, EventSink* sink,
                   EventPayload&& payload);
  void CancelEvent(int internal_lane, uint32_t slot, uint32_t gen);
  void ReleaseSlot(Lane& lane, uint32_t slot);
  // Executes queued events of `lane` with time < end (<= end when `inclusive`).
  void RunLaneTo(int internal_lane, SimTime end, bool inclusive);
  bool ExecuteOne(Lane& lane);
  // One barrier + one epoch [global_now_, end): drain mailboxes and run the hook,
  // execute the worker lanes through the epoch, then run due control-lane events at
  // the closing barrier (with the global clock at `end` and every worker idle).
  void RunEpoch(SimTime end, bool inclusive);
  void MixFp(uint64_t& fp, uint64_t v) const;
  // First barrier strictly after `t` on the absolute grid.
  SimTime GridEnd(SimTime t) const { return (t / epoch_ + 1) * epoch_; }

  bool lane_mode_ = false;
  int threads_ = 1;
  Duration epoch_ = 0;
  SimTime global_now_ = 0;
  uint64_t barrier_hash_ = 0xcbf29ce484222325ull;
  bool any_scheduled_ = false;
  std::vector<Lane> lanes_;  // legacy: [0]; lane mode: [0..L-1] workers, [L] control
  std::function<void(SimTime)> barrier_hook_;
  std::vector<EventSink*> sinks_;  // checkpoint sink table, construction order
  std::map<const EventSink*, uint64_t> sink_ids_;
  std::unique_ptr<WorkerPool> pool_;  // runs the worker lanes (lane mode)
};

}  // namespace presto

#endif  // SRC_SIM_SIMULATOR_H_
