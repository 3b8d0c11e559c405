#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/util/assert.h"
#include "src/util/ckpt.h"
#include "src/util/hash.h"

namespace presto {
namespace {

// Which lane (of which simulator) the calling thread is currently executing. Control
// contexts (the main thread between epochs, barrier-time execution, legacy mode)
// leave this unset.
struct ThreadLaneContext {
  const Simulator* sim = nullptr;
  int lane = 0;  // external worker lane index
};
thread_local ThreadLaneContext tl_lane_ctx;

}  // namespace

void EventHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelEvent(lane_, slot_, gen_);
  }
}

void Simulator::ConfigureLanes(int num_lanes, int threads, Duration epoch) {
  PRESTO_CHECK_MSG(!any_scheduled_, "ConfigureLanes must precede all scheduling");
  PRESTO_CHECK_MSG(!lane_mode_, "lanes already configured");
  if (num_lanes <= 1) {
    return;  // legacy single-queue engine
  }
  PRESTO_CHECK_MSG(epoch > 0, "lane epoch must be positive");
  lane_mode_ = true;
  epoch_ = epoch;
  threads_ = std::max(1, std::min(threads, num_lanes));
  lanes_.assign(static_cast<size_t>(num_lanes) + 1, Lane{});
  for (Lane& lane : lanes_) {
    lane.inbox.resize(static_cast<size_t>(num_lanes));
  }
  pool_ = std::make_unique<WorkerPool>(threads_);
}

size_t Simulator::RebindMatchingEvents(
    int from_lane, int to_lane,
    const std::function<bool(EventKind, const EventSink*, const EventPayload&)>&
        match) {
  PRESTO_CHECK_MSG(lane_mode_, "lane re-binding requires the lane engine");
  PRESTO_CHECK_MSG(CurrentLane() == kLaneControl,
                   "lane membership changes only at barriers, on the control lane");
  PRESTO_CHECK_MSG(from_lane >= 0 && from_lane < num_lanes(), "bad from_lane");
  PRESTO_CHECK_MSG(to_lane >= 0 && to_lane < num_lanes(), "bad to_lane");
  if (from_lane == to_lane) {
    return 0;
  }
  Lane& src = lanes_[static_cast<size_t>(from_lane)];
  Lane& dst = lanes_[static_cast<size_t>(to_lane)];
  size_t moved = 0;
  // Queue pass: pop everything (heap order == (time, seq) order), move matching
  // live entries — delivery times preserved, relative order preserved because the
  // target assigns fresh monotone seqs in pop order — and re-push the rest with
  // their original seqs (heap contents identical to before).
  std::vector<QueueEntry> keep;
  keep.reserve(src.queue.size());
  while (!src.queue.empty()) {
    const QueueEntry entry = src.queue.top();
    src.queue.pop();
    Event& event = src.pool[entry.slot];
    if (event.gen != entry.gen) {
      continue;  // cancelled: the slot is already free, drop the stale entry
    }
    if (!match(event.kind, event.sink, event.payload)) {
      keep.push_back(entry);
      continue;
    }
    const EventKind kind = event.kind;
    EventSink* sink = event.sink;
    EventPayload payload = std::move(event.payload);
    ReleaseSlot(src, entry.slot);  // bumps gen: stale handles become no-ops
    Enqueue(dst, entry.time, kind, sink, std::move(payload));
    ++moved;
  }
  for (const QueueEntry& entry : keep) {
    src.queue.push(entry);
  }
  // Mailbox pass: mail posted to the old lane during the just-finished epoch has
  // not drained yet (draining happens at the *opening* barrier). Append matching
  // entries to the new lane's same-source FIFO so the next drain delivers them
  // there, in the same (source, FIFO) order contract.
  for (size_t source = 0; source < src.inbox.size(); ++source) {
    std::vector<Mail>& box = src.inbox[source];
    std::vector<Mail> stay;
    for (Mail& mail : box) {
      if (match(mail.kind, mail.sink, mail.payload)) {
        dst.inbox[source].push_back(std::move(mail));
        ++moved;
      } else {
        stay.push_back(std::move(mail));
      }
    }
    box = std::move(stay);
  }
  if (moved > 0) {
    // The re-bind schedule is part of the replay contract, exactly like the
    // mailbox-drain schedule: fold (barrier, route, volume) into the barrier hash.
    MixFp(barrier_hash_, static_cast<uint64_t>(global_now_));
    MixFp(barrier_hash_, (static_cast<uint64_t>(from_lane) << 32) |
                             static_cast<uint64_t>(to_lane));
    MixFp(barrier_hash_, moved);
  }
  return moved;
}

int Simulator::CurrentLane() const {
  if (tl_lane_ctx.sim == this) {
    return tl_lane_ctx.lane;
  }
  return kLaneControl;
}

SimTime Simulator::Now() const {
  if (!lane_mode_) {
    return lanes_[0].now;
  }
  if (tl_lane_ctx.sim == this) {
    // kLaneControl is a sentinel, not an index: control events keep
    // CurrentLane() == kLaneControl but read the control lane's own clock, so a
    // control event observes its scheduled time rather than the barrier it
    // happens to execute at.
    const int lane =
        tl_lane_ctx.lane == kLaneControl ? ControlIndex() : tl_lane_ctx.lane;
    return lanes_[static_cast<size_t>(lane)].now;
  }
  return global_now_;
}

int Simulator::ResolveLane(int lane) const {
  if (!lane_mode_) {
    return 0;
  }
  if (lane == kLaneCurrent) {
    lane = CurrentLane();
  }
  if (lane == kLaneControl) {
    return ControlIndex();
  }
  PRESTO_CHECK_MSG(lane >= 0 && lane < num_lanes(), "bad lane index");
  return lane;
}

EventHandle Simulator::ScheduleEventAt(SimTime t, EventKind kind, EventSink* sink,
                                       EventPayload payload, int lane) {
  PRESTO_CHECK_MSG(t >= Now(), "cannot schedule into the past");
  PRESTO_CHECK(sink != nullptr);
  return Push(ResolveLane(lane), t, kind, sink, std::move(payload));
}

EventHandle Simulator::Push(int internal_lane, SimTime t, EventKind kind,
                            EventSink* sink, EventPayload&& payload) {
  const int current = CurrentLane();
  if (current == Simulator::kLaneControl) {
    // Only control-context schedules can be "the first ever" (a lane cannot execute
    // before something was scheduled into it), so the ConfigureLanes ordering guard
    // needs no cross-thread write.
    any_scheduled_ = true;
  }
  if (lane_mode_ && current != kLaneControl && internal_lane != current) {
    // Cross-lane post from a running worker: mailbox, drained (single-writer FIFO,
    // deterministic source order) at the next barrier. Not cancellable.
    Lane& target = lanes_[static_cast<size_t>(internal_lane)];
    target.inbox[static_cast<size_t>(current)].push_back(
        Mail{t, kind, sink, std::move(payload)});
    return EventHandle();
  }
  if (lane_mode_ && current == kLaneControl && internal_lane != ControlIndex() &&
      t < global_now_) {
    // A control event observes its own timestamp, which may trail the barrier —
    // but by the time control runs, worker lanes have already replayed up to it.
    // Deliveries into a worker lane clamp forward to the barrier so they can
    // never land in a lane's already-executed past.
    t = global_now_;
  }
  Lane& lane = lanes_[static_cast<size_t>(internal_lane)];
  const uint32_t slot = Enqueue(lane, t, kind, sink, std::move(payload));
  return EventHandle(this, internal_lane, slot, lane.pool[slot].gen);
}

uint32_t Simulator::Enqueue(Lane& lane, SimTime t, EventKind kind, EventSink* sink,
                            EventPayload&& payload) {
  uint32_t slot;
  if (!lane.free_slots.empty()) {
    slot = lane.free_slots.back();
    lane.free_slots.pop_back();
  } else {
    slot = static_cast<uint32_t>(lane.pool.size());
    lane.pool.emplace_back();
  }
  Event& event = lane.pool[slot];
  event.kind = kind;
  event.sink = sink;
  event.payload = std::move(payload);
  lane.queue.push(QueueEntry{t, lane.next_seq++, slot, event.gen});
  return slot;
}

void Simulator::CancelEvent(int internal_lane, uint32_t slot, uint32_t gen) {
  Lane& lane = lanes_[static_cast<size_t>(internal_lane)];
  if (slot >= lane.pool.size() || lane.pool[slot].gen != gen) {
    return;  // already fired, cancelled, or the slot moved on to a new generation
  }
  ReleaseSlot(lane, slot);
}

void Simulator::ReleaseSlot(Lane& lane, uint32_t slot) {
  Event& event = lane.pool[slot];
  ++event.gen;  // invalidates queue entries and handles of the old generation
  event.sink = nullptr;
  // Release the payload buffer: the next occupant move-assigns its own vector over
  // this one, so retained capacity would only pin the last frame's allocation.
  event.payload.bytes = std::vector<uint8_t>();
  lane.free_slots.push_back(slot);
}

void Simulator::MixFp(uint64_t& fp, uint64_t v) const { FnvMix(fp, v); }

bool Simulator::ExecuteOne(Lane& lane) {
  const QueueEntry entry = lane.queue.top();
  lane.queue.pop();
  Event& event = lane.pool[entry.slot];
  if (event.gen != entry.gen) {
    return false;  // cancelled (slot already released)
  }
  lane.now = entry.time;
  ++lane.executed;
  MixFp(lane.fp, static_cast<uint64_t>(entry.time));
  MixFp(lane.fp, entry.seq);
  // Move the event out before dispatch: the handler may schedule into this lane and
  // reallocate the pool (and may legitimately reuse this very slot).
  const EventKind kind = event.kind;
  EventSink* sink = event.sink;
  EventPayload payload = std::move(event.payload);
  ReleaseSlot(lane, entry.slot);
  sink->OnSimEvent(kind, payload);
  return true;
}

void Simulator::RunLaneTo(int internal_lane, SimTime end, bool inclusive) {
  Lane& lane = lanes_[static_cast<size_t>(internal_lane)];
  const ThreadLaneContext saved = tl_lane_ctx;
  const bool is_control = internal_lane == ControlIndex();
  if (lane_mode_) {
    // Control keeps the kLaneControl sentinel (CurrentLane() must keep reporting
    // control context for the barrier-only mutation checks); Now() maps it back
    // to the control lane's clock.
    tl_lane_ctx =
        ThreadLaneContext{this, is_control ? kLaneControl : internal_lane};
  }
  while (!lane.queue.empty()) {
    const SimTime top = lane.queue.top().time;
    if (inclusive ? top > end : top >= end) {
      break;
    }
    ExecuteOne(lane);
  }
  tl_lane_ctx = saved;
}

void Simulator::RunEpoch(SimTime end, bool inclusive) {
  const SimTime start = global_now_;
  // 1) Drain mailboxes: for each target lane, source lanes in index order, FIFO
  //    within a source. Arrival times clamp to the barrier (cross-lane granularity).
  uint64_t drained = 0;
  for (Lane& target : lanes_) {
    for (std::vector<Mail>& box : target.inbox) {
      for (Mail& mail : box) {
        Enqueue(target, std::max(mail.time, start), mail.kind, mail.sink,
                std::move(mail.payload));
        ++drained;
      }
      box.clear();
    }
  }
  if (drained > 0) {
    // Barrier-sequence hash: which barrier took delivery of how much cross-lane
    // traffic is part of the replay contract.
    MixFp(barrier_hash_, static_cast<uint64_t>(start));
    MixFp(barrier_hash_, drained);
  }
  // 2) Pre-extend shared lazily-built world state so lanes only read it.
  if (barrier_hook_) {
    barrier_hook_(end);
  }
  // 3) Worker lanes.
  pool_->Run(num_lanes(), [&](int lane) { RunLaneTo(lane, end, inclusive); });
  // 4) Control lane: mutations and other serial work run at the closing barrier,
  //    with every worker idle and the global clock at `end`. An event scheduled for
  //    time T executes at the first barrier at-or-after T (never before it), but
  //    observes Now() == T — execution is barrier-batched, the logical clock is
  //    not. Deliveries it makes into worker lanes clamp forward to the barrier
  //    (see Push); control-to-control chains keep full time resolution.
  global_now_ = end;
  RunLaneTo(ControlIndex(), end, /*inclusive=*/true);
}

void Simulator::SetBarrierHook(std::function<void(SimTime)> hook) {
  barrier_hook_ = std::move(hook);
}

bool Simulator::Step() {
  if (!lane_mode_) {
    Lane& lane = lanes_[0];
    while (!lane.queue.empty()) {
      if (ExecuteOne(lane)) {
        return true;
      }
    }
    return false;
  }
  const SimTime next = NextEventTime();
  if (next < 0) {
    return false;
  }
  const SimTime target = std::max(next, global_now_);
  RunEpoch(GridEnd(target), /*inclusive=*/false);
  return true;
}

void Simulator::RunUntil(SimTime t) {
  if (!lane_mode_) {
    Lane& lane = lanes_[0];
    while (!lane.queue.empty()) {
      const QueueEntry& top = lane.queue.top();
      if (lane.pool[top.slot].gen != top.gen) {
        // Lazy-deleted (cancelled) entry. Dropping it here matters: a stale entry
        // at time <= t can front a live event beyond t, and deciding on the stale
        // top's time would execute that event past the bound (Step() runs the
        // first *live* event it finds, whatever its time).
        lane.queue.pop();
        continue;
      }
      if (top.time > t) {
        break;
      }
      ExecuteOne(lane);
    }
    if (lane.now < t) {
      lane.now = t;
    }
    return;
  }
  while (global_now_ <= t) {
    SimTime next = NextEventTime();
    if (next < 0) {
      global_now_ = t;
      return;
    }
    next = std::max(next, global_now_);
    if (next > t) {
      global_now_ = t;
      return;
    }
    // Skip empty grid cells: barriers only run where work (or mail) is waiting.
    const SimTime end = std::min(GridEnd(next), t);
    RunEpoch(end, /*inclusive=*/end == t);
    if (end == t) {
      return;
    }
  }
}

void Simulator::RunAll() {
  while (Step()) {
  }
}

uint64_t Simulator::events_executed() const {
  uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.executed;
  }
  return total;
}

size_t Simulator::events_pending() const {
  size_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.queue.size();
    for (const std::vector<Mail>& box : lane.inbox) {
      total += box.size();
    }
  }
  return total;
}

uint64_t Simulator::fingerprint() const {
  if (!lane_mode_) {
    return lanes_[0].fp;
  }
  // Order-independent fold: lanes execute concurrently, so the combined fingerprint
  // must not encode an inter-lane *ordering* — but each stream is bound to its lane
  // identity before summing, so swapping two lanes' entire event streams (a lane
  // misrouting bug) still changes the result. The barrier hash pins the cross-lane
  // delivery schedule.
  uint64_t total = barrier_hash_;
  uint64_t index = 0;
  for (const Lane& lane : lanes_) {
    uint64_t term = lane.fp;
    MixFp(term, index++);
    total += term * 0x9e3779b97f4a7c15ull;
  }
  return total;
}

SimTime Simulator::NextEventTime() const {
  SimTime best = -1;
  for (const Lane& lane : lanes_) {
    if (!lane.queue.empty()) {
      const SimTime t = lane.queue.top().time;
      if (best < 0 || t < best) {
        best = t;
      }
    }
    for (const std::vector<Mail>& box : lane.inbox) {
      for (const Mail& mail : box) {
        if (best < 0 || mail.time < best) {
          best = mail.time;
        }
      }
    }
  }
  return best;
}

uint64_t Simulator::RegisterSink(EventSink* sink) {
  PRESTO_CHECK(sink != nullptr);
  auto it = sink_ids_.find(sink);
  if (it != sink_ids_.end()) {
    return it->second;
  }
  const uint64_t id = sinks_.size();
  sink_ids_[sink] = id;
  sinks_.push_back(sink);
  return id;
}

// Pending queue events and mailbox entries as checkpointed: the sink by its
// registration index. Mail has no seq (its FIFO position orders it).
struct Simulator::SavedEvent {
  SimTime time = 0;
  uint64_t seq = 0;
  EventKind kind = EventKind::kTimer;
  uint64_t sink = 0;
  EventPayload payload;

  template <typename Io>
  void CkptFields(Io& io) {
    io(time, seq, kind, sink, payload);
  }
};

struct Simulator::SavedMail {
  SimTime time = 0;
  EventKind kind = EventKind::kTimer;
  uint64_t sink = 0;
  EventPayload payload;

  template <typename Io>
  void CkptFields(Io& io) {
    io(time, kind, sink, payload);
  }
};

template <typename Io>
void CkptFields(Io& io, EventPayload& p) {
  io(p.a, p.b, p.c, p.d, p.e, p.f, p.bytes);
}

template <typename Io>
void Simulator::CkptFields(Io& io) {
  PRESTO_CHECK_MSG(CurrentLane() == kLaneControl,
                   "checkpoint and restore only from control context");
  CkptExpect(io, lane_mode_, StatusCode::kFailedPrecondition,
             "restore: lane mode mismatch");
  CkptExpect(io, static_cast<uint64_t>(lanes_.size()), StatusCode::kFailedPrecondition,
             "restore: lane count mismatch");
  CkptExpect(io, static_cast<uint64_t>(sinks_.size()), StatusCode::kFailedPrecondition,
             "restore: sink table mismatch (construct in the saving run's order)");
  CkptExpect(io, epoch_, StatusCode::kFailedPrecondition, "restore: epoch grid mismatch");
  io(global_now_);
  io.Fixed64(barrier_hash_);
  io(any_scheduled_);
  std::vector<std::vector<SavedEvent>> queues(lanes_.size());
  std::vector<std::vector<std::vector<SavedMail>>> inboxes(lanes_.size());
  for (size_t li = 0; li < lanes_.size(); ++li) {
    Lane& lane = lanes_[li];
    inboxes[li].resize(lane.inbox.size());
    if constexpr (!Io::kLoading) {
      const auto sink_index = [&](EventSink* sink) -> uint64_t {
        auto sid = sink_ids_.find(sink);
        if (sid == sink_ids_.end()) {
          io.Fail(FailedPreconditionError(
              "checkpoint: pending event for an unregistered sink in lane " +
              std::to_string(li)));
          return 0;
        }
        return sid->second;
      };
      // Pending queue events, ascending (time, seq) — copy-pop to iterate the heap.
      auto heap = lane.queue;
      for (; !heap.empty(); heap.pop()) {
        const QueueEntry& entry = heap.top();
        const Event& event = lane.pool[entry.slot];
        if (event.gen == entry.gen) {
          queues[li].push_back(SavedEvent{entry.time, entry.seq, event.kind,
                                          sink_index(event.sink), event.payload});
        }
      }
      for (size_t b = 0; b < lane.inbox.size(); ++b) {
        for (const Mail& mail : lane.inbox[b]) {
          const uint64_t sink = sink_index(mail.sink);
          inboxes[li][b].push_back(SavedMail{mail.time, mail.kind, sink, mail.payload});
        }
      }
    }
    io(lane.now, lane.next_seq, lane.executed);
    io.Fixed64(lane.fp);
    io(queues[li]);
    CkptExpect(io, static_cast<uint64_t>(inboxes[li].size()), StatusCode::kDataLoss,
               "restore: mailbox table mismatch");
    for (std::vector<SavedMail>& box : inboxes[li]) {
      io(box);
    }
  }
  if constexpr (Io::kLoading) {
    if (io.ok()) {
      io.Fail(RestoreQueues(queues, inboxes));
    }
  }
}
PRESTO_CKPT_FIELDS(Simulator);

Status Simulator::RestoreQueues(
    std::vector<std::vector<SavedEvent>>& queues,
    std::vector<std::vector<std::vector<SavedMail>>>& inboxes) {
  // Kind 0 is the retired closure event: never written, so never accepted.
  const auto typed = [&](EventKind kind, uint64_t sink) {
    return static_cast<uint8_t>(kind) != 0 && sink < sinks_.size();
  };
  for (size_t li = 0; li < lanes_.size(); ++li) {
    const std::vector<SavedEvent>& queue = queues[li];
    for (size_t i = 0; i < queue.size(); ++i) {
      const bool ascending =
          i == 0 || queue[i - 1].time < queue[i].time ||
          (queue[i - 1].time == queue[i].time && queue[i - 1].seq < queue[i].seq);
      if (!typed(queue[i].kind, queue[i].sink) || !ascending) {
        return DataLossError("restore: invalid or out-of-order event record in lane " +
                             std::to_string(li));
      }
    }
    for (const std::vector<SavedMail>& box : inboxes[li]) {
      for (const SavedMail& mail : box) {
        if (!typed(mail.kind, mail.sink)) {
          return DataLossError("restore: invalid mailbox record in lane " +
                               std::to_string(li));
        }
      }
    }
  }
  // Restored events to announce once every lane's queues are rebuilt.
  struct Restored {
    int lane;
    SimTime time;
    EventKind kind;
    uint32_t slot;
  };
  std::vector<Restored> announce;
  for (size_t li = 0; li < lanes_.size(); ++li) {
    Lane& lane = lanes_[li];
    // Discard construction-time residue; handle-holders re-capture below.
    lane.pool.clear();
    lane.free_slots.clear();
    lane.queue = std::priority_queue<QueueEntry, std::vector<QueueEntry>, Later>();
    for (SavedEvent& saved : queues[li]) {
      const uint32_t slot = static_cast<uint32_t>(lane.pool.size());
      lane.pool.emplace_back();
      Event& event = lane.pool[slot];
      event.kind = saved.kind;
      event.sink = sinks_[saved.sink];
      event.payload = std::move(saved.payload);
      // Original (time, seq): same-time tie-break order is part of the replay
      // contract, so events re-enter with the seqs they were scheduled under.
      lane.queue.push(QueueEntry{saved.time, saved.seq, slot, event.gen});
      announce.push_back(Restored{static_cast<int>(li), saved.time, saved.kind, slot});
    }
    for (size_t b = 0; b < lane.inbox.size(); ++b) {
      lane.inbox[b].clear();
      for (SavedMail& m : inboxes[li][b]) {
        Mail mail{m.time, m.kind, sinks_[m.sink], std::move(m.payload)};
        lane.inbox[b].push_back(std::move(mail));
      }
    }
  }
  for (const Restored& item : announce) {
    Lane& lane = lanes_[static_cast<size_t>(item.lane)];
    Event& event = lane.pool[item.slot];
    const int external_lane = lane_mode_ && item.lane != ControlIndex()
                                  ? item.lane
                                  : kLaneControl;
    PRESTO_RETURN_IF_ERROR(event.sink->OnEventRestored(
        item.time, item.kind, event.payload,
        EventHandle(this, item.lane, item.slot, event.gen), external_lane));
  }
  return OkStatus();
}

Status Simulator::SaveState(ByteWriter& w) const { return CkptSave(w, *this); }
Status Simulator::LoadState(ByteReader& r) { return CkptRead(r, *this); }

size_t Simulator::PoolSlotsForTest(int lane) const {
  return lanes_[static_cast<size_t>(ResolveLane(lane))].pool.size();
}

size_t Simulator::FreeSlotsForTest(int lane) const {
  return lanes_[static_cast<size_t>(ResolveLane(lane))].free_slots.size();
}

}  // namespace presto
