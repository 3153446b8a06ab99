#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/buffer_pool.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace h2sim::sim {

namespace detail {

/// Shared scheduler core: the event-slot slab plus the hierarchical timing
/// wheel built over it. Shared between the loop and its TimerHandles so a
/// handle can cancel in O(1) by unlinking its slot from the wheel bucket.
///
/// Slots are recycled through a free list; each slot carries a generation
/// counter that is bumped on every release, so a handle created for one
/// occupancy can never act on a later occupant (ABA-safe cancel). The core
/// is owned by a shared_ptr: handles hold a weak_ptr, which makes a handle
/// that outlives its EventLoop a harmless no-op instead of a use-after-free.
///
/// Slot storage grows in fixed chunks whose addresses never move, so slots
/// stay valid across growth triggered from inside a running callback.
///
/// Wheel geometry: kLevels levels of 64 slots over a 1024 ns granule
/// (kScaleShift). Level k buckets span 64^k granules, so nine levels cover
/// the whole non-negative int64 nanosecond range — there is no overflow
/// list, and a timer at TimePoint::max() is just a level-8 insert. An event
/// lands at the level of the highest 6-bit digit in which its granule tick
/// differs from the wheel cursor, which keeps every occupied bucket strictly
/// ahead of the cursor (no wraparound case). When the cursor reaches a
/// higher-level bucket, the bucket cascades: its events redistribute to
/// lower levels, each moving strictly downward, so an event cascades at most
/// kLevels-1 times over its whole lifetime.
struct SchedulerCore {
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;  // slots/chunk
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  static constexpr int kScaleShift = 10;  // 1024 ns wheel granule
  static constexpr int kLevelBits = 6;    // 64 slots per level
  static constexpr int kLevels = 9;       // 64^9 granules > any int64 time
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr std::uint32_t kBucketCount = kLevels * kSlotsPerLevel;

  /// Sentinels for Slot::bucket: not linked in any wheel bucket.
  static constexpr std::uint16_t kBucketNear = 0xfffe;  // drained to near-heap
  static constexpr std::uint16_t kBucketFree = 0xffff;  // on the free list

  struct Slot {
    InlineCallback cb;
    std::int64_t at_ns = 0;
    std::uint64_t seq = 0;
    std::uint32_t generation = 0;
    std::uint32_t next = kNoIndex;  // bucket list / free list
    std::uint32_t prev = kNoIndex;  // bucket list only
    std::uint16_t bucket = kBucketFree;
    bool cancelled = false;
  };

  /// O(1)-cancel and cascade counters, published as sim.sched.* metrics.
  struct SchedStats {
    std::uint64_t slots_scanned = 0;  // occupancy-bitmap words examined
    std::uint64_t cascades = 0;       // events redistributed to a lower level
    std::uint64_t cancels = 0;        // cancels that found a live event
  };

  std::vector<std::unique_ptr<Slot[]>> chunks;
  std::uint32_t free_head = kNoIndex;
  std::uint64_t chunk_allocs = 0;  // growth events, for AllocStats

  std::array<std::uint32_t, kBucketCount> head;
  std::array<std::uint32_t, kBucketCount> tail;
  std::array<std::uint64_t, kLevels> occupied{};  // bit per bucket, per level
  std::uint64_t cur_tick = 0;   // first granule not yet drained
  std::uint64_t wheel_count = 0;
  /// True when a drain advance carried the cursor across a 64^k boundary —
  /// the only way a higher-level bucket at the cursor's own digit index can
  /// come to cover the cursor's window. refill_near() runs its own-index
  /// catch-up cascade exactly when this is set.
  bool carry_pending = true;
  std::uint64_t live = 0;  // scheduled, not yet fired or cancelled
  SchedStats sched;

  SchedulerCore() {
    head.fill(kNoIndex);
    tail.fill(kNoIndex);
  }

  Slot& slot(std::uint32_t index) {
    return chunks[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  /// Pops a free slot, growing the slab by one chunk when exhausted.
  std::uint32_t acquire();
  /// Bumps the generation and returns the slot to the free list.
  void release(std::uint32_t index);

  /// Links `index` (at_ns/seq already set) into the wheel bucket its granule
  /// tick selects, FIFO at the bucket tail. Requires tick >= cur_tick.
  void wheel_insert(std::uint32_t index);
  /// Unlinks `index` from its wheel bucket (no-op for near/free slots).
  void wheel_unlink(std::uint32_t index);

  /// Cancel entry point shared by TimerHandle and EventLoop. Wheel-resident
  /// events are unlinked and released immediately (O(1)); events already
  /// drained to the near-heap are tombstoned and reaped when they pop.
  void cancel(std::uint32_t index, std::uint32_t generation);
};

}  // namespace detail

/// Handle to a scheduled event; allows cancellation. Handles are cheap,
/// copyable tokens. Cancelling an already-fired or already-cancelled event is
/// a harmless no-op, as is any use of a handle whose EventLoop has been
/// destroyed — the handle observes the scheduler core through a weak_ptr and
/// the slot through its generation counter, so stale handles can never touch
/// recycled state.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// True if the event has neither fired nor been cancelled.
  bool pending() const {
    const auto core = core_.lock();
    if (!core) return false;
    const auto& s = core->slot(index_);
    return s.generation == generation_ && !s.cancelled;
  }

  /// O(1): wheel-resident events unlink from their bucket immediately;
  /// events already promoted to the imminent-granule heap are tombstoned.
  void cancel() {
    const auto core = core_.lock();
    if (!core) return;
    core->cancel(index_, generation_);
  }

 private:
  friend class EventLoop;
  TimerHandle(std::weak_ptr<detail::SchedulerCore> core, std::uint32_t index,
              std::uint32_t generation)
      : core_(std::move(core)), index_(index), generation_(generation) {}

  std::weak_ptr<detail::SchedulerCore> core_;
  std::uint32_t index_ = 0;
  std::uint32_t generation_ = 0;
};

/// Deterministic discrete-event loop. Events scheduled for the same instant
/// fire in insertion order (stable FIFO tie-break), which makes every run a
/// pure function of the schedule and keeps protocol traces reproducible.
///
/// Scheduling is a hierarchical timing wheel (see detail::SchedulerCore):
/// schedule and cancel are O(1), and dequeue amortizes to O(1) per event —
/// the wheel cursor jumps straight to the next occupied granule via per-level
/// occupancy bitmaps and drains the whole granule in one sweep into a tiny
/// "near" heap, which restores the exact (at, seq) order *within* the 1024 ns
/// granule. Events across granules are ordered by construction, so the
/// dequeue order is bit-identical to the old global binary heap.
///
/// The steady-state path is allocation-free: callbacks live inline in
/// slab-recycled slots, the wheel's bucket lists are intrusive slot indices,
/// the near-heap holds 24-byte entries in a vector that only ever grows, and
/// the loop carries a BufferPool from which packet payloads are recycled.
/// AllocStats counts the residual heap traffic so tests and benchmarks can
/// assert it reaches zero.
class EventLoop {
 public:
  using Callback = InlineCallback;

  /// Heap-allocation events attributable to the scheduling hot path. In
  /// steady state (slab and near-heap warmed up, callbacks inline) all three
  /// stay constant while executed_events() keeps climbing.
  struct AllocStats {
    std::uint64_t slab_chunks = 0;    // event slab growth (kChunkSize slots each)
    std::uint64_t callback_heap = 0;  // callbacks too large for inline storage
    std::uint64_t heap_growth = 0;    // near-heap vector reallocations
  };

  using SchedStats = detail::SchedulerCore::SchedStats;

  EventLoop() : core_(std::make_shared<detail::SchedulerCore>()) {}
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `at`. Scheduling in the past is clamped
  /// to "now" (fires before any later event).
  TimerHandle schedule_at(TimePoint at, Callback cb);

  /// Schedules `cb` after `delay` from the current simulated time.
  TimerHandle schedule_after(Duration delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Moves a pending event to fire at `at` instead, keeping its callback.
  /// Equivalent to cancel() + schedule_at(at, same-callback) — including the
  /// FIFO seq the event is reassigned — but skips the callback teardown and
  /// rebuild, which makes high-churn rearm patterns (TCP RTO) cheap. Returns
  /// false when the handle is spent (fired/cancelled/foreign loop), in which
  /// case the caller schedules afresh.
  bool reschedule_at(TimerHandle& h, TimePoint at);
  bool reschedule_after(TimerHandle& h, Duration delay) {
    return reschedule_at(h, now_ + delay);
  }

  /// Runs until the event queue is empty or `until` is reached, whichever is
  /// first. Returns the number of events executed.
  std::size_t run(TimePoint until = TimePoint::max());

  /// Executes exactly one event if any is pending. Returns false when idle.
  bool step();

  bool empty() const { return core_->live == 0; }
  /// Number of scheduled events that have neither fired nor been cancelled.
  std::size_t pending_events() const {
    return static_cast<std::size_t>(core_->live);
  }
  std::uint64_t executed_events() const { return executed_; }

  /// Hard stop from inside a callback: run() returns after the current event.
  void stop() { stopped_ = true; }

  /// Monotonic id allocator for objects living in this simulated world
  /// (packet ids, notably). Scoping the counter to the loop keeps ids unique
  /// within a trial, deterministic for a given schedule, and free of shared
  /// state between concurrently running trials.
  std::uint64_t allocate_id() { return ++next_id_; }

  /// Recycler for packet payload buffers. Producers (TcpConnection::emit)
  /// acquire, the terminal consumer of a packet (TcpStack::deliver, drop
  /// paths) releases; scoping the pool to the loop keeps recycling
  /// deterministic and trial-private.
  BufferPool& payload_pool() { return payload_pool_; }

  const AllocStats& alloc_stats() const { return alloc_stats_; }
  /// Wheel work counters (bitmap scans, cascades, O(1) cancels).
  const SchedStats& sched_stats() const { return core_->sched; }

 private:
  /// An event promoted out of the wheel: its granule has been reached and
  /// only the sub-granule (at, seq) order remains to be resolved.
  struct NearEntry {
    TimePoint at;
    std::uint64_t seq;  // insertion order; ties broken FIFO
    std::uint32_t index;
    std::uint32_t generation;
  };
  /// std:: heap ordering predicate: "a fires later than b" puts the earliest
  /// (lowest at, then lowest seq) entry at the front of the max-heap.
  struct Later {
    bool operator()(const NearEntry& a, const NearEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void near_push(TimePoint at, std::uint64_t seq, std::uint32_t index,
                 std::uint32_t generation);
  /// Advances the wheel cursor to the next occupied granule and drains that
  /// granule's bucket into the near-heap. False when the wheel is empty.
  bool refill_near();
  /// Ensures the earliest live event sits at near_.front(), reaping
  /// tombstoned entries. False when no live event remains.
  bool peek_next(TimePoint* at);

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_id_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  std::shared_ptr<detail::SchedulerCore> core_;
  std::vector<NearEntry> near_;
  BufferPool payload_pool_;
  AllocStats alloc_stats_;
};

}  // namespace h2sim::sim
