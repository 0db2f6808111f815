// Discrete-event simulation core: a time-ordered event queue.
//
// Events scheduled for the same instant execute in schedule order (stable
// FIFO tie-break), which keeps runs exactly reproducible for a given seed.
//
// The hot path is typed and pooled: the high-frequency simulation events
// (link transmission complete, packet delivery, traffic-source emission,
// node protocol timers) are small tagged records drawn from a free-list
// pool, so the steady-state packet path performs no heap allocation per
// hop. A std::function fallback remains for low-rate control events
// (node bring-up, tests).
//
// Two containers hold pending events, both ordered by (time, seq):
//
//  * a 4-ary implicit heap of 24-byte {time, seq, record} slots — shallower
//    and more cache-friendly than the former std::priority_queue of
//    std::function events;
//  * a hashed timer wheel for the high-multiplicity periodic timers
//    (hello, Ts/Tl, retransmit, pacing). Wheel entries cascade
//    into the heap strictly before their due time, so the global execution
//    order is exactly the (time, seq) order of one merged queue and
//    same-seed runs stay bit-identical to a heap-only core.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "ckpt/ckpt.h"
#include "obs/prof.h"
#include "sim/packet.h"
#include "util/time.h"

namespace mdr::sim {

class SimLink;
class SimNode;
class TrafficSource;

/// Translation layer between an EventQueue's pointer-based records and the
/// index-based checkpoint representation. The owning simulator supplies
/// stable entity indices (links/nodes/sources in construction order) and a
/// factory that rebuilds a tagged callback from its (tag, a, b) descriptor —
/// the tag namespace is owned by the simulator (sim/network_sim.cc).
struct EventQueueCodec {
  std::function<std::uint64_t(const SimLink*)> link_index;
  std::function<SimLink*(std::uint64_t)> link_at;
  std::function<std::uint64_t(const SimNode*)> node_index;
  std::function<SimNode*(std::uint64_t)> node_at;
  std::function<std::uint64_t(const TrafficSource*)> source_index;
  std::function<TrafficSource*(std::uint64_t)> source_at;
  std::function<std::function<void()>(std::uint8_t tag, std::uint64_t a,
                                      double b)>
      make_callback;
};

/// What a timer is for. One typed scheduling surface replaces the former
/// per-purpose schedule_timer_* entry points: protocol timers (node-bound,
/// boot-guarded) and generic callbacks all declare their class, so
/// per-class schedule counts are observable (timers_scheduled()). Global
/// observers (monitor, LFI, sampler, stability) are not queue timers at
/// all: they run as coordinator pauses between engine windows.
enum class TimerClass : std::uint8_t {
  kHello,       ///< hello protocol tick (node timer)
  kShortTerm,   ///< Ts measurement window (node timer)
  kLongTerm,    ///< Tl measurement window (node timer)
  kRetransmit,  ///< LSU reliable-flooding resend (node timer)
  kPacing,      ///< LSU origination pacing flush (node timer)
  kGeneric,     ///< any callback parked on the wheel
};
inline constexpr std::size_t kNumTimerClasses = 6;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  Time now() const { return now_; }

  /// Stable pointer to the clock, for consumers that need to read the
  /// current time without holding the queue (obs::Probe, ScopedLogClock).
  const Time* now_ptr() const { return &now_; }

  // --- generic events (std::function fallback) -----------------------------

  /// Schedules `fn` at absolute time `t` (>= now).
  void schedule_at(Time t, Callback fn);

  /// Schedules `fn` after `delay` seconds (>= 0).
  void schedule_in(Duration delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Tagged variant: `tag` (nonzero) plus the `a`/`b` descriptor payload let
  /// save()/load() round-trip the event — the owning simulator rebuilds the
  /// closure from the descriptor at restore time. Untagged callback events
  /// still pending at a checkpoint make save() throw, so nothing silently
  /// vanishes across a resume.
  void schedule_at(Time t, Callback fn, std::uint8_t tag, std::uint64_t a = 0,
                   double b = 0);

  // --- timers (the unified typed surface) ----------------------------------

  /// Schedules `fn` at absolute `t` on the timer wheel: same semantics as
  /// schedule_at, but periodic low-rate timers parked here stop churning
  /// the main heap. `cls` tags the timer for auditing (timers_scheduled()).
  void schedule_timer(TimerClass cls, Time t, Callback fn);

  /// Tagged variant (see the tagged schedule_at): checkpointable timer
  /// callback with a (tag, a, b) rebuild descriptor.
  void schedule_timer(TimerClass cls, Time t, Callback fn, std::uint8_t tag,
                      std::uint64_t a = 0, double b = 0);

  void schedule_timer_in(TimerClass cls, Duration delay, Callback fn) {
    schedule_timer(cls, now_ + delay, std::move(fn));
  }

  /// Schedules a node protocol timer after `delay`, parked on the timer
  /// wheel. The class selects the SimNode tick method (hello, Ts, Tl,
  /// retransmit, pacing); the boot guard drops timers of a crashed
  /// incarnation. `cls` must name a node-timer class.
  void schedule_timer(TimerClass cls, Duration delay, SimNode* node,
                      std::uint64_t boot);

  /// Timers ever scheduled under `cls` (audit counter for the typed API).
  std::uint64_t timers_scheduled(TimerClass cls) const {
    return timer_counts_[static_cast<std::size_t>(cls)];
  }

  // --- compat shims (pre-TimerClass spellings) -----------------------------

  void schedule_timer_at(Time t, Callback fn) {
    schedule_timer(TimerClass::kGeneric, t, std::move(fn));
  }

  void schedule_timer_in(Duration delay, Callback fn) {
    schedule_timer(TimerClass::kGeneric, now_ + delay, std::move(fn));
  }

  // --- typed pooled events (the packet hot path) ---------------------------

  /// Link finishes transmitting its in-service packet after `delay`.
  /// Dispatches SimLink::handle_transmit_complete(epoch); the epoch guard
  /// cancels completions that outlive a link failure.
  void schedule_transmit_complete(Duration delay, SimLink* link,
                                  std::uint64_t epoch);

  /// Packet fully propagates after `delay`. Dispatches
  /// SimLink::handle_delivery(epoch, packet).
  void schedule_delivery(Duration delay, SimLink* link, std::uint64_t epoch,
                         Packet packet);

  /// Sharded-engine delivery: schedules at absolute `t` under an explicit
  /// ordering key instead of the local FIFO seq. Keys carry bit 63 (see
  /// sim/parallel_engine.h), so at equal timestamps deliveries order after
  /// every locally-sequenced event and among themselves by (link, wire
  /// FIFO) — the canonical order that makes results independent of how the
  /// network is sharded.
  void schedule_delivery_keyed(Time t, SimLink* link, std::uint64_t epoch,
                               Packet packet, std::uint64_t key);

  /// Traffic-source event at absolute `t` (next arrival, burst boundary).
  /// Dispatches TrafficSource::handle_source_event(op, arg).
  void schedule_source_event(Time t, TrafficSource* source, std::uint8_t op,
                             double arg);

  /// Low-level node-timer primitive (compat shim; prefer the TimerClass
  /// overload, which resolves the method from the class). Dispatches
  /// SimNode::handle_timer(boot, method); the boot guard drops timers of a
  /// crashed incarnation.
  void schedule_node_timer(Duration delay, SimNode* node, std::uint64_t boot,
                           void (SimNode::*method)());

  // --- execution -----------------------------------------------------------

  /// Executes the earliest event; false if the queue is empty.
  bool run_next();

  /// Executes every event with time <= `t`, then advances the clock to `t`.
  void run_until(Time t);

  /// Executes every event with time strictly < `t`, then advances the clock
  /// to `t` (events at exactly `t` stay pending). The sharded engine runs
  /// lookahead windows with this bound: a window ending at W may not touch
  /// events at W itself, because a cross-shard packet can legally arrive
  /// exactly at W.
  void run_until_strict(Time t);

  /// Exact earliest pending event time if it is <= `bound`, +infinity
  /// otherwise (timer-wheel entries due before `bound` are cascaded so the
  /// answer is exact). The shard coordinator sizes windows with this.
  Time next_event_before(Time bound);

  void run_for(Duration d) { run_until(now_ + d); }

  bool empty() const { return heap_.empty() && wheel_count_ == 0; }
  std::size_t pending() const { return heap_.size() + wheel_count_; }
  std::size_t processed() const { return processed_; }

  // --- introspection (tests, benches) --------------------------------------

  /// Traffic-source events currently pending. Sources never schedule past
  /// their stop time, so after the post-run drain this must be zero.
  std::size_t pending_source_events() const { return live_source_events_; }

  /// Event records ever allocated (pool high-water mark). Flat across a
  /// steady state — records are recycled through the free list.
  std::size_t pool_records() const { return pool_.size(); }

  std::size_t heap_pending() const { return heap_.size(); }
  std::size_t wheel_pending() const { return wheel_count_; }

  // --- profiling -----------------------------------------------------------

  /// Attaches a wall-clock profiler: every dispatched record is then timed
  /// under its kind's dispatch.* section. Null (the default) keeps the
  /// dispatch loop on the usual branch-only fast path.
  void set_profiler(obs::Profiler* p) { prof_ = p; }

  // --- checkpointing -------------------------------------------------------

  /// Serializes the complete queue: clock, seq counter, the record pool with
  /// its free list, heap slots, timer-wheel buckets and the cascade cursor —
  /// a restored queue replays the exact same (time, seq) event order.
  /// Throws ckpt::Error if an untagged callback event is pending.
  void save(ckpt::Writer& w, const EventQueueCodec& codec) const;
  void load(ckpt::Reader& r, const EventQueueCodec& codec);

 private:
  enum class Kind : std::uint8_t {
    kCallback,          ///< generic std::function fallback
    kTransmitComplete,  ///< SimLink finished serializing a packet
    kDeliver,           ///< packet reached the far end of a link
    kSourceEmit,        ///< traffic source arrival / burst boundary
    kNodeTimer,         ///< SimNode periodic protocol timer
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Pooled event record: one tagged union-of-payloads. Records live in a
  /// stable deque and are recycled through an intrusive free list; `packet`
  /// and `fn` keep no heap state between uses (moved out at dispatch).
  struct Record {
    Time time = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::kCallback;
    std::uint8_t op = 0;           ///< kSourceEmit: source-defined opcode
    std::uint32_t next_free = kNil;
    std::uint64_t epoch = 0;       ///< link epoch / node boot guard
    double arg = 0;                ///< kSourceEmit: source-defined payload
    void* target = nullptr;        ///< SimLink* / SimNode* / TrafficSource*
    void (SimNode::*method)() = nullptr;  ///< kNodeTimer
    Packet packet;                 ///< kDeliver
    Callback fn;                   ///< kCallback
  };

  /// Heap slot: the ordering key plus the pool index. Small and trivially
  /// copyable so sift operations move 24 bytes, never a closure.
  struct HeapSlot {
    Time time;
    std::uint64_t seq;
    std::uint32_t rec;
  };

  static bool earlier(const HeapSlot& a, const HeapSlot& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Wheel geometry: 256 slots of 1/16 s cover 16 s per revolution — every
  // periodic protocol timer (hello ~1 s, Ts 2 s, Tl 10 s, retransmit 1 s)
  // lands within one revolution. Longer timers simply survive a cascade
  // scan per revolution. The tick is a power of two so bucket arithmetic
  // is exact in doubles.
  static constexpr std::size_t kWheelSlots = 256;
  static constexpr double kWheelTick = 1.0 / 16.0;

  static std::int64_t bucket(Time t) {
    return static_cast<std::int64_t>(t / kWheelTick);
  }

  std::uint32_t alloc_record(Time t, Kind kind);
  void release_record(std::uint32_t idx);
  void push_heap(std::uint32_t idx);
  void push_wheel(std::uint32_t idx);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Moves every wheel entry that could precede `bound` (or the current
  /// heap top) into the heap, maintaining the cascade invariant: all wheel
  /// entries in buckets < next_cascade_slot_ are already in the heap.
  void cascade_until(Time bound);
  void dispatch_top();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;

  std::deque<Record> pool_;      ///< stable storage; indexed by HeapSlot::rec
  std::uint32_t free_head_ = kNil;

  std::vector<HeapSlot> heap_;   ///< 4-ary implicit min-heap on (time, seq)

  std::array<std::vector<std::uint32_t>, kWheelSlots> wheel_;
  std::int64_t next_cascade_slot_ = 0;
  std::size_t wheel_count_ = 0;

  std::size_t live_source_events_ = 0;

  obs::Profiler* prof_ = nullptr;

  std::array<std::uint64_t, kNumTimerClasses> timer_counts_{};
};

}  // namespace mdr::sim
