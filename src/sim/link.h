// Simulated directed link: a transmitter with a strict-priority queue
// (control before data), propagation delay, per-window measurement hooks for
// the marginal-delay estimators, and running statistics.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "cost/estimators.h"
#include "fault/gilbert.h"
#include "graph/topology.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "sim/parallel_engine.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mdr::sim {

class SimLink {
 public:
  /// `deliver` fires when a packet fully arrives at the far end.
  using DeliverFn = std::function<void(Packet)>;

  struct Options {
    double queue_limit_bits = 0;  ///< data-queue bound; 0 = unbounded (paper)
    /// Separate budget for the strict-priority control queue (bits queued or
    /// in service). 0 = unbounded, the seed behavior. A finite budget models
    /// a router that bounds its control ingress: during an update storm the
    /// excess is shed here — with per-cause accounting — instead of growing
    /// without bound, and the protocol's retransmission machinery recovers
    /// whatever mattered.
    double control_queue_limit_bits = 0;
    /// Independent per-packet loss probability applied after transmission
    /// (a noisy medium). Control traffic is equally affected — MPDA's
    /// retransmission machinery is what keeps routing correct under loss.
    double loss_rate = 0;
    /// Gilbert–Elliott bursty loss (fault/gilbert.h), composed with
    /// loss_rate: a packet is lost when either process says so. The chain
    /// is stepped for every packet regardless of the i.i.d. outcome.
    fault::GilbertParams gilbert;
    /// Control-plane chaos (fault::ControlChaos semantics). Applied to
    /// control packets only, after a successful transmission; data packets
    /// are never corrupted, duplicated or reordered.
    double corrupt_rate = 0;    ///< P(flip one random payload bit)
    double duplicate_rate = 0;  ///< P(deliver a second copy)
    double reorder_rate = 0;    ///< P(extra propagation delay -> reorder)
  };

  SimLink(EventQueue& events, graph::LinkAttr attr,
          cost::EstimatorKind estimator_kind, double mean_packet_bits,
          DeliverFn deliver)
      : SimLink(events, attr, estimator_kind, mean_packet_bits,
                std::move(deliver), Options{}, Rng(0)) {}

  SimLink(EventQueue& events, graph::LinkAttr attr,
          cost::EstimatorKind estimator_kind, double mean_packet_bits,
          DeliverFn deliver, Options options, Rng rng = Rng(0));

  /// Queues a packet for transmission; control packets bypass data.
  /// Returns false when dropped at a full queue.
  bool enqueue(Packet packet);

  bool up() const { return up_; }
  /// Failing a link discards everything queued or in flight.
  void set_up(bool up);

  const graph::LinkAttr& attr() const { return attr_; }

  // --- measurement (two independent windows: Ts and Tl) -------------------

  /// Short-window marginal-delay estimate; resets the short window.
  double take_short_estimate();
  /// Long-window marginal-delay estimate; resets the long window.
  double take_long_estimate();

  // --- statistics ----------------------------------------------------------

  std::uint64_t data_packets() const { return data_packets_; }
  std::uint64_t control_packets() const { return control_packets_; }
  double data_bits() const { return data_bits_; }
  double control_bits() const { return control_bits_; }
  std::uint64_t drops() const { return drops_; }
  /// Data packets dropped on this link, from any cause (full queue, wire
  /// loss, link failure flushing the queue or the propagation pipe). Part
  /// of the monitor's packet-conservation ledger.
  std::uint64_t data_dropped() const { return data_dropped_; }
  /// Control packets dropped on this link, from any cause — the mirror of
  /// data_dropped() the seed never kept (control drops were folded into the
  /// generic drops_). Split by cause below; feeds the monitor's
  /// control-starvation watchdog.
  std::uint64_t control_dropped() const {
    return control_dropped_queue_ + control_dropped_wire_ +
           control_dropped_flush_ + control_dropped_down_;
  }
  /// ... at a full control-queue budget (control_queue_limit_bits).
  std::uint64_t control_dropped_queue() const {
    return control_dropped_queue_;
  }
  /// ... lost on the wire (i.i.d. or Gilbert–Elliott loss).
  std::uint64_t control_dropped_wire() const { return control_dropped_wire_; }
  /// ... flushed by a link failure (queued, in service, or in flight when
  /// the link went down).
  std::uint64_t control_dropped_flush() const {
    return control_dropped_flush_;
  }
  /// ... offered to a link that was already down. Distinct from flush: a
  /// flush destroys packets the link had accepted, a down-drop refuses new
  /// ones, so the two point at different problems in a trace.
  std::uint64_t control_dropped_down() const { return control_dropped_down_; }
  /// Busy periods started on this link: packets that arrived to a fully
  /// idle transmitter (the estimators' IPA segmentation).
  std::uint64_t busy_periods() const { return busy_periods_; }
  /// Data packets currently queued or in service (not yet on the wire).
  std::uint64_t queued_data_packets() const {
    return data_queue_.size() +
           (in_service_.has_value() &&
                    in_service_->packet.kind == Packet::Kind::kData
                ? 1
                : 0);
  }
  /// Data packets transmitted and currently propagating toward the far end.
  /// Derived from the sent/delivered/flushed wire ledger: in sharded mode
  /// the three counters have disjoint single-writer shards (sent by the
  /// owning shard, delivered by the destination shard, flushed at window
  /// barriers), so no counter is ever decremented across threads.
  std::uint64_t in_flight_data_packets() const {
    return wire_sent_data_ - wire_delivered_data_ - wire_flushed_data_;
  }
  double utilization_estimate(Time horizon) const {
    return horizon > 0 ? busy_time_ / horizon : 0;
  }
  /// Cumulative seconds this link spent transmitting (telemetry: windowed
  /// utilization is the busy-time delta over the window).
  double busy_time() const { return busy_time_; }
  /// Bits currently queued or in service (data + control).
  double queued_bits() const { return queued_bits_; }

  /// Attaches a flight-recorder probe (control-drop events, stamped with the
  /// receiving node's id). Off by default; one branch per drop when off.
  void set_probe(const obs::Probe& probe) { probe_ = probe; }

  /// Attaches the wall-clock profiler (packet-path sections). `owner` times
  /// enqueue admission + service start and belongs to the transmitter's
  /// shard; `dest` times the delivery hand-up, which executes on the far
  /// end's shard (the same instance when both ends share a shard). Two
  /// pointers so each profiler stays single-threaded. Off by default; one
  /// branch per packet when off.
  void set_prof(obs::Profiler* owner, obs::Profiler* dest) {
    prof_ = owner;
    deliver_prof_ = dest;
  }

  /// Switches the wire to the engine's keyed operation: every delivery is
  /// scheduled under a canonical (link id, wire seq) key — into
  /// `dest_queue` when the far end lives on the same shard, through
  /// `channel` otherwise (exactly one of the two must be non-null).
  /// handle_delivery then executes on the DESTINATION shard; the owning
  /// shard keeps every other field. NetworkSim wires every link this way;
  /// a standalone link (tests, benches) keeps the plain FIFO wire.
  void use_keyed_wire(graph::LinkId id, EventQueue* dest_queue,
                      HandoffChannel* channel) {
    assert((dest_queue != nullptr) != (channel != nullptr));
    link_id_ = id;
    dest_queue_ = dest_queue;
    channel_ = channel;
    keyed_wire_ = true;
  }

  /// Wire ledger (tests): data packets ever put on the wire.
  std::uint64_t wire_sent_data() const { return wire_sent_data_; }

  // --- typed-event dispatch (EventQueue only) ------------------------------

  /// The in-service packet finished serializing. Ignored when `epoch` is
  /// stale: the link failed after the event was scheduled.
  void handle_transmit_complete(std::uint64_t epoch) {
    if (epoch == epoch_) finish_transmission();
  }

  /// `packet` fully propagated to the far end. Ignored when `epoch` is
  /// stale (the packet was lost to a link failure en route).
  void handle_delivery(std::uint64_t epoch, Packet packet);

  // --- checkpointing -------------------------------------------------------

  /// Checkpoints all mutable link state: queues, the in-service packet, the
  /// loss chains' RNG/Markov state, estimator windows, statistics counters
  /// and the wire ledger. Configuration (attr, options, delivery callback,
  /// shard wiring) is reconstructed by the owning simulator before load().
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);

 private:
  struct Queued;
  void start_transmission();
  void begin_service(Queued q);
  void finish_transmission();
  void schedule_delivery(Packet packet, Duration delay);

  EventQueue* events_;
  graph::LinkAttr attr_;
  DeliverFn deliver_;
  Options options_;
  Rng rng_;
  fault::GilbertChannel gilbert_;

  struct Queued {
    Packet packet;
    Time enqueued;
    /// The link was fully idle (nothing in service, nothing queued) when
    /// this packet arrived. Decided at enqueue time and carried through to
    /// the estimator observation — re-deriving it at departure from float
    /// arithmetic misclassifies arrivals that land exactly when the
    /// previous transmission completes.
    bool starts_busy_period = false;
  };
  std::deque<Queued> control_queue_;
  std::deque<Queued> data_queue_;
  std::optional<Queued> in_service_;
  double queued_bits_ = 0;
  double control_queued_bits_ = 0;  ///< control share of queued_bits_
  bool transmitting_ = false;
  bool up_ = true;
  std::uint64_t epoch_ = 0;  ///< bumped on set_up(false): cancels in-flight

  std::unique_ptr<cost::MarginalDelayEstimator> short_estimator_;
  std::unique_ptr<cost::MarginalDelayEstimator> long_estimator_;
  Time short_window_start_ = 0;
  Time long_window_start_ = 0;

  std::uint64_t data_packets_ = 0;
  std::uint64_t control_packets_ = 0;
  double data_bits_ = 0;
  double control_bits_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t data_dropped_ = 0;
  std::uint64_t control_dropped_queue_ = 0;
  std::uint64_t control_dropped_wire_ = 0;
  std::uint64_t control_dropped_flush_ = 0;
  std::uint64_t control_dropped_down_ = 0;
  std::uint64_t busy_periods_ = 0;
  // Wire ledger: in flight = sent - delivered - flushed. Split this way so
  // sharded mode never decrements a counter from another shard's thread —
  // `delivered` belongs to the destination shard, everything else to the
  // owner, and cross-shard reads happen only at window barriers.
  std::uint64_t wire_sent_data_ = 0;
  std::uint64_t wire_sent_control_ = 0;
  std::uint64_t wire_delivered_data_ = 0;     ///< destination-shard writes
  std::uint64_t wire_delivered_control_ = 0;  ///< destination-shard writes
  std::uint64_t wire_flushed_data_ = 0;
  std::uint64_t wire_flushed_control_ = 0;
  double busy_time_ = 0;
  obs::Probe probe_;
  obs::Profiler* prof_ = nullptr;          ///< transmitter-shard sections
  obs::Profiler* deliver_prof_ = nullptr;  ///< destination-shard delivery

  // Keyed wire (use_keyed_wire); unused by a standalone link.
  bool keyed_wire_ = false;
  graph::LinkId link_id_ = graph::kInvalidLink;
  EventQueue* dest_queue_ = nullptr;   ///< same-shard destination queue
  HandoffChannel* channel_ = nullptr;  ///< cross-shard handoff
  std::uint64_t wire_seq_ = 0;         ///< per-link delivery-key sequence
};

}  // namespace mdr::sim
