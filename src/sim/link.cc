#include "sim/link.h"

#include <cassert>
#include <utility>

namespace mdr::sim {

SimLink::SimLink(EventQueue& events, graph::LinkAttr attr,
                 cost::EstimatorKind estimator_kind, double mean_packet_bits,
                 DeliverFn deliver, Options options, Rng rng)
    : events_(&events),
      attr_(attr),
      deliver_(std::move(deliver)),
      options_(options),
      rng_(rng),
      gilbert_(options.gilbert),
      short_estimator_(cost::make_estimator(estimator_kind, attr.capacity_bps,
                                            attr.prop_delay_s,
                                            mean_packet_bits)),
      long_estimator_(cost::make_estimator(estimator_kind, attr.capacity_bps,
                                           attr.prop_delay_s,
                                           mean_packet_bits)),
      short_window_start_(events.now()),
      long_window_start_(events.now()) {}

bool SimLink::enqueue(Packet packet) {
  obs::ProfScope prof(prof_, obs::ProfSection::kLinkEnqueue);
  if (!up_) {
    ++drops_;
    if (packet.kind == Packet::Kind::kData) {
      ++data_dropped_;
    } else {
      // The link is already down; nothing was flushed, the packet was
      // refused at the door. Its own cause keeps the per-cause breakdown
      // honest (down-drops used to masquerade as flush-drops).
      ++control_dropped_down_;
      probe_.emit(obs::EventType::kControlDrop, packet.src, /*cause=*/3, 1);
    }
    return false;
  }
  const bool starts_busy_period =
      !transmitting_ && control_queue_.empty() && data_queue_.empty();
  if (packet.kind == Packet::Kind::kData &&
      options_.queue_limit_bits > 0 &&
      queued_bits_ + packet.size_bits > options_.queue_limit_bits) {
    ++drops_;
    ++data_dropped_;
    return false;
  }
  if (packet.kind == Packet::Kind::kControl &&
      options_.control_queue_limit_bits > 0 &&
      control_queued_bits_ + packet.size_bits >
          options_.control_queue_limit_bits) {
    // Bounded control ingress: the budget counts control bits queued or in
    // service, so a storm sheds here instead of growing without bound.
    ++drops_;
    ++control_dropped_queue_;
    probe_.emit(obs::EventType::kControlDrop, packet.src, /*cause=*/0, 1);
    return false;
  }
  queued_bits_ += packet.size_bits;
  if (packet.kind == Packet::Kind::kControl) {
    control_queued_bits_ += packet.size_bits;
  }
  Queued q{std::move(packet), events_->now(), starts_busy_period};
  if (starts_busy_period) {
    // Fully idle transmitter: go straight into service. Skipping the deque
    // round-trip matters — at queue depth one a push_back/pop_front pair
    // creeps through the deque's blocks and allocates every few packets,
    // which would be the only steady-state allocation left on the hop path.
    begin_service(std::move(q));
    return true;
  }
  auto& queue = q.packet.kind == Packet::Kind::kControl ? control_queue_
                                                        : data_queue_;
  queue.push_back(std::move(q));
  if (!transmitting_) start_transmission();
  return true;
}

void SimLink::start_transmission() {
  assert(!transmitting_);
  assert(!control_queue_.empty() || !data_queue_.empty());
  // Pin the packet in service now: a control arrival during a data
  // transmission must not reorder what completes.
  auto& queue = control_queue_.empty() ? data_queue_ : control_queue_;
  Queued q = std::move(queue.front());
  queue.pop_front();
  begin_service(std::move(q));
}

void SimLink::begin_service(Queued q) {
  assert(!transmitting_);
  transmitting_ = true;
  in_service_ = std::move(q);
  const double service =
      (in_service_->packet.size_bits + kHeaderBits) / attr_.capacity_bps;
  events_->schedule_transmit_complete(service, this, epoch_);
}

void SimLink::finish_transmission() {
  assert(transmitting_);
  assert(in_service_.has_value());
  Queued q = std::move(*in_service_);
  in_service_.reset();
  queued_bits_ -= q.packet.size_bits;
  if (q.packet.kind == Packet::Kind::kControl) {
    control_queued_bits_ -= q.packet.size_bits;
  }
  transmitting_ = false;

  const double service =
      (q.packet.size_bits + kHeaderBits) / attr_.capacity_bps;
  busy_time_ += service;

  cost::PacketObservation obs;
  obs.arrival_time = q.enqueued;
  obs.departure_time = events_->now();
  obs.service_time = service;
  obs.size_bits = q.packet.size_bits + kHeaderBits;
  // Decided when the packet arrived (Queued::starts_busy_period), not
  // re-derived from departure - arrival: a back-to-back arrival at the
  // exact instant a transmission completes has zero waiting time but did
  // NOT start a busy period.
  obs.started_busy_period = q.starts_busy_period;
  if (q.starts_busy_period) ++busy_periods_;
  short_estimator_->observe(obs);
  long_estimator_->observe(obs);

  if (q.packet.kind == Packet::Kind::kControl) {
    ++control_packets_;
    control_bits_ += obs.size_bits;
  } else {
    ++data_packets_;
    data_bits_ += obs.size_bits;
  }

  // Both loss processes are always evaluated (no short-circuit): the
  // Gilbert–Elliott chain must step on every packet to keep its burst
  // structure, whatever the i.i.d. draw said.
  bool lost = options_.loss_rate > 0 && rng_.bernoulli(options_.loss_rate);
  if (options_.gilbert.enabled() && gilbert_.lose(rng_)) lost = true;
  if (lost) {
    ++drops_;  // corrupted on the wire
    if (q.packet.kind == Packet::Kind::kData) {
      ++data_dropped_;
    } else {
      ++control_dropped_wire_;
      probe_.emit(obs::EventType::kControlDrop, q.packet.src, /*cause=*/1, 1);
    }
  } else {
    const bool control = q.packet.kind == Packet::Kind::kControl;
    Duration delay = attr_.prop_delay_s;
    if (control && options_.reorder_rate > 0 &&
        rng_.bernoulli(options_.reorder_rate)) {
      // Enough extra latency that packets transmitted later routinely
      // overtake this one.
      delay += attr_.prop_delay_s * rng_.uniform(1.0, 4.0);
    }
    if (control && options_.corrupt_rate > 0 &&
        rng_.bernoulli(options_.corrupt_rate) && !q.packet.payload.empty()) {
      const auto bit = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<int>(q.packet.payload.size()) * 8 - 1));
      q.packet.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    if (control && options_.duplicate_rate > 0 &&
        rng_.bernoulli(options_.duplicate_rate)) {
      schedule_delivery(q.packet, delay);
    }
    schedule_delivery(std::move(q.packet), delay);
  }

  if (!control_queue_.empty() || !data_queue_.empty()) start_transmission();
}

void SimLink::schedule_delivery(Packet packet, Duration delay) {
  ++(packet.kind == Packet::Kind::kData ? wire_sent_data_
                                        : wire_sent_control_);
  if (!keyed_wire_) {
    events_->schedule_delivery(delay, this, epoch_, std::move(packet));
    return;
  }
  // Keyed wire: a canonical (link, wire seq) key orders this delivery
  // identically for every shard count, and the event executes on the
  // destination node's shard — directly when that is our own queue, through
  // the handoff channel when it is not.
  const std::uint64_t key = delivery_key(link_id_, wire_seq_++);
  const Time at = events_->now() + delay;
  if (dest_queue_ != nullptr) {
    dest_queue_->schedule_delivery_keyed(at, this, epoch_, std::move(packet),
                                         key);
  } else {
    channel_->push(HandoffItem{at, key, this, epoch_, std::move(packet)});
  }
}

void SimLink::handle_delivery(std::uint64_t epoch, Packet packet) {
  if (epoch != epoch_) return;  // link failed en route
  obs::ProfScope prof(deliver_prof_, obs::ProfSection::kLinkDeliver);
  ++(packet.kind == Packet::Kind::kData ? wire_delivered_data_
                                        : wire_delivered_control_);
  deliver_(std::move(packet));
}

void SimLink::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up) {
    // Everything queued or in flight is lost; outstanding completion and
    // delivery events are invalidated by the epoch bump. Packets already
    // propagating count as drops too — otherwise they leak out of the
    // conservation ledger (injected == delivered + dropped + in transit).
    // The wire ledger settles by moving the in-flight remainder to
    // `flushed` (never by decrementing `sent`), which keeps every counter
    // single-writer in sharded mode.
    const std::uint64_t data_in_flight = in_flight_data_packets();
    const std::uint64_t control_in_flight =
        wire_sent_control_ - wire_delivered_control_ - wire_flushed_control_;
    wire_flushed_data_ += data_in_flight;
    wire_flushed_control_ += control_in_flight;
    data_dropped_ += queued_data_packets() + data_in_flight;
    const std::uint64_t control_flushed =
        control_queue_.size() +
        (in_service_.has_value() &&
                 in_service_->packet.kind == Packet::Kind::kControl
             ? 1
             : 0) +
        control_in_flight;
    control_dropped_flush_ += control_flushed;
    if (control_flushed > 0) {
      probe_.emit(obs::EventType::kControlDrop, graph::kInvalidNode,
                  /*cause=*/2, static_cast<double>(control_flushed));
    }
    drops_ += control_queue_.size() + data_queue_.size() +
              (in_service_.has_value() ? 1 : 0) + data_in_flight +
              control_in_flight;
    control_queue_.clear();
    data_queue_.clear();
    in_service_.reset();
    queued_bits_ = 0;
    control_queued_bits_ = 0;
    transmitting_ = false;
    ++epoch_;
  }
}

double SimLink::take_short_estimate() {
  assert(events_->now() > short_window_start_);
  const double est =
      short_estimator_->estimate(short_window_start_, events_->now());
  short_estimator_->reset();
  short_window_start_ = events_->now();
  return est;
}

double SimLink::take_long_estimate() {
  assert(events_->now() > long_window_start_);
  const double est =
      long_estimator_->estimate(long_window_start_, events_->now());
  long_estimator_->reset();
  long_window_start_ = events_->now();
  return est;
}

// ------------------------------------------------------------ checkpointing

namespace {

void save_queued(ckpt::Writer& w, const Packet& packet, Time enqueued,
                 bool starts_busy_period) {
  save_packet(w, packet);
  w.f64(enqueued);
  w.b(starts_busy_period);
}

}  // namespace

void SimLink::save(ckpt::Writer& w) const {
  w.mark(0x11);
  rng_.save(w);
  gilbert_.save(w);
  const auto save_queue = [&w](const std::deque<Queued>& q) {
    w.u64(q.size());
    for (const Queued& e : q) {
      save_queued(w, e.packet, e.enqueued, e.starts_busy_period);
    }
  };
  save_queue(control_queue_);
  save_queue(data_queue_);
  w.b(in_service_.has_value());
  if (in_service_.has_value()) {
    save_queued(w, in_service_->packet, in_service_->enqueued,
                in_service_->starts_busy_period);
  }
  w.f64(queued_bits_);
  w.f64(control_queued_bits_);
  w.b(transmitting_);
  w.b(up_);
  w.u64(epoch_);
  short_estimator_->save(w);
  long_estimator_->save(w);
  w.f64(short_window_start_);
  w.f64(long_window_start_);
  w.u64(data_packets_);
  w.u64(control_packets_);
  w.f64(data_bits_);
  w.f64(control_bits_);
  w.u64(drops_);
  w.u64(data_dropped_);
  w.u64(control_dropped_queue_);
  w.u64(control_dropped_wire_);
  w.u64(control_dropped_flush_);
  w.u64(control_dropped_down_);
  w.u64(busy_periods_);
  w.u64(wire_sent_data_);
  w.u64(wire_sent_control_);
  w.u64(wire_delivered_data_);
  w.u64(wire_delivered_control_);
  w.u64(wire_flushed_data_);
  w.u64(wire_flushed_control_);
  w.f64(busy_time_);
  w.u64(wire_seq_);
}

void SimLink::load(ckpt::Reader& r) {
  r.expect_mark(0x11);
  rng_.load(r);
  gilbert_.load(r);
  const auto load_queue = [&r](std::deque<Queued>& q) {
    q.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      Queued e;
      e.packet = load_packet(r);
      e.enqueued = r.f64();
      e.starts_busy_period = r.b();
      q.push_back(std::move(e));
    }
  };
  load_queue(control_queue_);
  load_queue(data_queue_);
  in_service_.reset();
  if (r.b()) {
    Queued e;
    e.packet = load_packet(r);
    e.enqueued = r.f64();
    e.starts_busy_period = r.b();
    in_service_ = std::move(e);
  }
  queued_bits_ = r.f64();
  control_queued_bits_ = r.f64();
  transmitting_ = r.b();
  up_ = r.b();
  epoch_ = r.u64();
  short_estimator_->load(r);
  long_estimator_->load(r);
  short_window_start_ = r.f64();
  long_window_start_ = r.f64();
  data_packets_ = r.u64();
  control_packets_ = r.u64();
  data_bits_ = r.f64();
  control_bits_ = r.f64();
  drops_ = r.u64();
  data_dropped_ = r.u64();
  control_dropped_queue_ = r.u64();
  control_dropped_wire_ = r.u64();
  control_dropped_flush_ = r.u64();
  control_dropped_down_ = r.u64();
  busy_periods_ = r.u64();
  wire_sent_data_ = r.u64();
  wire_sent_control_ = r.u64();
  wire_delivered_data_ = r.u64();
  wire_delivered_control_ = r.u64();
  wire_flushed_data_ = r.u64();
  wire_flushed_control_ = r.u64();
  busy_time_ = r.f64();
  wire_seq_ = r.u64();
}

}  // namespace mdr::sim
