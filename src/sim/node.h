// Simulated router node: embeds an MpRouter (MP or SP mode) or a static
// routing-parameter table (the installed-OPT baseline), forwards data
// packets by weighted next-hop choice, exchanges LSUs in-band, and drives
// the Ts/Tl measurement timers of Section 4.2.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/mp_router.h"
#include "cost/smoother.h"
#include "proto/damping.h"
#include "proto/hello.h"
#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/packet.h"
#include "util/rng.h"

namespace mdr::sim {

enum class RoutingMode {
  kMultipath,   ///< MP: MPDA + IH/AH (the paper's contribution)
  kSinglePath,  ///< SP: MP restricted to the best successor (paper baseline)
  kStatic,      ///< fixed phi installed up front (used for OPT's parameters)
};

struct NodeOptions {
  RoutingMode mode = RoutingMode::kMultipath;
  Duration tl = 10.0;  ///< long-term (routing path) update interval
  Duration ts = 2.0;   ///< short-term (routing parameter) update interval
  double ah_damping = 0.5;  ///< see MpRouterOptions::ah_damping
  double mean_packet_bits = 8e3;
  /// Realize phi by smooth weighted round-robin (deterministic) instead of
  /// i.i.d. weighted-random next hops.
  bool wrr_forwarding = false;
  cost::DualTimescaleCost::Options smoothing{};
  /// Run the hello protocol beneath routing: adjacencies come up only after
  /// the 2-way check, and silent link failures are detected by the dead
  /// interval instead of assumed-signaled. Off by default (the paper's
  /// model signals failures directly).
  bool use_hello = false;
  proto::HelloProtocol::Options hello{};
  /// Period of the LSU retransmission timer (reliable flooding); only
  /// matters on lossy transports, a no-op otherwise.
  Duration lsu_retransmit_interval = 1.0;
  /// LSU origination pacing (core/mpda.h). Off by default; when enabled a
  /// dedicated pacing timer of min_interval flushes coalesced cost changes.
  core::LsuPacing pacing{};
  /// Link-flap damping over hello adjacency events (proto/damping.h).
  /// Requires use_hello; off by default.
  proto::FlapDamper::Options damping{};
};

struct NodeCallbacks {
  /// A data packet reached its destination.
  std::function<void(const Packet&, Duration delay)> delivered;
  /// A data packet was discarded (no route or TTL exhausted).
  std::function<void(const Packet&)> dropped;
};

class SimNode final : public proto::LsuSink {
 public:
  SimNode(EventQueue& events, graph::NodeId id, std::size_t num_nodes,
          NodeOptions options, Rng rng, NodeCallbacks callbacks);

  graph::NodeId id() const { return id_; }

  /// Registers the outgoing link to `neighbor` (before start()).
  void attach_link(graph::NodeId neighbor, SimLink* link);

  /// kStatic only: installs the forwarding choices for one destination.
  void set_static_choices(graph::NodeId dest,
                          std::vector<core::ForwardingChoice> choices);

  /// Brings up all attached links in the routing protocol and starts the
  /// Ts/Tl timers (randomly phased, as the paper prescribes).
  void start();

  /// Entry point for packets arriving from a link (or injected by a source).
  void receive(Packet packet);

  /// Adjacency change notifications from the physical layer.
  void neighbor_link_failed(graph::NodeId neighbor);
  void neighbor_link_restored(graph::NodeId neighbor);

  // --- crash/recover lifecycle ---------------------------------------------

  /// The router process dies: every pending timer of this incarnation is
  /// invalidated (boot-epoch guard) and arriving packets are eaten. All
  /// protocol state is discarded on the subsequent recover(). No-op when
  /// already dead or in static mode.
  void crash();

  /// Reboot: routing state is rebuilt from nothing, the hello protocol
  /// restarts under a new generation number (so peers detect the reboot
  /// even when the outage was shorter than their dead interval), and all
  /// timers restart with fresh random phases.
  void recover();

  bool alive() const { return alive_; }

  // --- LsuSink -------------------------------------------------------------
  void send(graph::NodeId neighbor, const proto::LsuMessage& msg) override;

  // --- stats ---------------------------------------------------------------
  std::uint64_t drops_no_route() const { return drops_no_route_; }
  std::uint64_t drops_ttl() const { return drops_ttl_; }
  /// Data packets that arrived at (or were injected into) a dead router.
  std::uint64_t drops_dead() const { return drops_dead_; }
  /// Control packets rejected as malformed (corruption on the wire).
  std::uint64_t control_garbage() const { return control_garbage_; }
  std::uint64_t control_messages_sent() const { return control_sent_; }
  /// Flapping neighbors the damper suppressed (withdrawn once, held down).
  std::uint64_t damped_withdrawals() const {
    return damper_ != nullptr ? damper_->damped_withdrawals() : 0;
  }

  /// Whether this router currently considers `neighbor` a control-plane
  /// adjacency: hello 2-way when hello runs (damper suppression is ignored —
  /// a deliberately held-down adjacency is not "starved"), the routing
  /// table's neighbor set otherwise, and trivially true for static nodes
  /// (they have no control plane to starve). The monitor's starvation
  /// watchdog reads this.
  bool adjacent_to(graph::NodeId neighbor) const;

  /// The realized forwarding choices toward `dest` (whatever the routing
  /// mode); what the invariant monitor walks for loop/blackhole checks.
  std::span<const core::ForwardingChoice> forwarding(graph::NodeId dest) const {
    if (router_ != nullptr) return router_->forwarding(dest);
    return static_table_[dest];
  }

  /// The embedded router (null in kStatic mode).
  const core::MpRouter* router() const { return router_.get(); }

  /// Hello messages actually handed to a link (excluded from
  /// control_messages_sent(), which counts LSUs only).
  std::uint64_t hellos_sent() const { return hellos_sent_; }

  /// Attaches a flight-recorder probe: crash/recover events here, LSU and
  /// allocation events forwarded to the embedded router, suppress/release to
  /// the damper. Off by default; one branch per event when off.
  void set_probe(const obs::Probe& probe);

  /// Attaches the wall-clock profiler (LSU decode section here; protocol
  /// and allocation sections forwarded to the embedded router). Off by
  /// default; one branch per instrument point when off.
  void set_prof(obs::Profiler* p);

  /// Attaches the convergence span recorder: forwarding reports
  /// first-packet-on-new-successor events here, episode/send/change events
  /// come from the embedded router. Off by default.
  void set_spans(obs::SpanRecorder* s);

  /// Typed-event dispatch from EventQueue: a timer scheduled through
  /// schedule_guarded() fired. Dropped when `boot` is stale (the incarnation
  /// that armed it crashed) or the node is dead.
  void handle_timer(std::uint64_t boot, void (SimNode::*method)()) {
    if (boot == boot_ && alive_) (this->*method)();
  }

  /// Resolves a node-timer class to the tick method it dispatches; null for
  /// kGeneric (callback timers). EventQueue::schedule_timer(TimerClass, ...)
  /// is the only intended caller — the mapping keeps the tick methods
  /// private while giving the queue a typed scheduling surface.
  static void (SimNode::*timer_method(TimerClass cls))();

  // --- checkpointing -------------------------------------------------------

  /// Checkpoints all mutable routing/protocol state: RNG stream, router and
  /// hello/damper processes, announced adjacencies, WRR credits, liveness
  /// and boot epoch, drop/control counters. Configuration (options, links,
  /// static forwarding tables, callbacks) is reconstructed by the owning
  /// simulator before load(). Pending timers live in the EventQueue.
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);

 private:
  void forward(Packet packet);
  graph::NodeId next_hop(graph::NodeId dest);
  void ts_tick();
  void tl_tick();
  double initial_cost(const SimLink& link) const;
  /// Schedules the tick of `cls` after `delay`, silently dropped if this
  /// incarnation has died in the meantime (crash bumps boot_). Every
  /// recurring timer goes through this so a reboot starts from a clean
  /// timer slate.
  void schedule_guarded(Duration delay, TimerClass cls);

  EventQueue* events_;
  graph::NodeId id_;
  NodeOptions options_;
  Rng rng_;
  NodeCallbacks callbacks_;

  void hello_tick();
  void retransmit_tick();
  void pace_tick();

  std::unique_ptr<core::MpRouter> router_;  // kMultipath / kSinglePath
  std::unique_ptr<proto::HelloProtocol> hello_;
  std::unique_ptr<proto::FlapDamper> damper_;
  /// Neighbors currently announced up to the routing process. With damping,
  /// hello adjacency and what routing believes diverge (a suppressed up is
  /// swallowed); this set is the routing-side truth, so a down is only
  /// forwarded for an adjacency routing actually saw.
  std::set<graph::NodeId> announced_;
  std::vector<std::vector<core::ForwardingChoice>> static_table_;  // kStatic
  std::vector<std::vector<double>> static_credits_;  // kStatic + WRR

  std::map<graph::NodeId, SimLink*> links_;
  std::map<graph::NodeId, cost::DualTimescaleCost> cost_state_;

  std::size_t num_nodes_;
  bool alive_ = true;
  std::uint64_t boot_ = 0;  ///< incarnation counter; guards timers

  std::uint64_t drops_no_route_ = 0;
  std::uint64_t drops_ttl_ = 0;
  std::uint64_t drops_dead_ = 0;
  std::uint64_t control_garbage_ = 0;
  std::uint64_t control_sent_ = 0;
  std::uint64_t hellos_sent_ = 0;
  obs::Probe probe_;
  obs::Profiler* prof_ = nullptr;
  obs::SpanRecorder* spans_ = nullptr;
};

}  // namespace mdr::sim
