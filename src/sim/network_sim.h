// NetworkSim: assembles a packet-level simulation of a Topology — one
// SimNode per router, one SimLink per directed link, traffic sources per
// flow — runs it, and reports per-flow delay statistics plus control-plane
// overhead. This is the measurement instrument behind every figure bench.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "flow/phi.h"
#include "graph/topology.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/sampler.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/monitor.h"
#include "sim/node.h"
#include "sim/traffic.h"
#include "topo/flows.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mdr::sim {

/// Which arrival process every traffic source uses.
enum class TrafficModel {
  kPoisson,      ///< stationary (the paper's Section 5.1 experiments)
  kOnOff,        ///< exponential bursts (short-term fluctuations)
  kParetoOnOff,  ///< heavy-tailed bursts (self-similar traffic)
  kAdversarial,  ///< (w, eps)-bounded leaky-bucket adversary
};

/// One flash-crowd episode: every flow whose destination is `dst` ramps to
/// `peak` times its average rate, holds, and ramps back down
/// (RateProfile::Episode, applied through the ModulatedSource wrapper).
struct FlashCrowd {
  std::string dst;     ///< hotspot router name
  Time start = 0;
  Duration ramp_s = 5;
  Duration hold_s = 10;
  double peak = 4;
};

/// The offered-traffic shape: arrival model plus the knobs of the bursty
/// models (each model reads only its own sub-struct), and an optional
/// network-wide rate modulation (diurnal sinusoid and/or flash crowds)
/// applied on top of ANY model.
struct TrafficSpec {
  TrafficModel model = TrafficModel::kPoisson;
  OnOffSource::Burstiness burstiness{};    ///< kOnOff only
  ParetoOnOffSource::Shape pareto{};       ///< kParetoOnOff only
  AdversarialSource::Shape adversarial{};  ///< kAdversarial only

  /// Diurnal load curve: multiplier 1 + amplitude * sin(2pi (t-phase)/T)
  /// on every flow. period 0 disables.
  double diurnal_period_s = 0;
  double diurnal_amplitude = 0;
  double diurnal_phase_s = 0;
  /// Hotspot episodes, each applied only to flows targeting its dst.
  std::vector<FlashCrowd> flash_crowds;

  bool modulated() const {
    return diurnal_period_s > 0 || !flash_crowds.empty();
  }
};

struct SimConfig {
  RoutingMode mode = RoutingMode::kMultipath;
  Duration tl = 10.0;
  Duration ts = 2.0;
  cost::EstimatorKind estimator = cost::EstimatorKind::kUtilization;
  double mean_packet_bits = 8e3;

  Duration traffic_start = 3.0;  ///< protocol converges before load arrives
  Duration warmup = 10.0;        ///< loaded but unmeasured
  Duration duration = 60.0;      ///< measured period

  std::uint64_t seed = 1;
  double link_loss_rate = 0;  ///< per-packet Bernoulli loss on every link
  double ah_damping = 0.5;    ///< see MpRouterOptions::ah_damping
  cost::DualTimescaleCost::Options smoothing{};  ///< Ts/Tl cost smoothing
  bool wrr_forwarding = false;  ///< smooth-WRR phi realization (all modes)
  double queue_limit_bits = 0;  ///< 0 = unbounded
  /// Control-ingress budget per link (SimLink::Options); 0 = unbounded.
  double control_queue_limit_bits = 0;

  TrafficSpec traffic{};  ///< arrival model + burst shape for every source

  /// kStatic mode: the routing parameters to install (e.g. OPT's output).
  const flow::RoutingParameters* static_phi = nullptr;

  /// Hello protocol beneath routing (see NodeOptions::use_hello): 2-way
  /// adjacency checks and dead-interval detection of silent failures.
  bool use_hello = false;
  proto::HelloProtocol::Options hello{};

  /// LSU origination pacing with Trickle-style backoff (core/mpda.h).
  /// Off by default: seed figures stay bit-identical.
  core::LsuPacing pacing{};
  /// RFC 2439-style link-flap damping over hello adjacencies
  /// (proto/damping.h). Requires use_hello; off by default.
  proto::FlapDamper::Options damping{};

  /// Scheduled physical-layer changes (both directions toggled).
  struct LinkToggle {
    Time at = 0;
    std::string a, b;  ///< node names
    bool up = false;
    /// Silent: the physical layer does not signal the change; only the
    /// hello dead interval can detect it (requires use_hello for recovery).
    bool silent = false;
  };
  std::vector<LinkToggle> link_toggles;

  /// If > 0, periodically snapshot every router's feasible distances and
  /// successor sets and verify the Loop-Free Invariant globally (paper
  /// Theorem 3) — the packet-level counterpart of the property tests.
  /// Violations are counted in SimResult::lfi_violations (must be 0).
  Duration lfi_check_interval = 0;

  /// Chaos schedule: node crashes/recoveries, flapping links, bursty loss
  /// and control-plane corruption (fault/fault_plan.h). Crashes and flaps
  /// are always silent — use_hello is required to detect and heal them
  /// (scenario parsing enforces this).
  fault::FaultPlan faults;

  // --- telemetry (src/obs) — everything off by default; a default run
  // executes one predictable branch per instrument point and stays
  // bit-identical to the seed (docs/OBSERVABILITY.md). ---------------------

  /// If > 0, run the TimeSeriesSampler with this period: per-link
  /// utilization/queue/bytes, per-flow delivery/delay/drops, per-destination
  /// successor statistics and network control rates land in
  /// SimResult::telemetry — how the network behaves *over time*, e.g. around
  /// a failure or a burst, rather than just on average. Sample ticks are
  /// read-only walks over existing counters — they draw no randomness, so
  /// packet flows are unchanged.
  Duration sample_interval = 0;

  /// Retain EVERY flight-recorder event for full JSONL export
  /// (Telemetry::trace). Implies the flight recorder; needs shards = 1.
  bool trace = false;

  /// If > 0, run the protocol flight recorder with bounded per-node rings of
  /// this capacity. When an InvariantMonitor sweep opens a loop / blackhole /
  /// ledger incident the rings are dumped into Telemetry::flight_dumps
  /// (requires monitor_interval > 0 to have a trigger). The recorder is
  /// single-threaded, so it needs shards = 1 (validate_engine).
  std::size_t flightrec_capacity = 0;

  /// Wall-clock profiler + convergence span tracer (obs/prof.h,
  /// obs/spans.h; `prof` scenario directive, `mdrsim --prof-out`). Off by
  /// default: every instrument point is a single null-check branch and a
  /// default run stays byte-identical to the seed. On, the SimResult gains
  /// a ProfReport (host-time subsystem attribution — varies run to run) and
  /// a ConvergenceReport (sim-time spans — same-seed deterministic); the
  /// simulated packet flow is unchanged either way.
  bool prof = false;
  /// Deep profiling: time every section, including the per-event hot path
  /// (dispatch.*, link.*). At the default level those sections are counted
  /// exactly but their wall time is carried by the enclosing engine.busy
  /// umbrella, keeping measured overhead a few percent; deep mode buys
  /// per-event attribution at a self-reported overhead of tens of percent
  /// on hosts with slow clocks (obs/prof.h).
  bool prof_deep = false;

  /// If > 0, run the InvariantMonitor (sim/monitor.h) with this sweep
  /// period: realized-forwarding loop checks, blackhole detection, packet
  /// accounting, per-crash incident records (SimResult::monitor), and the
  /// control-overload watchdog.
  Duration monitor_interval = 0;
  /// Watchdog tolerance: control drops allowed per monitor sweep before a
  /// control_drop_alert is raised (MonitorOptions::control_drop_budget).
  std::uint64_t monitor_control_drop_budget = 0;

  /// Stability verdict machinery (sim/monitor.h StabilityMonitor): watches
  /// network-wide queue growth and delay runaway from traffic_start and
  /// reports a stability margin in SimResult::stability. interval 0 (the
  /// default) disables it entirely — no sampling, no extra branches taken.
  StabilityOptions stability{};

  // --- crash-safe checkpoint/resume (docs/CHECKPOINT.md) ------------------

  /// If > 0, write a checkpoint to `checkpoint_path` every this many sim
  /// seconds. Checkpoints are taken OUTSIDE the event queues — as
  /// coordinator pauses at window barriers — so they consume no event
  /// sequence numbers and a checkpoint-enabled run stays byte-identical to
  /// a plain one.
  Duration checkpoint_interval = 0;
  std::string checkpoint_path;
  /// If non-empty, restore this checkpoint at the start of run() and
  /// continue from it. The topology, flows and SimConfig must match the
  /// run that wrote it (seed, shard count and entity counts are verified;
  /// everything else is the caller's contract). The resumed run's final
  /// output is byte-identical to the uninterrupted run.
  std::string resume_from;
  /// Cooperative interruption (SIGINT/SIGTERM): when the pointee becomes
  /// true, the sim stops at the next safe boundary, writes a final
  /// checkpoint (when checkpoint_path is set) and throws SimInterrupted
  /// carrying the partial telemetry.
  const std::atomic<bool>* interrupt = nullptr;
  /// Watchdog cancellation (runner job timeout): checked at the same safe
  /// boundaries; throws SimCancelled without writing anything.
  const std::atomic<bool>* cancel = nullptr;
};

/// Thrown when SimConfig::interrupt was observed at a safe boundary. The
/// final checkpoint (when a path is configured) has already been written;
/// `telemetry` carries whatever the instruments recorded so far, so the
/// caller can flush partial JSONL/CSV/metrics before exiting.
struct SimInterrupted : std::runtime_error {
  explicit SimInterrupted(std::optional<obs::Telemetry> t)
      : std::runtime_error("simulation interrupted"),
        telemetry(std::move(t)) {}
  std::optional<obs::Telemetry> telemetry;
};

/// Thrown when SimConfig::cancel was observed (a runner watchdog decided
/// the job overran its wall-clock budget).
struct SimCancelled : std::runtime_error {
  SimCancelled() : std::runtime_error("simulation cancelled by watchdog") {}
};

/// Event-engine knobs, grouped so callers set them in one place
/// (runner::ExperimentSpec carries one; `mdrsim --shards` fills it in).
struct EngineSpec {
  /// Number of shards (>= 1). Each shard advances its own nodes' events in
  /// lockstep lookahead windows (sim/parallel_engine.h); global activities
  /// (faults, toggles, monitor / LFI / sampler / stability observations,
  /// checkpoints) run as coordinator pauses at window barriers. Output is
  /// byte-identical for ANY shard count at a fixed seed. One shard runs on
  /// the calling thread and only stops at pauses.
  int shards = 1;
  /// Capacity of each cross-shard SPSC handoff ring (rounded up to a power
  /// of two). Overflow spills to an unbounded producer-local buffer — a
  /// tuning knob, never a correctness one.
  std::size_t ring_capacity = 1024;
  /// If > 0, the window lookahead is min(computed, this): shrinking windows
  /// is always safe and useful for stress-testing the barrier protocol.
  /// Raising lookahead above the minimum cross-shard propagation delay is
  /// never allowed (it would admit causality violations).
  double lookahead_override = 0;
};

/// Throws std::invalid_argument naming the problem when `engine` cannot
/// run `config` on `topo`: fewer than one shard; trace / flight recorder
/// with more than one shard (the recorder is single-threaded); or a link
/// with zero propagation delay between two shards (the window lookahead
/// would be 0 and the engine could never advance). NetworkSim's
/// constructor calls it; scenario parsing and mdrsim call it to report the
/// problem before a run starts.
void validate_engine(const graph::Topology& topo, const SimConfig& config,
                     const EngineSpec& engine);

struct FlowResult {
  int flow_id = -1;
  std::string src, dst;
  double offered_bps = 0;
  std::uint64_t delivered = 0;
  double mean_delay_s = 0;
  double p95_delay_s = 0;
  double stddev_delay_s = 0;
};

struct LinkLoad {
  std::string from, to;
  double data_bits = 0;
  double control_bits = 0;
  double utilization = 0;  ///< busy fraction over the whole run
};

/// Per-node control-overhead breakdown (only routing nodes produce one).
struct NodeControlStats {
  std::string node;
  std::uint64_t lsus_originated = 0;     ///< first-transmission floods
  std::uint64_t lsus_retransmitted = 0;  ///< reliable-flooding resends
  std::uint64_t lsus_suppressed = 0;     ///< coalesced away by pacing
  std::uint64_t acks = 0;                ///< pure ack messages
  std::uint64_t damped_withdrawals = 0;  ///< flapping adjacencies held down
};

struct SimResult {
  std::vector<FlowResult> flows;
  std::vector<LinkLoad> links;  ///< by LinkId
  double avg_delay_s = 0;  ///< packet-weighted over all measured deliveries
  std::uint64_t delivered = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_dead = 0;   ///< data packets that hit a dead router
  std::uint64_t dropped_queue = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t control_garbage = 0;  ///< corrupted control packets rejected
  double control_bits = 0;
  /// Control-overhead breakdown: per routing node, plus network totals.
  std::vector<NodeControlStats> node_control;
  std::uint64_t lsus_originated = 0;
  std::uint64_t lsus_retransmitted = 0;
  std::uint64_t lsus_suppressed = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t damped_withdrawals = 0;
  /// Control packets dropped on links, total and by cause (SimLink).
  std::uint64_t control_dropped = 0;
  std::uint64_t control_dropped_queue = 0;  ///< control-budget overflow
  std::uint64_t control_dropped_wire = 0;   ///< wire loss
  std::uint64_t control_dropped_flush = 0;  ///< link-failure flushes
  std::uint64_t control_dropped_down = 0;   ///< refused by a down link
  std::size_t events_processed = 0;
  std::uint64_t lfi_checks = 0;      ///< snapshots taken (see lfi_check_interval)
  std::uint64_t lfi_violations = 0;  ///< invariant breaches observed (expect 0)
  /// InvariantMonitor findings; present iff monitor_interval > 0.
  std::optional<MonitorReport> monitor;
  /// Stability verdict + margin; present iff SimConfig::stability.interval
  /// > 0.
  std::optional<StabilityReport> stability;
  /// Time series, trace, flight dumps and metrics; present iff any of
  /// sample_interval / trace / flightrec_capacity enabled telemetry.
  std::optional<obs::Telemetry> telemetry;
  /// Heap bytes of every router's routing tables at the end of the run, by
  /// capacity (proto::RouterTables::memory_bytes). A host figure: reported
  /// with wall clock and RSS, not with the deterministic outputs.
  std::uint64_t table_bytes = 0;
  /// Events processed per shard, in shard order (the per-shard balance;
  /// the only output that depends on the shard count).
  std::vector<std::uint64_t> shard_events;
  /// Wall-clock attribution + convergence spans; present iff SimConfig::prof.
  std::optional<obs::ProfReport> prof;
  std::optional<obs::ConvergenceReport> convergence;
};

class NetworkSim {
 public:
  /// `engine` sets the shard count and window knobs (EngineSpec). Throws
  /// std::invalid_argument when validate_engine() rejects the combination.
  NetworkSim(const graph::Topology& topo,
             const std::vector<topo::FlowSpec>& flows, SimConfig config,
             EngineSpec engine = {});

  /// Runs to completion and returns the measurements. Call once. Honors
  /// SimConfig::resume_from / checkpoint_interval / interrupt / cancel.
  SimResult run();

  // --- checkpointing (tests drive these directly; run() wires them up) ----

  /// Serializes the complete simulation state to `path` (atomic tmp+rename).
  /// Must be called outside the event loop: from a coordinator pause at a
  /// window barrier (or before run()).
  void save_checkpoint(const std::string& path);

  /// Overwrites this sim's mutable state from a checkpoint written by an
  /// identically configured run. Call after construction, before run()
  /// (run() does this itself for SimConfig::resume_from). Throws
  /// ckpt::Error on any mismatch or corruption.
  void restore_checkpoint(const std::string& path);

 private:
  void build();
  void toggle_duplex(graph::NodeId a, graph::NodeId b, bool up, bool silent);
  /// Recomputes one directed link's effective state from every hold on it
  /// (admin toggles, flap schedule, endpoint liveness).
  void apply_link_state(graph::LinkId id);
  void apply_incident_links(graph::NodeId node);
  void flap_duplex(graph::NodeId a, graph::NodeId b, bool down);
  void duty_duplex(graph::NodeId a, graph::NodeId b, bool down);
  void crash_node(graph::NodeId node);
  void recover_node(graph::NodeId node);
  /// One global Loop-Free Invariant sweep at pause time `now`.
  void lfi_sweep(Time now);
  /// One StabilityMonitor observation at pause time `now`. Reads queued
  /// bits in LinkId order and per-flow delivery sums in flow order, so the
  /// float reductions are identical for every shard count.
  void stability_record(Time now);
  /// One full set of sampler readings at `now` (also called once after the
  /// run drains, so the tail window is captured and the per-flow sums
  /// reconcile exactly with FlowResult).
  void take_samples(Time now);
  std::uint64_t source_emitted(std::size_t flow) const;
  AccountingSnapshot accounting_snapshot() const;

  /// Entity-index translation + callback-rebuild table for EventQueue
  /// save/load (the tag namespace lives in network_sim.cc).
  EventQueueCodec make_codec();
  /// Partial telemetry for SimInterrupted (tail sample + move out).
  std::optional<obs::Telemetry> take_partial_telemetry();

  // --- the engine (see sim/parallel_engine.h) ------------------------------
  /// Turns every global activity — toggles, faults, monitor / LFI /
  /// sampler / stability observations, checkpoints — into a sorted pause
  /// plan the coordinator executes at window barriers.
  void build_pause_plan();
  /// Lockstep window loop: workers advance shard queues, the barrier
  /// completion hook drains handoff rings, executes due pauses and sizes
  /// the next window. Returns with every shard clock at the drain horizon.
  void run_parallel_loop();
  /// Moves every queued cross-shard delivery into its destination queue.
  /// Coordinator-only (all workers parked at the barrier).
  void drain_channels();
  std::uint64_t injected_total() const;
  std::uint64_t delivered_total() const;

  const graph::Topology* topo_;
  std::vector<topo::FlowSpec> flow_specs_;
  SimConfig config_;

  Rng master_rng_;
  std::vector<std::unique_ptr<SimNode>> nodes_;
  std::vector<std::unique_ptr<SimLink>> links_;  // by LinkId
  std::vector<std::unique_ptr<TrafficSource>> sources_;  // by flow id

  Time measure_start_ = 0;
  std::vector<Samples> flow_delays_;  // by flow id; dst shard writes
  std::uint64_t lfi_checks_ = 0;
  std::uint64_t lfi_violations_ = 0;

  /// A directed link is up iff no hold applies AND both endpoints are alive.
  struct LinkHold {
    bool admin_down = false;  ///< link_toggles (fail/restore)
    bool flap_down = false;   ///< flap schedule
    bool duty_down = false;   ///< duty-cycle sleep phase
  };
  std::vector<LinkHold> link_holds_;  // by LinkId

  std::unique_ptr<InvariantMonitor> monitor_;
  /// Stability verdict machinery (null unless config.stability.interval
  /// > 0). The per-flow cumulative delivery accounts are written by exactly
  /// one shard (the flow's destination) and reduced in flow order at each
  /// observation, so verdicts are shard-count-invariant.
  std::unique_ptr<StabilityMonitor> stability_;
  bool stability_enabled_ = false;
  std::vector<std::uint64_t> stab_flow_delivered_;  // by flow; dst shard
  std::vector<double> stab_flow_delay_sum_;         // by flow; dst shard

  // --- telemetry (null/empty unless enabled; see SimConfig) ---------------
  /// Per-flow cumulative delivery accounting for the sampler: every delivery
  /// vs. only measurement-window deliveries (the pair that reconciles with
  /// FlowResult::mean_delay_s). Written by the flow's destination shard.
  struct FlowAccum {
    std::uint64_t delivered = 0;
    double delay_sum_s = 0;
    std::uint64_t measured_delivered = 0;
    double measured_delay_sum_s = 0;
  };
  bool telemetry_enabled_ = false;
  obs::Telemetry telemetry_;
  /// Present iff trace or flightrec asks for it (shards = 1 only).
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::vector<FlowAccum> flow_accum_;  // by flow id
  /// Node-level drops per flow, one row per shard (the dropping node's).
  std::vector<std::vector<std::uint64_t>> sflow_dropped_;  // [shard][flow]
  /// Measured-delay histograms, one per flow (single writer each), merged
  /// into metrics["flow_delay_s"] in flow order when the run ends.
  std::vector<obs::LogHistogram> flow_hist_;

  // --- wall-clock profiler + span tracer (empty unless config.prof) -------
  /// One Profiler per shard ("shard<i>") plus a last one for the
  /// coordinator ("coord": handoff drain, pauses, checkpoints) — separate
  /// so its counts stay deterministic even though the barrier completion
  /// hook runs on whichever worker arrives last.
  std::vector<std::unique_ptr<obs::Profiler>> profilers_;
  obs::Profiler* coord_prof_ = nullptr;  ///< profilers_.back() when enabled
  std::vector<std::unique_ptr<obs::SpanRecorder>> span_recorders_;
  /// Per-window imbalance accounting: each worker writes its window's busy
  /// ns into its slot; the completion hook (all workers parked) folds
  /// max/mean into the running sums and zeroes the slots.
  std::vector<std::uint64_t> window_busy_ns_;
  std::uint64_t prof_windows_ = 0;
  std::uint64_t prof_window_max_busy_ns_ = 0;
  std::uint64_t prof_window_mean_busy_ns_ = 0;
  /// Assembles the per-context profilers + engine stats into a ProfReport.
  obs::ProfReport make_prof_report(std::uint64_t wall_ns) const;

  // --- engine state. Accumulators are split so every field has exactly one
  // writing shard: per-shard integers merge exactly in any order, and
  // per-flow float sums are written only by the flow's destination shard,
  // then combined in flow order — the float reduction order is therefore
  // identical for every shard count.
  EngineSpec engine_;
  std::vector<int> shard_of_;  // by NodeId
  double lookahead_ = 0;       ///< window slack (min cross-shard prop delay)
  /// Coordinator clock: equals every shard clock whenever the workers are
  /// parked at a barrier; pause handlers and log lines read it.
  double global_now_ = 0;
  struct Shard {
    EventQueue events;
    std::uint64_t injected = 0;   ///< sources on this shard
    std::uint64_t delivered = 0;  ///< deliveries at this shard's nodes
  };
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Directed handoff channels, indexed [from * shards + to]; diagonal null.
  std::vector<std::unique_ptr<HandoffChannel>> channels_;
  /// One globally-ordered coordinator action: rank breaks ties at equal
  /// times (toggles < flaps < dutycycles < crashes < recoveries < monitor <
  /// lfi < sampler < stability < checkpoint), insertion order breaks rank
  /// ties.
  struct Pause {
    Time at = 0;
    int rank = 0;
    std::function<void()> fn;
  };
  std::vector<Pause> pauses_;

  // --- checkpoint/resume cursor -------------------------------------------
  /// The coordinator Control state at the instant the checkpoint was taken,
  /// replayed into the window loop on resume.
  std::size_t ckpt_pause_idx_ = 0;
  Time ckpt_clock_ = 0;
  bool ckpt_tie_done_ = false;
  bool resumed_ = false;
  /// Why the window loop stopped (set by the coordinator inside the barrier
  /// completion hook; thrown as an exception after the join).
  enum class StopReason { kCompleted, kInterrupted, kCancelled };
  StopReason stop_reason_ = StopReason::kCompleted;
};

/// Convenience wrapper: build, run, return.
SimResult run_simulation(const graph::Topology& topo,
                         const std::vector<topo::FlowSpec>& flows,
                         const SimConfig& config,
                         const EngineSpec& engine = {});

}  // namespace mdr::sim
