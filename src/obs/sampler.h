// Periodic time-series sampling and the Telemetry container a run returns.
//
// The TimeSeriesSampler is driven by the simulator's event queue: once per
// `sample_interval` the sim feeds it *cumulative* per-link / per-flow /
// per-destination / network-control readings and the sampler turns them into
// per-window rows (deltas, utilizations, instantaneous gauges). Keeping the
// delta bookkeeping here means the sim-side tick is a read-only walk over
// existing counters — it draws no randomness and reorders no events, so
// enabling sampling never perturbs packet flows.
//
// All serialization (JSONL and tidy CSV) lives here too, with %.17g double
// formatting so same-seed reruns emit byte-identical streams
// (docs/OBSERVABILITY.md documents the schemas).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "graph/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/time.h"

namespace mdr::obs {

/// One per-link sample window ending at time t.
struct LinkSample {
  Time t = 0;
  std::uint32_t link = 0;        ///< LinkId
  double utilization = 0;        ///< busy fraction of the window
  double queue_bits = 0;         ///< instantaneous queued data bits
  std::uint64_t queue_packets = 0;  ///< instantaneous queued data packets
  double data_bits = 0;          ///< data bits transmitted in the window
  double control_bits = 0;       ///< control bits transmitted in the window
  std::uint64_t drops = 0;       ///< packets dropped in the window
};

/// One per-flow sample window ending at time t. `delivered`/`delay_sum_s`
/// count every delivery (convergence curves from t=0); the `measured_*` pair
/// restricts to packets created inside the measurement window, so summing
/// them over all rows reconciles with FlowResult::mean_delay_s.
struct FlowSample {
  Time t = 0;
  int flow = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  double delay_sum_s = 0;
  std::uint64_t measured_delivered = 0;
  double measured_delay_sum_s = 0;
  std::uint64_t dropped = 0;
};

/// One per-destination routing snapshot at time t, aggregated over the alive
/// routers that currently have a forwarding entry for `dest`.
struct DestSample {
  Time t = 0;
  graph::NodeId dest = graph::kInvalidNode;
  double mean_successors = 0;    ///< mean successor-set size
  double mean_entropy_bits = 0;  ///< mean Shannon entropy of phi (bits)
  std::uint64_t churn = 0;       ///< successor-set version bumps this window
};

/// One network-wide control-plane sample window ending at time t.
struct ControlSample {
  Time t = 0;
  std::uint64_t lsus_originated = 0;
  std::uint64_t lsus_retransmitted = 0;
  std::uint64_t lsus_suppressed = 0;
  std::uint64_t acks = 0;
  std::uint64_t hellos = 0;
  double control_bits = 0;
  std::uint64_t control_dropped = 0;
};

/// One stability-monitor observation at time t (sim/monitor.h
/// StabilityMonitor): the workload-stress panel behind docs/WORKLOADS.md.
struct StabilitySample {
  Time t = 0;
  double queue_bits = 0;     ///< total bits queued network-wide
  double slope_bps = 0;      ///< windowed least-squares queue slope
  double delay_s = 0;        ///< windowed mean packet delay
  double margin = 0;         ///< running stability margin (< 0: unstable)
};

/// Flight-recorder dump taken when an invariant incident opened at time t.
struct FlightDump {
  Time t = 0;
  std::string reason;            ///< "forwarding_loop" | "blackhole" | ...
  std::vector<Event> events;     ///< chronologically merged ring contents
};

/// Everything a telemetry-enabled run returns (SimResult::telemetry).
struct Telemetry {
  Duration sample_interval = 0;
  std::vector<LinkSample> links;
  std::vector<FlowSample> flows;
  std::vector<DestSample> dests;
  std::vector<ControlSample> control;
  /// Stability-monitor panel; filled by the sim, not the sampler (the
  /// monitor computes its own windows), but serialized with the rest.
  std::vector<StabilitySample> stability;
  std::vector<Event> trace;           ///< full event trace (trace mode only)
  std::vector<FlightDump> flight_dumps;
  MetricRegistry metrics;

  void save(ckpt::Writer& w) const {
    w.f64(sample_interval);
    w.u64(links.size());
    for (const LinkSample& s : links) {
      w.f64(s.t);
      w.u32(s.link);
      w.f64(s.utilization);
      w.f64(s.queue_bits);
      w.u64(s.queue_packets);
      w.f64(s.data_bits);
      w.f64(s.control_bits);
      w.u64(s.drops);
    }
    w.u64(flows.size());
    for (const FlowSample& s : flows) {
      w.f64(s.t);
      w.i64(s.flow);
      w.u64(s.injected);
      w.u64(s.delivered);
      w.f64(s.delay_sum_s);
      w.u64(s.measured_delivered);
      w.f64(s.measured_delay_sum_s);
      w.u64(s.dropped);
    }
    w.u64(dests.size());
    for (const DestSample& s : dests) {
      w.f64(s.t);
      w.u64(static_cast<std::uint64_t>(s.dest));
      w.f64(s.mean_successors);
      w.f64(s.mean_entropy_bits);
      w.u64(s.churn);
    }
    w.u64(control.size());
    for (const ControlSample& s : control) {
      w.f64(s.t);
      w.u64(s.lsus_originated);
      w.u64(s.lsus_retransmitted);
      w.u64(s.lsus_suppressed);
      w.u64(s.acks);
      w.u64(s.hellos);
      w.f64(s.control_bits);
      w.u64(s.control_dropped);
    }
    w.u64(stability.size());
    for (const StabilitySample& s : stability) {
      w.f64(s.t);
      w.f64(s.queue_bits);
      w.f64(s.slope_bps);
      w.f64(s.delay_s);
      w.f64(s.margin);
    }
    w.u64(trace.size());
    for (const Event& e : trace) save_event(w, e);
    w.u64(flight_dumps.size());
    for (const FlightDump& d : flight_dumps) {
      w.f64(d.t);
      w.str(d.reason);
      w.u64(d.events.size());
      for (const Event& e : d.events) save_event(w, e);
    }
    metrics.save(w);
  }

  void load(ckpt::Reader& r) {
    sample_interval = r.f64();
    links.resize(r.u64());
    for (LinkSample& s : links) {
      s.t = r.f64();
      s.link = r.u32();
      s.utilization = r.f64();
      s.queue_bits = r.f64();
      s.queue_packets = r.u64();
      s.data_bits = r.f64();
      s.control_bits = r.f64();
      s.drops = r.u64();
    }
    flows.resize(r.u64());
    for (FlowSample& s : flows) {
      s.t = r.f64();
      s.flow = static_cast<int>(r.i64());
      s.injected = r.u64();
      s.delivered = r.u64();
      s.delay_sum_s = r.f64();
      s.measured_delivered = r.u64();
      s.measured_delay_sum_s = r.f64();
      s.dropped = r.u64();
    }
    dests.resize(r.u64());
    for (DestSample& s : dests) {
      s.t = r.f64();
      s.dest = static_cast<graph::NodeId>(r.u64());
      s.mean_successors = r.f64();
      s.mean_entropy_bits = r.f64();
      s.churn = r.u64();
    }
    control.resize(r.u64());
    for (ControlSample& s : control) {
      s.t = r.f64();
      s.lsus_originated = r.u64();
      s.lsus_retransmitted = r.u64();
      s.lsus_suppressed = r.u64();
      s.acks = r.u64();
      s.hellos = r.u64();
      s.control_bits = r.f64();
      s.control_dropped = r.u64();
    }
    stability.resize(r.u64());
    for (StabilitySample& s : stability) {
      s.t = r.f64();
      s.queue_bits = r.f64();
      s.slope_bps = r.f64();
      s.delay_s = r.f64();
      s.margin = r.f64();
    }
    trace.resize(r.u64());
    for (Event& e : trace) e = load_event(r);
    flight_dumps.resize(r.u64());
    for (FlightDump& d : flight_dumps) {
      d.t = r.f64();
      d.reason = r.str();
      d.events.resize(r.u64());
      for (Event& e : d.events) e = load_event(r);
    }
    metrics.load(r);
  }
};

/// Network-wide totals of one sample window: the FlowSample rows that share
/// a window end, summed in flow order.
struct NetworkWindow {
  Time t = 0;
  std::uint64_t delivered = 0;
  double delay_sum_s = 0;
  std::uint64_t dropped = 0;
  /// 0 when nothing was delivered in the window.
  double mean_delay_s() const {
    return delivered > 0 ? delay_sum_s / static_cast<double>(delivered) : 0;
  }
};

/// Sums per-flow sample rows into one NetworkWindow per sample tick, in
/// tick order (the rows of one tick are contiguous in Telemetry::flows).
std::vector<NetworkWindow> network_windows(const std::vector<FlowSample>& rows);

/// Turns cumulative readings into windowed sample rows. The caller feeds one
/// full set of record_*() calls per tick; the sampler keeps the previous
/// cumulative values per entity and appends the delta rows to `out`.
class TimeSeriesSampler {
 public:
  TimeSeriesSampler(Duration interval, std::size_t num_links,
                    std::size_t num_flows, Telemetry* out);

  struct LinkCumulative {
    double busy_time = 0;        ///< cumulative seconds spent transmitting
    double queue_bits = 0;       ///< instantaneous
    std::uint64_t queue_packets = 0;  ///< instantaneous
    double data_bits = 0;        ///< cumulative
    double control_bits = 0;     ///< cumulative
    std::uint64_t drops = 0;     ///< cumulative
  };
  struct FlowCumulative {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    double delay_sum_s = 0;
    std::uint64_t measured_delivered = 0;
    double measured_delay_sum_s = 0;
    std::uint64_t dropped = 0;
  };
  struct DestCumulative {
    double mean_successors = 0;   ///< instantaneous
    double mean_entropy_bits = 0; ///< instantaneous
    std::uint64_t successor_versions = 0;  ///< cumulative version sum
  };
  struct ControlCumulative {
    std::uint64_t lsus_originated = 0;
    std::uint64_t lsus_retransmitted = 0;
    std::uint64_t lsus_suppressed = 0;
    std::uint64_t acks = 0;
    std::uint64_t hellos = 0;
    double control_bits = 0;
    std::uint64_t control_dropped = 0;
  };

  void record_link(Time t, std::uint32_t link, const LinkCumulative& now);
  void record_flow(Time t, int flow, const FlowCumulative& now);
  void record_dest(Time t, graph::NodeId dest, const DestCumulative& now);
  void record_control(Time t, const ControlCumulative& now);

  Duration interval() const { return interval_; }

  /// Checkpoints the delta-bookkeeping state (previous cumulative readings);
  /// interval and output target are reconstructed by the owner.
  void save(ckpt::Writer& w) const {
    const auto save_link = [&w](const LinkCumulative& c) {
      w.f64(c.busy_time);
      w.f64(c.queue_bits);
      w.u64(c.queue_packets);
      w.f64(c.data_bits);
      w.f64(c.control_bits);
      w.u64(c.drops);
    };
    const auto save_flow = [&w](const FlowCumulative& c) {
      w.u64(c.injected);
      w.u64(c.delivered);
      w.f64(c.delay_sum_s);
      w.u64(c.measured_delivered);
      w.f64(c.measured_delay_sum_s);
      w.u64(c.dropped);
    };
    w.u64(prev_links_.size());
    for (const LinkCumulative& c : prev_links_) save_link(c);
    w.u64(prev_link_t_.size());
    for (Time t : prev_link_t_) w.f64(t);
    w.u64(prev_flows_.size());
    for (const FlowCumulative& c : prev_flows_) save_flow(c);
    w.u64(prev_dest_versions_.size());
    for (std::uint64_t v : prev_dest_versions_) w.u64(v);
    w.u64(prev_control_.lsus_originated);
    w.u64(prev_control_.lsus_retransmitted);
    w.u64(prev_control_.lsus_suppressed);
    w.u64(prev_control_.acks);
    w.u64(prev_control_.hellos);
    w.f64(prev_control_.control_bits);
    w.u64(prev_control_.control_dropped);
  }
  void load(ckpt::Reader& r) {
    const auto load_link = [&r](LinkCumulative& c) {
      c.busy_time = r.f64();
      c.queue_bits = r.f64();
      c.queue_packets = r.u64();
      c.data_bits = r.f64();
      c.control_bits = r.f64();
      c.drops = r.u64();
    };
    const auto load_flow = [&r](FlowCumulative& c) {
      c.injected = r.u64();
      c.delivered = r.u64();
      c.delay_sum_s = r.f64();
      c.measured_delivered = r.u64();
      c.measured_delay_sum_s = r.f64();
      c.dropped = r.u64();
    };
    prev_links_.resize(r.u64());
    for (LinkCumulative& c : prev_links_) load_link(c);
    prev_link_t_.resize(r.u64());
    for (Time& t : prev_link_t_) t = r.f64();
    prev_flows_.resize(r.u64());
    for (FlowCumulative& c : prev_flows_) load_flow(c);
    prev_dest_versions_.resize(r.u64());
    for (std::uint64_t& v : prev_dest_versions_) v = r.u64();
    prev_control_.lsus_originated = r.u64();
    prev_control_.lsus_retransmitted = r.u64();
    prev_control_.lsus_suppressed = r.u64();
    prev_control_.acks = r.u64();
    prev_control_.hellos = r.u64();
    prev_control_.control_bits = r.f64();
    prev_control_.control_dropped = r.u64();
  }

 private:
  Duration interval_;
  Telemetry* out_;
  std::vector<LinkCumulative> prev_links_;
  std::vector<Time> prev_link_t_;
  std::vector<FlowCumulative> prev_flows_;
  std::vector<std::uint64_t> prev_dest_versions_;  // indexed by NodeId
  ControlCumulative prev_control_;
};

/// Display names resolved once per run so emitters never touch the topology.
struct TelemetryNames {
  std::vector<std::string> nodes;  ///< by NodeId
  std::vector<std::pair<std::string, std::string>> links;  ///< from/to by LinkId
  std::vector<std::pair<std::string, std::string>> flows;  ///< src/dst by flow
};

// JSONL emitters — one object per line, deterministic field order, %.17g
// doubles. `run` tags the replication index.
void write_samples_jsonl(std::ostream& os, const Telemetry& telemetry,
                         const TelemetryNames& names, int run);
void write_trace_jsonl(std::ostream& os, const Telemetry& telemetry,
                       const TelemetryNames& names, int run);
void write_metrics_jsonl(std::ostream& os, const MetricRegistry& metrics,
                         const std::string& run_label);

/// Tidy long-format CSV: run,t,kind,entity,metric,value (one measurement per
/// row). Set `header` on the first run of a file.
void write_samples_csv(std::ostream& os, const Telemetry& telemetry,
                       const TelemetryNames& names, int run, bool header);

}  // namespace mdr::obs
