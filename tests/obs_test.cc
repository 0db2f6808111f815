// Tests for the observability layer (src/obs): metric registry and
// log-bucketed histograms, the flight recorder, the time-series sampler's
// reconciliation with the simulator's own measurements, determinism of the
// JSONL/CSV streams, zero-perturbation of default and telemetry-enabled
// runs, and the chaos-incident flight-dump path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/sampler.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "runner/experiment_runner.h"
#include "sim/experiment.h"
#include "sim/network_sim.h"
#include "topo/builders.h"
#include "topo/flows.h"
#include "util/rng.h"

namespace mdr {
namespace {

using obs::Event;
using obs::EventType;
using obs::FlightRecorder;
using obs::LogHistogram;
using obs::MetricRegistry;

// ----------------------------------------------------------- LogHistogram

TEST(LogHistogram, ExactFieldsAndBoundedPercentileError) {
  LogHistogram h;
  std::vector<double> xs;
  Rng rng(42);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    // Values spanning nine decades exercise many octaves.
    const double x = std::pow(10.0, rng.uniform(-6.0, 3.0));
    xs.push_back(x);
    sum += x;
    h.record(x);
  }
  std::sort(xs.begin(), xs.end());

  EXPECT_EQ(h.count(), xs.size());
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.min(), xs.front());
  EXPECT_DOUBLE_EQ(h.max(), xs.back());

  // 8 sub-buckets per octave bound the relative quantization error of any
  // quantile by ~6%; allow 7% for the nearest-rank tie at bucket edges.
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(xs.size() - 1) + 0.5);
    const double exact = xs[std::min(rank, xs.size() - 1)];
    const double est = h.percentile(q);
    EXPECT_NEAR(est, exact, 0.07 * exact) << "q=" << q;
  }
}

TEST(LogHistogram, UnderflowAndEmptyBehave) {
  LogHistogram empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

  LogHistogram h;
  h.record(0.0);    // non-positive lands in the underflow bucket
  h.record(-3.0);
  h.record(1.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  // Percentiles stay clamped to the observed range.
  EXPECT_GE(h.percentile(0.0), -3.0);
  EXPECT_LE(h.percentile(1.0), 1.0);
}

TEST(LogHistogram, MergeMatchesCombinedRecording) {
  LogHistogram a, b, all;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(1e-4, 5.0);
    if (i % 2 == 0) {
      a.record(x);
    } else {
      b.record(x);
    }
    all.record(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  // Bucket contents are identical, so every quantile answer is identical.
  for (const double q : {0.01, 0.5, 0.9, 0.999}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), all.percentile(q)) << "q=" << q;
  }
}

// --------------------------------------------------------- MetricRegistry

TEST(MetricRegistry, HandlesAreStableAndMergeIsDeterministic) {
  MetricRegistry r1;
  std::uint64_t& c = r1.counter("packets.delivered");
  c += 10;
  r1.gauge("delay.avg_s") = 0.25;
  r1.histogram("flow_delay_s").record(0.5);

  MetricRegistry r2;
  r2.counter("packets.delivered") = 7;
  r2.counter("packets.dropped") = 2;
  r2.gauge("delay.avg_s") = 0.75;
  r2.histogram("flow_delay_s").record(1.5);

  r1.merge(r2);
  EXPECT_EQ(r1.counters().at("packets.delivered"), 17u);
  EXPECT_EQ(r1.counters().at("packets.dropped"), 2u);
  EXPECT_DOUBLE_EQ(r1.gauges().at("delay.avg_s"), 0.75);  // last writer wins
  EXPECT_EQ(r1.histograms().at("flow_delay_s").count(), 2u);

  // The counter handle taken before the merge still points at the slot.
  c += 1;
  EXPECT_EQ(r1.counters().at("packets.delivered"), 18u);

  // JSON serialization is deterministic (name-ordered maps, %.17g doubles).
  std::string j1, j2;
  r1.append_json(j1);
  r1.append_json(j2);
  EXPECT_EQ(j1, j2);
  EXPECT_FALSE(j1.empty());
  EXPECT_LT(j1.find("\"counters\""), j1.find("\"gauges\""));
  EXPECT_LT(j1.find("\"gauges\""), j1.find("\"histograms\""));
}

// --------------------------------------------------------- FlightRecorder

TEST(FlightRecorder, RingsAreBoundedAndDumpIsChronological) {
  MetricRegistry metrics;
  FlightRecorder rec(/*num_nodes=*/2, /*ring_capacity=*/4, /*keep_all=*/true,
                     &metrics);
  // Record in monotonic time order, as the simulator's clock guarantees.
  for (int i = 0; i < 10; ++i) {
    rec.record(Event{static_cast<Time>(i), /*node=*/0,
                     EventType::kLsuOriginate, 1, static_cast<double>(i), 0});
    if (i == 3) rec.record(Event{3.5, /*node=*/1, EventType::kCrash});
  }
  rec.record(Event{20.0, /*node=*/1, EventType::kRecover});

  EXPECT_EQ(rec.recorded(), 12u);
  EXPECT_EQ(rec.trace().size(), 12u);  // keep_all retains everything

  const auto dump = rec.dump();
  // Node 0's ring kept only the newest 4 of its 10 events.
  ASSERT_EQ(dump.size(), 6u);
  for (std::size_t i = 1; i < dump.size(); ++i) {
    EXPECT_LE(dump[i - 1].t, dump[i].t) << "dump not chronological at " << i;
  }
  // The oldest surviving node-0 event is t=6 (6..9 survive).
  double oldest = 1e9;
  for (const auto& e : dump) {
    if (e.node == 0) oldest = std::min(oldest, e.t);
  }
  EXPECT_DOUBLE_EQ(oldest, 6.0);

  // Every record() bumped the per-type counter in the registry.
  EXPECT_EQ(metrics.counters().at("events.lsu_originate"), 10u);
  EXPECT_EQ(metrics.counters().at("events.crash"), 1u);
  EXPECT_EQ(metrics.counters().at("events.recover"), 1u);
}

TEST(FlightRecorder, DisabledProbeIsANoOp) {
  obs::Probe probe;  // null recorder
  EXPECT_FALSE(probe.enabled());
  probe.emit(EventType::kFdChange, 3, 1.0, 2.0);  // must not crash
}

// ------------------------------------------------- end-to-end sim telemetry

sim::SimConfig telemetry_config() {
  sim::SimConfig config;
  config.traffic_start = 3.0;
  config.warmup = 5.0;
  config.duration = 20.0;
  config.seed = 21;
  return config;
}

TEST(SimTelemetry, EnablingTelemetryDoesNotPerturbPacketFlows) {
  const auto topo = topo::make_net1();
  const auto flows = topo::net1_flows(0.5);

  sim::SimConfig off = telemetry_config();
  const auto base = sim::run_simulation(topo, flows, off);
  ASSERT_FALSE(base.telemetry.has_value());

  sim::SimConfig on = telemetry_config();
  on.sample_interval = 2.0;
  on.trace = true;
  on.flightrec_capacity = 64;
  const auto instrumented = sim::run_simulation(topo, flows, on);
  ASSERT_TRUE(instrumented.telemetry.has_value());

  // Same seed, telemetry on: every packet-level number is bit-identical,
  // the event count included — sampler ticks are coordinator pauses, not
  // queue events.
  EXPECT_EQ(instrumented.events_processed, base.events_processed);
  EXPECT_EQ(instrumented.delivered, base.delivered);
  EXPECT_EQ(instrumented.avg_delay_s, base.avg_delay_s);
  EXPECT_EQ(instrumented.control_messages, base.control_messages);
  EXPECT_EQ(instrumented.control_bits, base.control_bits);
  EXPECT_EQ(instrumented.dropped_queue, base.dropped_queue);
  ASSERT_EQ(instrumented.flows.size(), base.flows.size());
  for (std::size_t f = 0; f < base.flows.size(); ++f) {
    EXPECT_EQ(instrumented.flows[f].delivered, base.flows[f].delivered);
    EXPECT_EQ(instrumented.flows[f].mean_delay_s, base.flows[f].mean_delay_s);
    EXPECT_EQ(instrumented.flows[f].p95_delay_s, base.flows[f].p95_delay_s);
  }
  ASSERT_EQ(instrumented.links.size(), base.links.size());
  for (std::size_t l = 0; l < base.links.size(); ++l) {
    EXPECT_EQ(instrumented.links[l].data_bits, base.links[l].data_bits);
    EXPECT_EQ(instrumented.links[l].utilization, base.links[l].utilization);
  }

  // And the trace actually recorded protocol activity.
  EXPECT_FALSE(instrumented.telemetry->trace.empty());
  EXPECT_GT(instrumented.telemetry->metrics.counters().at("events.lsu_originate"),
            0u);
}

TEST(SimTelemetry, FlightRecorderLeavesTheOneShardReportByteIdentical) {
  // A crash under the monitor opens incidents, so the recorder both traces
  // and dumps. Its probes read shard 0's clock; turning it on must not move
  // a byte of the --json report or the sample stream — only the trace and
  // dump payloads (and their events.* counters) are new.
  sim::ExperimentSpec spec{topo::make_cairn(), topo::cairn_flows(0.5), {}, {}};
  spec.config.use_hello = true;
  spec.config.traffic_start = 6.0;
  spec.config.warmup = 4.0;
  spec.config.duration = 20.0;
  spec.config.monitor_interval = 0.5;
  spec.config.sample_interval = 2.0;
  spec.config.faults.crashes.push_back({15.0, "tioc"});
  spec.config.faults.recoveries.push_back({19.0, "tioc"});
  const auto names = sim::telemetry_names(spec.topo, spec.flows);
  const auto render = [&](const sim::ExperimentSpec& s, bool* recorded) {
    runner::ExperimentRunner r(runner::Options{/*jobs=*/1, /*base_seed=*/3});
    const auto batch = r.run_replicated(s, "mp", /*replications=*/1);
    std::ostringstream out;
    runner::write_results_json(out, batch, "recorder-property");
    const auto& telemetry = *batch.runs.front().telemetry;
    obs::write_samples_jsonl(out, telemetry, names, /*run=*/0);
    *recorded = !telemetry.trace.empty() && !telemetry.flight_dumps.empty();
    static const std::regex host{R"re(, "host": \{[^}]*\})re"};
    return std::regex_replace(out.str(), host, "");
  };
  bool recorded = true;
  const std::string off = render(spec, &recorded);
  EXPECT_FALSE(recorded);
  spec.config.trace = true;
  spec.config.flightrec_capacity = 64;
  const std::string on = render(spec, &recorded);
  EXPECT_TRUE(recorded) << "the recorder traced and dumped nothing";
  EXPECT_EQ(on, off);
}

TEST(SimTelemetry, SamplerReconcilesExactlyWithFlowResults) {
  const auto topo = topo::make_net1();
  const auto flows = topo::net1_flows(0.5);
  sim::SimConfig config = telemetry_config();
  config.sample_interval = 2.0;
  const auto result = sim::run_simulation(topo, flows, config);
  ASSERT_TRUE(result.telemetry.has_value());
  const auto& telemetry = *result.telemetry;

  // Per-flow: the sampler's windowed deltas telescope back to the exact
  // cumulative totals the run reports.
  std::vector<std::uint64_t> delivered(flows.size(), 0);
  std::vector<double> delay_sum(flows.size(), 0);
  for (const auto& s : telemetry.flows) {
    ASSERT_LT(static_cast<std::size_t>(s.flow), flows.size());
    delivered[static_cast<std::size_t>(s.flow)] += s.measured_delivered;
    delay_sum[static_cast<std::size_t>(s.flow)] += s.measured_delay_sum_s;
  }
  std::uint64_t total = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_EQ(delivered[f], result.flows[f].delivered) << "flow " << f;
    total += delivered[f];
    if (delivered[f] > 0) {
      const double mean = delay_sum[f] / static_cast<double>(delivered[f]);
      EXPECT_NEAR(mean, result.flows[f].mean_delay_s,
                  1e-9 * std::max(1.0, result.flows[f].mean_delay_s))
          << "flow " << f;
    }
  }
  EXPECT_EQ(total, result.delivered);

  // The metrics registry carries the same counters.
  EXPECT_EQ(telemetry.metrics.counters().at("packets.delivered_measured"),
            result.delivered);
  EXPECT_EQ(telemetry.metrics.histograms().at("flow_delay_s").count(),
            result.delivered);

  // Per-link windows: utilizations are valid fractions and the windowed data
  // bits telescope to the run totals.
  std::vector<double> link_bits(result.links.size(), 0);
  for (const auto& s : telemetry.links) {
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0 + 1e-9);
    link_bits[s.link] += s.data_bits;
  }
  for (std::size_t l = 0; l < result.links.size(); ++l) {
    EXPECT_NEAR(link_bits[l], result.links[l].data_bits,
                1e-9 * std::max(1.0, result.links[l].data_bits))
        << "link " << l;
  }

  // Control-plane windows telescope to the reported LSU totals.
  std::uint64_t lsus = 0;
  for (const auto& s : telemetry.control) lsus += s.lsus_originated;
  EXPECT_EQ(lsus, result.lsus_originated);
}

TEST(SimTelemetry, SameSeedRerunsEmitByteIdenticalStreams) {
  const auto topo = topo::make_net1();
  const auto flows = topo::net1_flows(0.5);
  const auto names = sim::telemetry_names(topo, flows);

  const auto render = [&] {
    sim::SimConfig config = telemetry_config();
    config.sample_interval = 2.0;
    config.trace = true;
    config.flightrec_capacity = 32;
    const auto result = sim::run_simulation(topo, flows, config);
    std::ostringstream out;
    obs::write_samples_jsonl(out, *result.telemetry, names, /*run=*/0);
    obs::write_trace_jsonl(out, *result.telemetry, names, /*run=*/0);
    obs::write_metrics_jsonl(out, result.telemetry->metrics, "0");
    obs::write_samples_csv(out, *result.telemetry, names, /*run=*/0,
                           /*header=*/true);
    return out.str();
  };

  const std::string first = render();
  const std::string second = render();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // Spot-check the stream shape: one JSON object per line, kind-tagged.
  std::istringstream lines(first);
  std::string line;
  bool saw_link = false, saw_flow = false, saw_control = false;
  while (std::getline(lines, line) && line.rfind("{", 0) == 0) {
    if (line.find("\"kind\":\"link\"") != std::string::npos) saw_link = true;
    if (line.find("\"kind\":\"flow\"") != std::string::npos) saw_flow = true;
    if (line.find("\"kind\":\"control\"") != std::string::npos) {
      saw_control = true;
    }
  }
  EXPECT_TRUE(saw_link);
  EXPECT_TRUE(saw_flow);
  EXPECT_TRUE(saw_control);
}

TEST(SimTelemetry, ChaosIncidentTriggersFlightDumpWithCrashSequence) {
  // A router crash on CAIRN opens invariant incidents (blackhole sweeps
  // while neighbours reroute); the monitor's anomaly hook must dump the
  // flight-recorder rings, and the dump must contain the triggering crash.
  const auto topo = topo::make_cairn();
  const auto flows = topo::cairn_flows(0.5);
  sim::SimConfig config;
  config.use_hello = true;
  config.traffic_start = 6.0;
  config.warmup = 4.0;
  config.duration = 30.0;
  config.seed = 5;
  config.monitor_interval = 0.5;
  config.flightrec_capacity = 128;
  const double t_crash = 15.0;
  config.faults.crashes.push_back({t_crash, "tioc"});
  config.faults.recoveries.push_back({19.0, "tioc"});
  const auto result = sim::run_simulation(topo, flows, config);

  ASSERT_TRUE(result.monitor.has_value());
  ASSERT_TRUE(result.telemetry.has_value());
  const auto& dumps = result.telemetry->flight_dumps;
  ASSERT_FALSE(dumps.empty()) << "incident opened but no flight dump taken";

  // The anomaly hook is edge-triggered, so initial convergence may open one
  // earlier incident; the crash must open its own with a fresh dump.
  const obs::FlightDump* dump = nullptr;
  for (const auto& d : dumps) {
    if (d.t >= t_crash && dump == nullptr) dump = &d;
    EXPECT_TRUE(d.reason == "blackhole" || d.reason == "forwarding_loop" ||
                d.reason == "accounting_leak")
        << d.reason;
  }
  ASSERT_NE(dump, nullptr) << "no flight dump after the crash at t=15";
  ASSERT_FALSE(dump->events.empty());

  const graph::NodeId crashed = topo.find_node("tioc");
  bool saw_crash = false;
  for (std::size_t i = 0; i < dump->events.size(); ++i) {
    const auto& e = dump->events[i];
    if (i > 0) {
      EXPECT_LE(dump->events[i - 1].t, e.t);
    }
    EXPECT_LE(e.t, dump->t);  // nothing from after the dump instant
    if (e.type == EventType::kCrash && e.node == crashed) saw_crash = true;
  }
  EXPECT_TRUE(saw_crash)
      << "dump should retain the crash that triggered the incident";
}

// ----------------------------------------------------- runner metric merge

TEST(RunnerTelemetry, MergedMetricsAreIndependentOfWorkerCount) {
  sim::ExperimentSpec spec;
  spec.topo = topo::make_net1();
  spec.flows = topo::net1_flows(0.5);
  spec.config = telemetry_config();
  spec.config.duration = 10.0;
  spec.config.sample_interval = 2.0;

  const auto merged_json = [&](int jobs) {
    runner::ExperimentRunner runner(runner::Options{jobs, /*base_seed=*/3});
    const auto batch = runner.run_replicated(spec, "mp", /*replications=*/3);
    EXPECT_FALSE(batch.metrics.empty());
    std::string json;
    batch.metrics.append_json(json);
    return json;
  };

  const std::string serial = merged_json(1);
  const std::string parallel = merged_json(2);
  EXPECT_EQ(serial, parallel);
}

// Cross-worker merges must commute and associate: the runner folds per-job
// registries in job order, but a histogram's buckets are plain sums, so any
// grouping of the same inputs must answer every quantile identically.
TEST(LogHistogram, MergeIsAssociativeAndOrderIndependent) {
  std::vector<LogHistogram> parts(3);
  Rng rng(99);
  for (int i = 0; i < 900; ++i) {
    parts[static_cast<std::size_t>(i % 3)].record(
        std::pow(10.0, rng.uniform(-4.0, 2.0)));
  }
  // (a + b) + c
  LogHistogram left = parts[0];
  left.merge(parts[1]);
  left.merge(parts[2]);
  // a + (b + c)
  LogHistogram bc = parts[1];
  bc.merge(parts[2]);
  LogHistogram right = parts[0];
  right.merge(bc);
  // c + a + b — a different job order entirely
  LogHistogram rotated = parts[2];
  rotated.merge(parts[0]);
  rotated.merge(parts[1]);

  for (const LogHistogram* h : {&right, &rotated}) {
    EXPECT_EQ(left.count(), h->count());
    EXPECT_DOUBLE_EQ(left.sum(), h->sum());
    EXPECT_DOUBLE_EQ(left.min(), h->min());
    EXPECT_DOUBLE_EQ(left.max(), h->max());
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
      EXPECT_DOUBLE_EQ(left.percentile(q), h->percentile(q)) << "q=" << q;
    }
  }
}

// A flight recorder restored from a checkpoint must dump the same events in
// the same order as the original — rings serialize wraparound state (head
// position and fill), not just contents.
TEST(FlightRecorder, CheckpointRoundTripPreservesWrappedRingsAndDumpOrder) {
  FlightRecorder rec(/*num_nodes=*/3, /*ring_capacity=*/4,
                     /*keep_all=*/false, /*metrics=*/nullptr);
  // Overfill node 0's ring (wraps twice), partially fill node 1's, leave
  // node 2's empty, and give the off-node ring one entry.
  for (int i = 0; i < 10; ++i) {
    rec.record(Event{static_cast<Time>(i), /*node=*/0,
                     EventType::kLsuOriginate, 1, static_cast<double>(i), 0});
  }
  rec.record(Event{4.5, /*node=*/1, EventType::kCrash});
  rec.record(Event{5.5, /*node=*/1, EventType::kRecover});
  rec.record(Event{6.5, /*node=*/graph::kInvalidNode, EventType::kFdChange});

  ckpt::Writer w;
  rec.save(w);

  FlightRecorder restored(/*num_nodes=*/3, /*ring_capacity=*/4,
                          /*keep_all=*/false, /*metrics=*/nullptr);
  ckpt::Reader r(w.payload());
  restored.load(r);

  const auto before = rec.dump();
  const auto after = restored.dump();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i].t, after[i].t) << "event " << i;
    EXPECT_EQ(before[i].node, after[i].node) << "event " << i;
    EXPECT_EQ(before[i].type, after[i].type) << "event " << i;
  }

  // Resumed recording continues the wraparound exactly where it left off:
  // one more event on node 0 evicts the oldest surviving one (t=6).
  rec.record(Event{11.0, /*node=*/0, EventType::kLsuOriginate});
  restored.record(Event{11.0, /*node=*/0, EventType::kLsuOriginate});
  const auto before2 = rec.dump();
  const auto after2 = restored.dump();
  ASSERT_EQ(before2.size(), after2.size());
  for (std::size_t i = 0; i < before2.size(); ++i) {
    EXPECT_DOUBLE_EQ(before2[i].t, after2[i].t) << "event " << i;
  }
}

// --------------------------------------------------------------- Profiler

TEST(Profiler, SelfTimeExcludesChildrenAndCountsAreExact) {
  obs::Profiler p;
  for (int i = 0; i < 100; ++i) {
    obs::ProfScope outer(&p, obs::ProfSection::kMpdaTableUpdate);
    obs::ProfScope inner(&p, obs::ProfSection::kMpdaRecompute);
  }
  const auto& st = p.sections();
  const auto& outer =
      st[static_cast<std::size_t>(obs::ProfSection::kMpdaTableUpdate)];
  const auto& inner =
      st[static_cast<std::size_t>(obs::ProfSection::kMpdaRecompute)];
  EXPECT_EQ(outer.count, 100u);
  EXPECT_EQ(inner.count, 100u);
  EXPECT_EQ(p.scopes(), 200u);
  // The child's total is carried out of the parent's self time.
  EXPECT_LE(outer.self_ns, outer.total_ns);
  EXPECT_GE(outer.total_ns, inner.total_ns);
  EXPECT_LE(outer.self_ns + inner.total_ns,
            outer.total_ns + 200 * 1000);  // slack for arithmetic jitter
}

TEST(Profiler, HotSectionsOutsideTimedMaskAreCountedNotTimed) {
  obs::Profiler p(obs::kProfTimeDefault);
  {
    obs::ProfScope busy(&p, obs::ProfSection::kEngineBusy);  // timed umbrella
    for (int i = 0; i < 50; ++i) {
      obs::ProfScope hot(&p, obs::ProfSection::kLinkEnqueue);  // count-only
    }
  }
  const auto& st = p.sections();
  const auto& hot =
      st[static_cast<std::size_t>(obs::ProfSection::kLinkEnqueue)];
  const auto& busy =
      st[static_cast<std::size_t>(obs::ProfSection::kEngineBusy)];
  EXPECT_EQ(hot.count, 50u);
  EXPECT_EQ(hot.total_ns, 0u);  // never touched the clock
  EXPECT_EQ(hot.self_ns, 0u);
  EXPECT_EQ(busy.count, 1u);
  EXPECT_GT(busy.total_ns, 0u);
  EXPECT_EQ(p.scopes(), 1u);    // only the umbrella was a timed pair
  EXPECT_EQ(p.counted(), 50u);
  EXPECT_FALSE(p.timed(obs::ProfSection::kDispatchDeliver));
  EXPECT_TRUE(p.timed(obs::ProfSection::kCkptSave));
}

TEST(ProfReport, MergeMatchesTracksByLabelAndJsonSegregatesHostTime) {
  obs::ProfReport a;
  a.tracks.push_back({"shard0", {}});
  a.tracks[0].sections[0] = {10, 1000, 800};
  a.scopes = 10;
  a.counted = 5;
  a.wall_ns = 5000;

  obs::ProfReport b;
  b.tracks.push_back({"shard0", {}});
  b.tracks[0].sections[0] = {7, 500, 400};
  b.tracks.push_back({"coord", {}});
  b.scopes = 7;
  b.counted = 2;
  b.wall_ns = 3000;

  a.merge(b);
  ASSERT_EQ(a.tracks.size(), 2u);
  EXPECT_EQ(a.tracks[0].sections[0].count, 17u);
  EXPECT_EQ(a.tracks[0].sections[0].total_ns, 1500u);
  EXPECT_EQ(a.scopes, 17u);
  EXPECT_EQ(a.counted, 7u);
  EXPECT_EQ(a.wall_ns, 8000u);

  std::string json;
  a.append_json(json);
  // Deterministic fields (counts) must precede the "host" object that holds
  // every nanosecond field, so tooling can strip host time with one regex.
  EXPECT_LT(json.find("\"counts\""), json.find("\"host\""));
  EXPECT_GT(json.find("\"wall_ns\""), json.find("\"host\""));
}

// ---------------------------------------------------------------- spans

TEST(SpanRecorder, AssembleLinksFloodTreeAcrossRecorders) {
  // Router 0 originates (local episode) and sends seq 5 to router 1, which
  // processes it on a different shard's recorder, changes a successor and
  // later forwards the first packet for that destination.
  obs::SpanRecorder r0(/*num_nodes=*/3);
  obs::SpanRecorder r1(/*num_nodes=*/3);

  r0.begin_local_episode(/*self=*/0, /*t=*/1.0);
  r0.on_send(/*self=*/0, /*neighbor=*/1, /*seq=*/5, /*t=*/1.0);
  r0.end_episode();

  r1.begin_lsu_episode(/*self=*/1, /*sender=*/0, /*seq=*/5, /*applied=*/true,
                       /*ack=*/false, /*t=*/1.2);
  r1.on_successor_change(/*self=*/1, /*dest=*/2, /*t=*/1.2);
  r1.end_episode();
  r1.on_forward(/*self=*/1, /*dest=*/2, /*next_hop=*/2, /*t=*/1.5);
  // Forwards to other destinations or before any change never record.
  r1.on_forward(/*self=*/1, /*dest=*/0, /*next_hop=*/0, /*t=*/1.6);

  const auto report = obs::assemble_spans({&r0, &r1});
  ASSERT_EQ(report.spans.size(), 1u);
  const auto& span = report.spans[0];
  EXPECT_EQ(span.origin, 0);
  EXPECT_TRUE(span.local);
  EXPECT_DOUBLE_EQ(span.t0, 1.0);
  EXPECT_DOUBLE_EQ(span.duration_s, 0.5);  // converged at the 1.5s forward
  EXPECT_EQ(span.episodes, 2u);
  EXPECT_EQ(span.sends, 1u);
  EXPECT_EQ(span.routers_touched, 2u);
  EXPECT_EQ(span.successor_changes, 1u);
  EXPECT_EQ(span.first_forwards, 1u);
}

TEST(SpanRecorder, SecondSuccessorChangeReusesPendingSlot) {
  obs::SpanRecorder r(/*num_nodes=*/2);
  r.begin_local_episode(/*self=*/0, /*t=*/1.0);
  r.on_send(/*self=*/0, /*neighbor=*/1, /*seq=*/1, /*t=*/1.0);
  r.on_successor_change(/*self=*/0, /*dest=*/1, /*t=*/1.0);
  r.end_episode();
  // A later episode re-flips the same destination before any forward: the
  // pending slot must re-point to the newest episode, not duplicate.
  r.begin_local_episode(/*self=*/0, /*t=*/2.0);
  r.on_send(/*self=*/0, /*neighbor=*/1, /*seq=*/2, /*t=*/2.0);
  r.on_successor_change(/*self=*/0, /*dest=*/1, /*t=*/2.0);
  r.end_episode();
  r.on_forward(/*self=*/0, /*dest=*/1, /*next_hop=*/1, /*t=*/2.5);
  r.on_forward(/*self=*/0, /*dest=*/1, /*next_hop=*/1, /*t=*/2.6);  // ignored

  const auto report = obs::assemble_spans({&r});
  ASSERT_EQ(report.spans.size(), 2u);
  // First span never saw its forward; second converged at 2.5.
  EXPECT_DOUBLE_EQ(report.spans[0].duration_s, 0.0);
  EXPECT_EQ(report.spans[0].first_forwards, 0u);
  EXPECT_DOUBLE_EQ(report.spans[1].duration_s, 0.5);
  EXPECT_EQ(report.spans[1].first_forwards, 1u);
}

}  // namespace
}  // namespace mdr
