// Crash-safe checkpoint/resume (src/ckpt/ + NetworkSim save/restore).
//
// The load-bearing property is byte-identical recovery: a run that
// checkpoints is byte-identical to one that doesn't, and a run resumed
// from a snapshot finishes byte-identical to one that was never
// interrupted — at 1 and 4 shards, under chaos faults, adversarial
// traffic, telemetry and the flight recorder. The format tests pin the
// container down: corruption, truncation and version skew are rejected,
// never misread. See docs/CHECKPOINT.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.h"
#include "core/mpda.h"
#include "obs/sampler.h"
#include "sim/event_queue.h"
#include "sim/experiment.h"
#include "sim/network_sim.h"
#include "sim/scenario.h"
#include "topo/builders.h"
#include "proto/pda.h"
#include "topo/flows.h"
#include "util/rng.h"

namespace mdr {
namespace {

// ------------------------------------------------------------- container

TEST(CkptFormat, RoundTripsEveryPrimitive) {
  ckpt::Writer w;
  w.mark(0xAB);
  w.u8(7);
  w.b(true);
  w.b(false);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(-1.5e-300);
  w.f64(std::numeric_limits<double>::infinity());
  w.str("hello \n world");
  w.bytes({1, 2, 3});
  ckpt::Reader r(w.payload());
  r.expect_mark(0xAB);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -1.5e-300);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.str(), "hello \n world");
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.at_end());
  r.expect_end();
}

TEST(CkptFormat, MismatchedMarkAndOverrunThrow) {
  ckpt::Writer w;
  w.mark(0x01);
  w.u32(5);
  ckpt::Reader r(w.payload());
  EXPECT_THROW(r.expect_mark(0x02), ckpt::Error);
  ckpt::Reader r2(w.payload());
  r2.expect_mark(0x01);
  EXPECT_EQ(r2.u32(), 5u);
  EXPECT_THROW(r2.u32(), ckpt::Error);  // reading past the payload
}

class CkptFile : public ::testing::Test {
 protected:
  std::string path() const {
    return ::testing::TempDir() + "ckpt_file_test.mdrk";
  }

  void write_valid() {
    ckpt::Writer w;
    w.mark(0x77);
    for (std::uint64_t i = 0; i < 64; ++i) w.u64(i * i);
    w.write_file(path());
  }

  // Overwrites one byte at `offset` in the on-disk file.
  void patch(std::size_t offset, std::uint8_t value) {
    std::fstream f(path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(value));
  }

  void truncate_to(std::size_t size) {
    std::ifstream in(path(), std::ios::binary);
    std::vector<char> all((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    ASSERT_GE(all.size(), size);
    std::ofstream out(path(), std::ios::binary | std::ios::trunc);
    out.write(all.data(), static_cast<std::streamsize>(size));
  }
};

TEST_F(CkptFile, ValidFileRoundTrips) {
  write_valid();
  auto r = ckpt::Reader::from_file(path());
  r.expect_mark(0x77);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(r.u64(), i * i);
  r.expect_end();
}

TEST_F(CkptFile, RejectsBadMagic) {
  write_valid();
  patch(0, 0x00);  // first magic byte
  EXPECT_THROW(ckpt::Reader::from_file(path()), ckpt::Error);
}

TEST_F(CkptFile, RejectsVersionSkew) {
  write_valid();
  patch(4, static_cast<std::uint8_t>(ckpt::kVersion + 1));  // wrong version
  try {
    ckpt::Reader::from_file(path());
    FAIL() << "version skew accepted";
  } catch (const ckpt::Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(CkptFile, RejectsCorruptedPayload) {
  write_valid();
  patch(16 + 100, 0xFF);  // header is 16 bytes; flip a payload byte
  EXPECT_THROW(ckpt::Reader::from_file(path()), ckpt::Error);
}

TEST_F(CkptFile, RejectsTruncation) {
  write_valid();
  truncate_to(16 + 40);  // mid-payload, checksum gone
  EXPECT_THROW(ckpt::Reader::from_file(path()), ckpt::Error);
  EXPECT_THROW(
      {
        write_valid();
        truncate_to(10);  // mid-header
        ckpt::Reader::from_file(path());
      },
      ckpt::Error);
}

TEST_F(CkptFile, MissingFileThrows) {
  EXPECT_THROW(ckpt::Reader::from_file(::testing::TempDir() + "nope.mdrk"),
               ckpt::Error);
}

// ------------------------------------------------------------------- Rng

TEST(CkptRng, MidStreamSaveRestoresTheExactSequence) {
  Rng original(12345);
  for (int i = 0; i < 1000; ++i) original.uniform();  // advance mid-stream
  ckpt::Writer w;
  original.save(w);
  // Draw through several distribution types; each consumes engine state
  // differently, so any divergence shows up fast.
  std::vector<double> expect;
  for (int i = 0; i < 100; ++i) {
    expect.push_back(original.uniform());
    expect.push_back(original.exponential(2.5));
    expect.push_back(static_cast<double>(original.uniform_int(0, 1000)));
  }
  Rng restored(999);  // different seed: load must fully overwrite
  ckpt::Reader r(w.payload());
  restored.load(r);
  for (std::size_t i = 0; i < expect.size(); i += 3) {
    EXPECT_EQ(restored.uniform(), expect[i]);
    EXPECT_EQ(restored.exponential(2.5), expect[i + 1]);
    EXPECT_EQ(static_cast<double>(restored.uniform_int(0, 1000)),
              expect[i + 2]);
  }
}

// ------------------------------------------------------------ EventQueue

// A codec for pure-callback queues: tags reconstruct logging closures.
sim::EventQueueCodec logging_codec(std::vector<std::uint64_t>* log) {
  sim::EventQueueCodec codec;
  codec.make_callback = [log](std::uint8_t tag, std::uint64_t a, double) {
    return std::function<void()>(
        [log, tag, a] { log->push_back((std::uint64_t{tag} << 32) | a); });
  };
  return codec;
}

TEST(CkptEventQueue, MidCascadeSaveRestoresTimerWheelExactly) {
  // Timers spanning near slots, far slots and the overflow region of the
  // 256-slot / 62.5 ms-tick wheel, saved at a time that is NOT slot
  // aligned — the partially cascaded wheel state must survive the trip.
  std::vector<std::uint64_t> direct_log, resumed_log;
  sim::EventQueue a;
  std::uint64_t id = 0;
  for (const double t : {0.03, 0.5, 1.7, 2.111, 5.3, 15.9, 17.2, 40.0}) {
    const std::uint64_t me = id++;
    a.schedule_timer(
        sim::TimerClass::kGeneric, t,
        [&direct_log, me] { direct_log.push_back((7ull << 32) | me); },
        /*tag=*/7, /*a=*/me);
  }
  // Heap events interleaved with the wheel.
  for (const double t : {1.95, 2.105, 39.99}) {
    const std::uint64_t me = id++;
    a.schedule_at(
        t, [&direct_log, me] { direct_log.push_back((9ull << 32) | me); },
        /*tag=*/9, /*a=*/me);
  }
  a.run_until(2.1);  // mid-cascade: between the 2.105 and 2.111 firings
  const std::size_t fired_at_save = direct_log.size();
  ASSERT_GT(fired_at_save, 0u);
  ASSERT_LT(fired_at_save, id);

  ckpt::Writer w;
  a.save(w, logging_codec(&direct_log));

  // The original queue runs to the end...
  a.run_until(50.0);
  ASSERT_EQ(direct_log.size(), id);  // every scheduled event fired

  // ...and the restored copy must fire the same events in the same order.
  sim::EventQueue b;
  ckpt::Reader r(w.payload());
  b.load(r, logging_codec(&resumed_log));
  r.expect_end();
  EXPECT_EQ(b.now(), 2.1);  // run_until leaves now() at the slice boundary
  b.run_until(50.0);

  // Events fired after the save point match exactly.
  const std::vector<std::uint64_t> direct_tail(
      direct_log.begin() + static_cast<std::ptrdiff_t>(fired_at_save),
      direct_log.end());
  EXPECT_EQ(resumed_log, direct_tail);
}

TEST(CkptEventQueue, UntaggedPendingCallbackRefusesToSave) {
  sim::EventQueue q;
  q.schedule_at(1.0, [] {});  // untagged: not reconstructible
  ckpt::Writer w;
  std::vector<std::uint64_t> log;
  EXPECT_THROW(q.save(w, logging_codec(&log)), ckpt::Error);
}

// ---------------------------------------------- end-to-end byte identity

// Serializes EVERYTHING a run reports — counters, flows, monitor/stability
// reports, full telemetry (samples, metrics, trace and flight dumps) — at
// max_digits10, so a single bit of divergence anywhere fails the property.
std::string render(const sim::SimResult& r, const sim::ExperimentSpec& spec) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "delivered " << r.delivered << " drops " << r.dropped_no_route << " "
      << r.dropped_ttl << " " << r.dropped_queue << " " << r.dropped_dead
      << " events " << r.events_processed << " avg " << r.avg_delay_s << "\n";
  out << "control " << r.control_messages << " " << r.control_bits << " "
      << r.control_garbage << " " << r.control_dropped << " "
      << r.lsus_originated << " " << r.lsus_retransmitted << " "
      << r.lsus_suppressed << " " << r.acks_sent << " "
      << r.damped_withdrawals << "\n";
  for (const auto& f : r.flows) {
    out << "flow " << f.src << ">" << f.dst << " " << f.delivered << " "
        << f.mean_delay_s << " " << f.p95_delay_s << " " << f.stddev_delay_s
        << "\n";
  }
  for (const auto& l : r.links) {
    out << "link " << l.from << ">" << l.to << " " << l.data_bits << " "
        << l.control_bits << " " << l.utilization << "\n";
  }
  out << "lfi " << r.lfi_checks << "/" << r.lfi_violations << "\n";
  if (r.monitor.has_value()) {
    out << "monitor " << sim::monitor_report_json(*r.monitor) << "\n";
  }
  if (r.stability.has_value()) {
    out << "stability " << sim::stability_report_json(*r.stability) << "\n";
  }
  if (r.telemetry.has_value()) {
    const auto names = sim::telemetry_names(spec.topo, spec.flows);
    obs::write_samples_jsonl(out, *r.telemetry, names, /*run=*/0);
    obs::write_metrics_jsonl(out, r.telemetry->metrics, "0");
    obs::write_trace_jsonl(out, *r.telemetry, names, /*run=*/0);
  }
  return out.str();
}

// The property itself. Three runs of the same spec:
//   1. baseline — no checkpointing at all;
//   2. enabled — periodic snapshots to `path` (must not perturb: a
//      checkpoint-enabled run is byte-identical to a disabled one);
//   3. resumed — restore from the LAST snapshot written by (2) and run
//      to the end (kill-at-the-last-boundary + resume, in process).
// All three must render byte-identically. Resume keeps the checkpoint
// settings (as a real re-invocation would): the engine's resume cursor
// indexes the coordinator pause plan, which must match save time.
void expect_round_trip(sim::ExperimentSpec spec, const std::string& mode,
                       double interval, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "ckpt_" + tag + ".mdrk";
  spec.config.checkpoint_interval = 0;
  spec.config.checkpoint_path.clear();
  spec.config.resume_from.clear();
  const std::string baseline = render(sim::run_experiment(spec, mode), spec);
  ASSERT_FALSE(baseline.empty());

  spec.config.checkpoint_interval = interval;
  spec.config.checkpoint_path = path;
  const std::string enabled = render(sim::run_experiment(spec, mode), spec);
  EXPECT_EQ(enabled, baseline) << tag << ": checkpointing perturbed the run";

  spec.config.resume_from = path;
  const std::string resumed = render(sim::run_experiment(spec, mode), spec);
  EXPECT_EQ(resumed, baseline) << tag << ": resume diverged";
  std::remove(path.c_str());
}

sim::ExperimentSpec load_spec(const std::string& name, std::string* mode) {
  std::string error;
  const auto scenario = sim::load_scenario(
      std::string(MDR_SOURCE_DIR) + "/examples/scenarios/" + name, &error);
  EXPECT_TRUE(scenario.has_value()) << error;
  *mode = scenario->mode;
  return scenario->spec;
}

TEST(CkptRoundTrip, CairnMpScenario) {
  std::string mode;
  auto spec = load_spec("cairn_mp.scn", &mode);
  spec.config.duration = 16;  // the property is duration-independent
  spec.config.sample_interval = 2.0;  // exercise telemetry checkpointing
  expect_round_trip(std::move(spec), mode, /*interval=*/5.0, "cairn_mp");
}

TEST(CkptRoundTrip, ChaosScenarioWithFaultsInFlight) {
  // Crashes at 15/24, recovery at 19/24.5, a flapping link and bursty
  // loss: the 7 s checkpoint cadence lands snapshots between fault
  // descriptors, with crashed routers and pending flap timers in flight.
  std::string mode;
  auto spec = load_spec("chaos.scn", &mode);
  spec.config.duration = 26;
  expect_round_trip(std::move(spec), mode, /*interval=*/7.0, "chaos");
}

TEST(CkptRoundTrip, ChaosScenarioWithFlightRecorder) {
  // The recorder's rings, full trace and incident dumps ride in the
  // snapshot: the crashes open monitor incidents that dump the rings both
  // before and after the 7 s checkpoint cadence.
  std::string mode;
  auto spec = load_spec("chaos.scn", &mode);
  spec.config.duration = 26;
  spec.config.flightrec_capacity = 64;
  spec.config.trace = true;
  expect_round_trip(std::move(spec), mode, /*interval=*/7.0, "chaos_rec");
}

TEST(CkptRoundTrip, ChaosScenarioSharded) {
  std::string mode;
  auto spec = load_spec("chaos.scn", &mode);
  spec.config.duration = 26;
  spec.engine.shards = 4;  // snapshots at coordinator window barriers
  expect_round_trip(std::move(spec), mode, /*interval=*/7.0, "chaos_sh4");
}

TEST(CkptRoundTrip, StormScenario) {
  std::string mode;
  auto spec = load_spec("storm.scn", &mode);
  spec.config.duration = 20;  // three flapping links + pacing + damping
  expect_round_trip(std::move(spec), mode, /*interval=*/6.0, "storm");
}

TEST(CkptRoundTrip, AdversarialScenarioWithStabilityMonitor) {
  std::string mode;
  auto spec = load_spec("adversarial.scn", &mode);
  spec.config.duration = 16;
  expect_round_trip(std::move(spec), mode, /*interval=*/5.0, "adversarial");
}

TEST(CkptRoundTrip, GeneratedWaxmanOneAndFourShards) {
  // A small generated Waxman (the scale scenario's shape, test sized):
  // random topology + random flows, at 1 and 4 shards.
  Rng rng(11);
  sim::ExperimentSpec spec;
  spec.topo = topo::make_waxman(30, 0.4, 0.3, rng, /*capacity_bps=*/10e6,
                                /*max_prop_delay_s=*/5e-3, /*min_prop=*/1e-3);
  spec.flows = topo::random_flows(spec.topo, 10, 8e5, rng);
  spec.config.seed = 23;
  spec.config.traffic_start = 2;
  spec.config.warmup = 3;
  spec.config.duration = 12;
  expect_round_trip(spec, "mp", /*interval=*/4.0, "waxman_sh1");
  spec.engine.shards = 4;
  expect_round_trip(std::move(spec), "mp", /*interval=*/4.0, "waxman_sh4");
}

// ------------------------------------------------------ interrupt/cancel

TEST(CkptInterrupt, StopFlagWritesASnapshotAndResumeMatchesBaseline) {
  // The mdrsim SIGINT path, in process: the stop flag is already set when
  // the run starts, so the very first window barrier writes a final
  // checkpoint and raises SimInterrupted. Resuming from that snapshot
  // must finish byte-identical to a run that was never interrupted.
  for (const int shards : {1, 4}) {
    sim::ExperimentSpec spec{topo::make_net1(), topo::net1_flows(0.5), {}, {}};
    spec.engine.shards = shards;
    spec.config.seed = 31;
    spec.config.traffic_start = 2;
    spec.config.warmup = 3;
    spec.config.duration = 12;
    spec.config.sample_interval = 2.0;
    const std::string baseline =
        render(sim::run_experiment(spec, "mp"), spec);

    const std::string path = ::testing::TempDir() + "ckpt_interrupt.mdrk";
    std::atomic<bool> stop{true};
    auto interrupted_spec = spec;
    interrupted_spec.config.checkpoint_interval = 4.0;
    interrupted_spec.config.checkpoint_path = path;
    interrupted_spec.config.interrupt = &stop;
    bool threw = false;
    try {
      sim::run_experiment(interrupted_spec, "mp");
    } catch (const sim::SimInterrupted& e) {
      threw = true;
      // Partial telemetry rides on the exception for the caller to flush.
      EXPECT_TRUE(e.telemetry.has_value());
    }
    ASSERT_TRUE(threw) << "interrupt flag was ignored at shards=" << shards;

    auto resumed_spec = spec;
    resumed_spec.config.checkpoint_interval = 4.0;
    resumed_spec.config.checkpoint_path = path;
    resumed_spec.config.resume_from = path;
    const std::string resumed =
        render(sim::run_experiment(resumed_spec, "mp"), spec);
    EXPECT_EQ(resumed, baseline) << "shards=" << shards;
    std::remove(path.c_str());
  }
}

TEST(CkptInterrupt, CancelFlagRaisesSimCancelled) {
  sim::ExperimentSpec spec{topo::make_net1(), topo::net1_flows(0.5), {}, {}};
  spec.config.seed = 31;
  spec.config.duration = 10;
  std::atomic<bool> cancel{true};
  spec.config.cancel = &cancel;
  EXPECT_THROW(sim::run_experiment(spec, "mp"), sim::SimCancelled);
}

// ------------------------------------------------- snapshot sanity checks

TEST(CkptRestore, RejectsSeedAndShardMismatches) {
  sim::ExperimentSpec spec{topo::make_net1(), topo::net1_flows(0.4), {}, {}};
  spec.config.seed = 5;
  spec.config.duration = 6;
  const std::string path = ::testing::TempDir() + "ckpt_mismatch.mdrk";
  spec.config.checkpoint_interval = 3.0;
  spec.config.checkpoint_path = path;
  sim::run_experiment(spec, "mp");

  auto wrong_seed = spec;
  wrong_seed.config.seed = 6;
  wrong_seed.config.resume_from = path;
  EXPECT_THROW(sim::run_experiment(wrong_seed, "mp"), ckpt::Error);

  auto wrong_shards = spec;
  wrong_shards.engine.shards = 2;
  wrong_shards.config.resume_from = path;
  EXPECT_THROW(sim::run_experiment(wrong_shards, "mp"), ckpt::Error);

  auto wrong_topo = spec;
  wrong_topo.topo = topo::make_cairn();
  wrong_topo.flows = topo::cairn_flows(0.4);
  wrong_topo.config.resume_from = path;
  EXPECT_THROW(sim::run_experiment(wrong_topo, "mp"), ckpt::Error);
  std::remove(path.c_str());
}

// ------------------------------------------------ malformed protocol state
//
// A checkpoint is input from outside the program: a file whose checksum
// was recomputed after an edit passes the container checks, so the
// protocol state must reject what save() never writes.

constexpr std::size_t kNodes = 4;
constexpr std::size_t kNoShortVector = 99;

// The checkpoint of a fresh RouterTables(0, kNodes), field by field, with
// per-node vector `short_vec` (0: D_j, 1: preferred neighbor, 2: dirty
// marks, 3: row-dirty attribution) one entry short, and D_1 = `d1`.
void write_fresh_tables(ckpt::Writer& w, std::size_t short_vec,
                        graph::Cost d1 = graph::kInfCost) {
  // Writes per-node vector v's length and returns it.
  const auto put_length = [&](std::size_t v) {
    const std::size_t n = v == short_vec ? kNodes - 1 : kNodes;
    w.u64(n);
    return n;
  };
  w.u64(0);  // main table
  w.u64(0);  // merged table
  w.u64(0);  // neighbor tables
  w.u64(0);  // link costs
  w.u64(0);  // neighbors
  for (std::size_t j = 0, n = put_length(0); j < n; ++j) {
    w.f64(j == 0 ? 0.0 : j == 1 ? d1 : graph::kInfCost);
  }
  for (std::size_t j = 0, n = put_length(1); j < n; ++j) w.i64(graph::kInvalidNode);
  for (std::size_t j = 0, n = put_length(2); j < n; ++j) w.u8(0);
  for (std::size_t j = 0, n = put_length(3); j < n; ++j) w.i64(graph::kInvalidNode);
  w.b(true);  // all dirty
}

// The same for a fresh MpdaProcess(0, kNodes), with per-node vector
// `short_vec` (0: FD, 1: successor sets, 2: successor versions) short.
void write_fresh_mpda(ckpt::Writer& w, std::size_t short_vec) {
  write_fresh_tables(w, kNoShortVector);
  // Writes per-node vector v's length and returns it.
  const auto put_length = [&](std::size_t v) {
    const std::size_t n = v == short_vec ? kNodes - 1 : kNodes;
    w.u64(n);
    return n;
  };
  w.u8(0);   // passive
  w.u32(1);  // next sequence number
  w.u64(0);  // retransmission buffers
  w.u64(0);  // last seen sequence numbers
  w.u64(0);  // pending full syncs
  for (std::size_t j = 0, n = put_length(0); j < n; ++j) {
    w.f64(j == 0 ? 0.0 : graph::kInfCost);
  }
  for (std::size_t j = 0, n = put_length(1); j < n; ++j) w.u64(0);
  for (std::size_t j = 0, n = put_length(2); j < n; ++j) w.u64(0);
  for (int i = 0; i < 6; ++i) w.u64(0);  // sent, pacing, four counters
}

struct NullSink final : proto::LsuSink {
  void send(graph::NodeId, const proto::LsuMessage&) override {}
};

TEST(CkptMalformed, RouterTablesRejectPerNodeVectorsOfTheWrongLength) {
  ckpt::Writer want;
  proto::RouterTables(0, kNodes).save(want);
  ckpt::Writer good;
  write_fresh_tables(good, kNoShortVector);
  ASSERT_EQ(good.payload(), want.payload()) << "the test's format drifted";
  for (std::size_t v = 0; v < 4; ++v) {
    ckpt::Writer w;
    write_fresh_tables(w, v);
    ckpt::Reader r(w.payload());
    proto::RouterTables t(0, kNodes);
    EXPECT_THROW(t.load(r), ckpt::Error) << "vector " << v;
  }
}

TEST(CkptMalformed, RouterTablesRejectDistancesTheMergedTableDoesNotGive) {
  ckpt::Writer w;
  write_fresh_tables(w, kNoShortVector, /*d1=*/5.0);  // node 1 is unknown
  ckpt::Reader r(w.payload());
  proto::RouterTables t(0, kNodes);
  EXPECT_THROW(t.load(r), ckpt::Error);
}

TEST(CkptMalformed, MpdaRejectsPerNodeVectorsOfTheWrongLength) {
  NullSink sink;
  ckpt::Writer want;
  core::MpdaProcess(0, kNodes, sink).save(want);
  ckpt::Writer good;
  write_fresh_mpda(good, kNoShortVector);
  ASSERT_EQ(good.payload(), want.payload()) << "the test's format drifted";
  for (std::size_t v = 0; v < 3; ++v) {
    ckpt::Writer w;
    write_fresh_mpda(w, v);
    ckpt::Reader r(w.payload());
    core::MpdaProcess p(0, kNodes, sink);
    EXPECT_THROW(p.load(r), ckpt::Error) << "vector " << v;
  }
}

// A successor-set count far beyond the neighbor set must be rejected
// before anything is allocated for it, with the file's checksum intact.
TEST(CkptMalformed, MpdaRejectsSuccessorSetsLargerThanTheNeighborSet) {
  NullSink sink;
  ckpt::Writer w;
  write_fresh_tables(w, kNoShortVector);
  w.u8(0);   // passive
  w.u32(1);  // next sequence number
  w.u64(0);  // retransmission buffers
  w.u64(0);  // last seen sequence numbers
  w.u64(0);  // pending full syncs
  w.u64(kNodes);
  for (std::size_t j = 0; j < kNodes; ++j) {
    w.f64(j == 0 ? 0.0 : graph::kInfCost);
  }
  w.u64(kNodes);
  w.u64(std::uint64_t{1} << 40);  // successor set of destination 0
  const std::string path = ::testing::TempDir() + "huge_successors.mdrk";
  w.write_file(path);
  auto r = ckpt::Reader::from_file(path);
  core::MpdaProcess p(0, kNodes, sink);
  EXPECT_THROW(p.load(r), ckpt::Error);
  std::remove(path.c_str());
}

TEST(CkptMalformed, MpdaRejectsSuccessorsThatAreNoNeighbors) {
  NullSink sink;
  core::MpdaProcess orig(0, kNodes, sink);
  orig.on_link_up(1, 1.0);
  ASSERT_EQ(orig.successors(1), std::vector<graph::NodeId>{1});
  ckpt::Writer good;
  orig.save(good);
  // The successor sets as save() writes them: 4 sets, {}, {1}, {}, {}.
  // Claim node 2, which is no neighbor, in place of node 1.
  ckpt::Writer sets;
  for (const std::uint64_t word : {kNodes, std::size_t{0}, std::size_t{1}}) {
    sets.u64(word);
  }
  sets.i64(1);
  std::vector<std::uint8_t> bytes = good.payload();
  const auto at = std::search(bytes.begin(), bytes.end(),
                              sets.payload().begin(), sets.payload().end());
  ASSERT_NE(at, bytes.end()) << "the test's format drifted";
  *(at + static_cast<std::ptrdiff_t>(sets.payload().size()) - 8) = 2;
  ckpt::Reader r(bytes);
  core::MpdaProcess p(0, kNodes, sink);
  EXPECT_THROW(p.load(r), ckpt::Error);
}

}  // namespace
}  // namespace mdr
