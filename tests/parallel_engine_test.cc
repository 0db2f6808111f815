// Sharded conservative parallel engine: the SPSC handoff primitives in
// isolation, the window barrier's completion protocol, and the headline
// property — same-seed output is byte-identical for ANY shard count, under
// full chaos (crashes, flaps, bursty loss, corruption) and under a flap
// storm with the resilience stack on. See docs/SIMULATOR.md "Parallel
// engine".
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/sampler.h"
#include "runner/experiment_runner.h"
#include "sim/event_queue.h"
#include "sim/network_sim.h"
#include "sim/parallel_engine.h"
#include "sim/scenario.h"
#include "sim/spsc_ring.h"
#include "topo/builders.h"
#include "topo/flows.h"

namespace mdr {
namespace {

// ---------------------------------------------------------------- SPSC ring

TEST(SpscRing, RoundsCapacityUpToAPowerOfTwo) {
  EXPECT_EQ(sim::SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(sim::SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(sim::SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(sim::SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRing, FifoAcrossManyWraparounds) {
  sim::SpscRing<int> ring(8);
  int next_push = 0, next_pop = 0;
  // Interleave pushes and pops so the cursors wrap the 8-slot ring many
  // times; FIFO order must survive every wraparound.
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 3; ++i) {
      int v = next_push;
      ASSERT_TRUE(ring.try_push(v));
      ++next_push;
    }
    int out = -1;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullRingRefusesPushAndLeavesItemIntact) {
  sim::SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  int rejected = 99;
  EXPECT_FALSE(ring.try_push(rejected));
  EXPECT_EQ(rejected, 99);  // untouched on failure
  EXPECT_EQ(ring.size(), 4u);

  int out = -1;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(rejected));  // one slot freed
  // Drain: 1, 2, 3, then the late 99.
  for (const int want : {1, 2, 3, 99}) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, ConcurrentProducerConsumerPreservesOrder) {
  // The real usage pattern: one producing thread, one consuming thread,
  // tiny ring so both sides hit the full/empty edges constantly. Run under
  // TSan (MDR_SANITIZE=thread) this also proves the memory ordering.
  sim::SpscRing<std::uint64_t> ring(16);
  constexpr std::uint64_t kItems = 200000;
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kItems;) {
      std::uint64_t v = i;
      if (ring.try_push(v)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t expect = 0;
  while (expect < kItems) {
    std::uint64_t out = 0;
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

TEST(HandoffChannel, OverflowSpillsAndDrainPreservesPushOrder) {
  sim::HandoffChannel channel(4);  // ring holds 4; the rest must spill
  for (int i = 0; i < 10; ++i) {
    sim::HandoffItem item;
    item.deliver_at = i;
    item.key = sim::delivery_key(0, static_cast<std::uint64_t>(i));
    channel.push(std::move(item));
  }
  EXPECT_EQ(channel.spilled(), 6u);

  std::vector<double> order;
  channel.drain([&order](sim::HandoffItem&& item) {
    order.push_back(item.deliver_at);
  });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);  // ring then spill

  // The spill buffer was consumed, not copied: a second drain is empty.
  int drained = 0;
  channel.drain([&drained](sim::HandoffItem&&) { ++drained; });
  EXPECT_EQ(drained, 0);
  EXPECT_EQ(channel.spilled(), 6u);  // cumulative statistic
}

TEST(DeliveryKey, IsUniqueAndSortsAfterLocalSeqs) {
  const std::uint64_t k = sim::delivery_key(3, 7);
  EXPECT_TRUE(k & (1ull << 63));  // sorts after any local FIFO seq
  EXPECT_NE(sim::delivery_key(3, 7), sim::delivery_key(3, 8));
  EXPECT_NE(sim::delivery_key(3, 7), sim::delivery_key(4, 7));
  EXPECT_LT(sim::delivery_key(3, 7), sim::delivery_key(3, 8));
  EXPECT_LT(sim::delivery_key(3, 999), sim::delivery_key(4, 0));
}

// ------------------------------------------------------------ WindowBarrier

TEST(WindowBarrier, CompletionRunsExactlyOncePerWindowWhileOthersPark) {
  constexpr int kThreads = 4;
  constexpr int kWindows = 200;
  std::atomic<int> in_window{0};
  int completions = 0;          // written only inside the completion hook
  std::vector<int> seen(kWindows, 0);
  sim::WindowBarrier barrier(kThreads, [&] {
    // Every participant has arrived: the per-window counter must be full.
    EXPECT_EQ(in_window.load(), kThreads);
    in_window.store(0);
    seen[completions] += 1;
    ++completions;
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int w = 0; w < kWindows; ++w) {
        in_window.fetch_add(1);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completions, kWindows);
  for (const int count : seen) EXPECT_EQ(count, 1);
}

// --------------------------------------------------------- shard assignment

TEST(ShardAssignment, IsAStableNameHashIndependentOfShardCount) {
  const auto topo = topo::make_cairn();
  const auto by4 = sim::assign_shards(topo, 4);
  ASSERT_EQ(by4.size(), topo.num_nodes());
  for (const int s : by4) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
  // Recomputation is identical, and each node's shard depends only on its
  // own name: n's shard at 4 shards is fnv1a(name) % 4 by definition.
  EXPECT_EQ(by4, sim::assign_shards(topo, 4));
  for (graph::NodeId n = 0; n < static_cast<graph::NodeId>(topo.num_nodes());
       ++n) {
    EXPECT_EQ(static_cast<std::uint64_t>(by4[n]),
              sim::fnv1a(topo.name(n)) % 4);
  }
  // One shard degenerates to everything-on-0.
  for (const int s : sim::assign_shards(topo, 1)) EXPECT_EQ(s, 0);
}

TEST(ShardAssignment, LookaheadIsTheMinCrossShardPropDelay) {
  const auto topo = topo::make_net1();  // every prop delay is 100 us
  const auto shard_of = sim::assign_shards(topo, 4);
  EXPECT_DOUBLE_EQ(sim::min_cross_shard_prop(topo, shard_of), 100e-6);
  // All on one shard: no cross-shard link, lookahead is unbounded.
  const std::vector<int> all_zero(topo.num_nodes(), 0);
  EXPECT_GT(sim::min_cross_shard_prop(topo, all_zero), 1e30);
}

// --------------------------------------------------- typed timer scheduling

TEST(TimerClasses, TypedScheduleIsCountedPerClassAndShimsMapToGeneric) {
  sim::EventQueue events;
  int fired = 0;
  events.schedule_timer(sim::TimerClass::kGeneric, 1.0, [&] { ++fired; });
  events.schedule_timer_in(sim::TimerClass::kRetransmit, 2.0, [&] { ++fired; });
  events.schedule_timer_at(3.0, [&] { ++fired; });  // compat shim
  events.schedule_timer_in(4.0, [&] { ++fired; });  // compat shim
  EXPECT_EQ(events.timers_scheduled(sim::TimerClass::kGeneric), 3u);
  EXPECT_EQ(events.timers_scheduled(sim::TimerClass::kRetransmit), 1u);
  EXPECT_EQ(events.timers_scheduled(sim::TimerClass::kHello), 0u);
  events.run_until(5.0);
  EXPECT_EQ(fired, 4);
}

// ------------------------------------------------------- engine validation

// Four routers in a ring; the a-b link has zero propagation delay. With a
// and b on different shards the window lookahead would be 0, and the
// coordinator would size empty windows forever — so the combination must
// be refused before anything runs.
struct ZeroDelayRing {
  graph::Topology topo;
  std::vector<topo::FlowSpec> flows{{"a", "c", 1e5}};
  ZeroDelayRing() {
    for (const char* name : {"a", "b", "c", "d"}) topo.add_node(name);
    topo.add_duplex(0, 1, graph::LinkAttr{1e6, 0.0});
    topo.add_duplex(1, 2, graph::LinkAttr{1e6, 1e-3});
    topo.add_duplex(2, 3, graph::LinkAttr{1e6, 1e-3});
    topo.add_duplex(3, 0, graph::LinkAttr{1e6, 1e-3});
  }
};

TEST(EngineValidation, ZeroDelayCrossShardLinkIsRejectedWithoutRunning) {
  const ZeroDelayRing ring;
  sim::SimConfig config;
  config.duration = 1;
  for (const int shards : {2, 4}) {
    const auto shard_of = sim::assign_shards(ring.topo, shards);
    ASSERT_NE(shard_of[0], shard_of[1])
        << "a and b must sit on different shards at " << shards;
    sim::EngineSpec engine;
    engine.shards = shards;
    try {
      sim::validate_engine(ring.topo, config, engine);
      ADD_FAILURE() << "validate_engine accepted shards=" << shards;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("zero propagation delay"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(sim::NetworkSim(ring.topo, ring.flows, config, engine),
                 std::invalid_argument);
  }
  // One shard keeps every link local: nothing to refuse.
  EXPECT_NO_THROW(sim::validate_engine(ring.topo, config, sim::EngineSpec{}));
  EXPECT_NO_THROW(sim::NetworkSim(ring.topo, ring.flows, config));

  // The scenario parser reports it as a diagnostic.
  std::istringstream scn(
      "node a\nnode b\nnode c\nnode d\n"
      "link a b prop=0\nlink b c\nlink c d\nlink d a\n"
      "flow a c rate=1e5\nengine shards=2\n");
  std::string error;
  EXPECT_FALSE(sim::parse_scenario(scn, &error).has_value());
  EXPECT_NE(error.find("zero propagation delay"), std::string::npos) << error;
}

TEST(EngineValidation, DefaultIsOneShardAndBadCountsOrRecorderAreRejected) {
  EXPECT_EQ(sim::EngineSpec{}.shards, 1);
  const auto topo = topo::make_net1();
  const auto flows = topo::net1_flows(0.3);
  sim::SimConfig config;
  for (const int shards : {0, -1}) {
    sim::EngineSpec engine;
    engine.shards = shards;
    EXPECT_THROW(sim::validate_engine(topo, config, engine),
                 std::invalid_argument);
    EXPECT_THROW(sim::NetworkSim(topo, flows, config, engine),
                 std::invalid_argument);
  }
  // The flight recorder is single-threaded: trace/flightrec need 1 shard.
  sim::EngineSpec two;
  two.shards = 2;
  for (const bool trace : {true, false}) {
    sim::SimConfig recorded = config;
    recorded.trace = trace;
    recorded.flightrec_capacity = trace ? 0 : 16;
    try {
      sim::validate_engine(topo, recorded, two);
      ADD_FAILURE() << "recorder accepted at 2 shards";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("needs shards=1"),
                std::string::npos)
          << e.what();
    }
    EXPECT_NO_THROW(
        sim::validate_engine(topo, recorded, sim::EngineSpec{}));
  }
}

// ------------------------------------------------- shard-count determinism

// Serializes EVERYTHING a run reports — per-flow aggregates, monitor
// report, merged metric registry — through the real runner path, so a
// single byte of divergence anywhere in the pipeline fails the property.
// write_results_json rows carry two fields that legitimately differ here:
// the flat "host" object (wall clock / peak RSS vary between any two runs)
// and "shard_events" (per-shard counts depend on the shard count by
// definition). Strip both before comparing, exactly like
// tests/mdrsim_telemetry.cmake strips "host" before its byte comparison.
std::string strip_host_varying(const std::string& doc) {
  static const std::regex host{R"re(, "host": \{[^}]*\})re"};
  static const std::regex shard_events{R"re(, "shard_events": \[[^\]]*\])re"};
  return std::regex_replace(std::regex_replace(doc, host, ""), shard_events,
                            "");
}

std::string render_batch(const sim::ExperimentSpec& spec) {
  runner::ExperimentRunner r(runner::Options{/*jobs=*/1, /*base_seed=*/17});
  const auto batch = r.run_replicated(spec, "mp", /*replications=*/2);
  std::ostringstream out;
  runner::write_results_json(out, batch, "shard-property");
  obs::write_metrics_jsonl(out, batch.metrics, "0");
  for (const auto& run : batch.runs) {
    EXPECT_TRUE(run.monitor.has_value()) << "monitor must be on";
    if (!run.monitor.has_value()) continue;
    out << "monitor " << run.monitor->checks << " "
        << run.monitor->forwarding_loops << " " << run.monitor->blackholes
        << " " << run.monitor->accounting_leaks << "\n";
    out << "events " << run.events_processed << " lfi " << run.lfi_checks
        << "/" << run.lfi_violations << "\n";
  }
  return strip_host_varying(out.str());
}

void expect_shard_count_invariance(sim::ExperimentSpec spec) {
  spec.engine.shards = 1;
  spec.engine.ring_capacity = 8;  // tiny ring: exercise the spill path
  const std::string baseline = render_batch(spec);
  ASSERT_FALSE(baseline.empty());
  for (const int shards : {2, 4, 8}) {
    spec.engine.shards = shards;
    EXPECT_EQ(render_batch(spec), baseline) << "shards=" << shards;
  }
}

sim::SimConfig chaos_config() {
  // The chaos scenario in miniature: two crashes (one fast reboot), a
  // flapping backbone link, bursty loss, control corruption + duplication,
  // with monitor / LFI / sampler sweeps all exercising the coordinator's
  // pause plan.
  sim::SimConfig config;
  config.use_hello = true;
  config.hello.interval = 1.0;
  config.hello.dead_interval = 3.5;
  config.traffic_start = 4.0;
  config.warmup = 2.0;
  config.duration = 14.0;
  config.faults.crashes.push_back({8.0, "tioc"});
  config.faults.recoveries.push_back({11.0, "tioc"});
  config.faults.crashes.push_back({13.0, "mci-r"});
  config.faults.recoveries.push_back({13.5, "mci-r"});
  config.faults.flaps.push_back({"bbn", "bell", 4.0, 0.5, 6.0, 16.0});
  config.faults.gilbert.push_back(
      {"anl", "cmu", fault::GilbertParams{0.05, 0.3, 0.3, 0.0}});
  config.faults.chaos.corrupt_rate = 0.01;
  config.faults.chaos.duplicate_rate = 0.01;
  config.monitor_interval = 0.5;
  config.lfi_check_interval = 1.0;
  config.sample_interval = 2.0;
  return config;
}

sim::SimConfig storm_config() {
  // The storm scenario in miniature: three flapping links under fast
  // hellos, with LSU pacing and flap damping shedding the flood.
  sim::SimConfig config;
  config.use_hello = true;
  config.hello.interval = 0.5;
  config.hello.dead_interval = 1.75;
  config.tl = 2.0;
  config.traffic_start = 4.0;
  config.warmup = 2.0;
  config.duration = 12.0;
  config.faults.flaps.push_back({"0", "9", 4.0, 0.5, 5.0, 15.0});
  config.faults.flaps.push_back({"4", "5", 4.0, 0.5, 6.0, 16.0});
  config.faults.flaps.push_back({"2", "3", 4.0, 0.5, 7.0, 15.0});
  config.pacing.enabled = true;
  config.pacing.min_interval = 0.5;
  config.pacing.max_interval = 2.0;
  config.damping.enabled = true;
  config.damping.penalty = 1.0;
  config.damping.suppress_threshold = 2.0;
  config.damping.reuse_threshold = 1.0;
  config.damping.half_life = 4.0;
  config.monitor_interval = 0.5;
  config.sample_interval = 2.0;
  return config;
}

TEST(ParallelEngine, ChaosOutputIsByteIdenticalForAnyShardCount) {
  sim::ExperimentSpec spec{topo::make_cairn(), topo::cairn_flows(0.5),
                           chaos_config(), sim::EngineSpec{}};
  expect_shard_count_invariance(std::move(spec));
}

TEST(ParallelEngine, StormOutputIsByteIdenticalForAnyShardCount) {
  sim::ExperimentSpec spec{topo::make_net1(), topo::net1_flows(0.3),
                           storm_config(), sim::EngineSpec{}};
  expect_shard_count_invariance(std::move(spec));
}

TEST(ParallelEngine, ShardedRunConservesPacketsAndKeepsInvariants) {
  sim::SimConfig config = chaos_config();
  sim::EngineSpec engine;
  engine.shards = 4;
  const auto result = sim::run_simulation(topo::make_cairn(),
                                          topo::cairn_flows(0.5), config,
                                          engine);
  EXPECT_GT(result.delivered, 0u);
  EXPECT_GT(result.events_processed, 0u);
  // LFI snapshots DO flag violations here — a crashed router's state is
  // gone mid-sweep, at every shard count (the byte-identity tests above
  // pin the counts to be shard-count-invariant).
  EXPECT_GT(result.lfi_checks, 0u);
  ASSERT_TRUE(result.monitor.has_value());
  EXPECT_EQ(result.monitor->forwarding_loops, 0u);
  EXPECT_EQ(result.monitor->accounting_leaks, 0u);
}

}  // namespace
}  // namespace mdr
