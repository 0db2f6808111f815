// Unit tests for src/sim: event queue, links, traffic sources, and small
// end-to-end simulations validated against M/M/1 theory.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cost/delay_model.h"
#include "obs/sampler.h"
#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/network_sim.h"
#include "sim/traffic.h"
#include "topo/builders.h"

namespace mdr::sim {
namespace {

using graph::LinkAttr;
using graph::NodeId;

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilAdvancesClockPastLastEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) q.schedule_in(1.0, chain);
  };
  q.schedule_at(0.0, chain);
  q.run_until(100.0);
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.processed(), 5u);
}

// ------------------------------------------------------------------ SimLink

struct LinkFixture {
  EventQueue events;
  std::vector<Packet> delivered;
  SimLink link;

  explicit LinkFixture(LinkAttr attr, SimLink::Options opts = {})
      : link(events, attr, cost::EstimatorKind::kObservable, 8000,
             [this](Packet p) { delivered.push_back(std::move(p)); }, opts) {}

  Packet data(double bits) {
    Packet p;
    p.kind = Packet::Kind::kData;
    p.size_bits = bits;
    p.created = events.now();
    return p;
  }
};

TEST(SimLink, SinglePacketLatencyIsServicePlusPropagation) {
  LinkFixture f(LinkAttr{1e6, 5e-3});
  f.link.enqueue(f.data(1000 - kHeaderBits));
  f.events.run_until(1.0);
  ASSERT_EQ(f.delivered.size(), 1u);
  // 1000 bits on 1 Mb/s = 1 ms serialization + 5 ms propagation.
  EXPECT_NEAR(f.events.processed() >= 2 ? 6e-3 : 0, 6e-3, 1e-12);
}

TEST(SimLink, FifoQueueingDelaysSecondPacket) {
  LinkFixture f(LinkAttr{1e6, 0.0});
  // Two back-to-back packets of 10^4 bits (incl. header): 10 ms each.
  f.link.enqueue(f.data(1e4 - kHeaderBits));
  f.link.enqueue(f.data(1e4 - kHeaderBits));
  std::vector<Time> arrivals;
  f.events.schedule_at(0.0101, [&] { arrivals.push_back(f.events.now()); });
  f.events.run_until(1.0);
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.link.data_packets(), 2u);
  EXPECT_NEAR(f.link.data_bits(), 2e4, 1.0);
}

TEST(SimLink, ControlPacketsPreemptDataQueue) {
  LinkFixture f(LinkAttr{1e6, 0.0});
  // Fill the data queue, then add a control packet: it must be delivered
  // before the queued data (though after the in-service packet).
  for (int i = 0; i < 3; ++i) f.link.enqueue(f.data(1e4 - kHeaderBits));
  Packet ctrl;
  ctrl.kind = Packet::Kind::kControl;
  ctrl.size_bits = 500;
  f.link.enqueue(std::move(ctrl));
  f.events.run_until(1.0);
  ASSERT_EQ(f.delivered.size(), 4u);
  EXPECT_EQ(f.delivered[1].kind, Packet::Kind::kControl);
}

TEST(SimLink, DownLinkDropsEverything) {
  LinkFixture f(LinkAttr{1e6, 1e-3});
  f.link.enqueue(f.data(1e4));
  f.link.enqueue(f.data(1e4));
  f.link.set_up(false);
  f.events.run_until(1.0);
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_GE(f.link.drops(), 2u);
  // Restored link works again.
  f.link.set_up(true);
  f.link.enqueue(f.data(1e4));
  f.events.run_until(2.0);
  EXPECT_EQ(f.delivered.size(), 1u);
}

TEST(SimLink, QueueLimitDropsDataKeepsControl) {
  SimLink::Options opts;
  opts.queue_limit_bits = 1.5e4;
  LinkFixture f(LinkAttr{1e5, 0.0}, opts);  // slow link: queue builds
  for (int i = 0; i < 5; ++i) f.link.enqueue(f.data(1e4));
  EXPECT_GT(f.link.drops(), 0u);
  Packet ctrl;
  ctrl.kind = Packet::Kind::kControl;
  ctrl.size_bits = 500;
  EXPECT_TRUE(f.link.enqueue(std::move(ctrl)));  // control ignores the cap
}

TEST(SimLink, EstimatorWindowsAreIndependent) {
  LinkFixture f(LinkAttr{1e6, 1e-3});
  for (int i = 0; i < 50; ++i) f.link.enqueue(f.data(8000));
  f.events.run_until(1.0);
  const double short1 = f.link.take_short_estimate();
  EXPECT_GT(short1, 0);
  f.events.run_until(2.0);
  // Short window was reset at t=1 and saw nothing: near zero-load cost.
  const double short2 = f.link.take_short_estimate();
  EXPECT_LT(short2, short1);
  // The long window covers all the traffic since t=0.
  const double long1 = f.link.take_long_estimate();
  EXPECT_GT(long1, short2);
}

TEST(SimLink, UtilizationTracksOfferedLoad) {
  LinkFixture f(LinkAttr{1e6, 0.0});
  // 100 packets of ~10^4 bits = 1 s busy on a 1 Mb/s link.
  for (int i = 0; i < 100; ++i) f.link.enqueue(f.data(1e4 - kHeaderBits));
  f.events.run_until(2.0);
  EXPECT_NEAR(f.link.utilization_estimate(2.0), 0.5, 0.01);
}

// ------------------------------------------------------------------ traffic

TEST(PoissonSource, HitsTargetRate) {
  EventQueue events;
  double bits = 0;
  std::size_t packets = 0;
  FlowShape shape{0, 1, 0, 1e6, 8000};
  PoissonSource src(events, shape, Rng(42), [&](Packet p) {
    bits += p.size_bits;
    ++packets;
  });
  src.run(0, 200.0);
  events.run_until(201.0);
  EXPECT_NEAR(bits / 200.0, 1e6, 0.05e6);
  EXPECT_NEAR(static_cast<double>(packets) / 200.0, 125.0, 6.0);  // 1e6/8e3
}

TEST(PoissonSource, StopsAtStopTime) {
  EventQueue events;
  Time last = 0;
  FlowShape shape{0, 1, 0, 1e6, 8000};
  PoissonSource src(events, shape, Rng(7), [&](Packet p) { last = p.created; });
  src.run(1.0, 5.0);
  events.run_until(100.0);
  EXPECT_GE(last, 1.0);
  EXPECT_LE(last, 5.0);
}

TEST(OnOffSource, LongRunAverageMatchesRate) {
  EventQueue events;
  double bits = 0;
  FlowShape shape{0, 1, 0, 1e6, 8000};
  OnOffSource::Burstiness b{1.0, 3.0};
  OnOffSource src(events, shape, b, Rng(11), [&](Packet p) { bits += p.size_bits; });
  src.run(0, 2000.0);
  events.run_until(2001.0);
  EXPECT_NEAR(bits / 2000.0, 1e6, 0.1e6);
}

TEST(OnOffSource, BurstsExceedAverageRate) {
  // Within an ON period the instantaneous rate is (1+3)/1 = 4x the average.
  EventQueue events;
  std::vector<Time> stamps;
  FlowShape shape{0, 1, 0, 1e6, 8000};
  OnOffSource src(events, shape, {1.0, 3.0}, Rng(13),
                  [&](Packet p) { stamps.push_back(p.created); });
  src.run(0, 500.0);
  events.run_until(501.0);
  ASSERT_GT(stamps.size(), 100u);
  // Median interarrival is far below the 8 ms average spacing.
  std::vector<double> gaps;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    gaps.push_back(stamps[i] - stamps[i - 1]);
  }
  std::sort(gaps.begin(), gaps.end());
  EXPECT_LT(gaps[gaps.size() / 2], 8e-3 * 0.5);
}

TEST(ParetoOnOffSource, LongRunAverageNearTarget) {
  EventQueue events;
  double bits = 0;
  FlowShape shape{0, 1, 0, 1e6, 8000};
  ParetoOnOffSource::Shape burst{1.6, 1.0, 3.0};
  ParetoOnOffSource src(events, shape, burst, Rng(17),
                        [&](Packet p) { bits += p.size_bits; });
  src.run(0, 5000.0);
  events.run_until(5001.0);
  // Heavy tails converge slowly: a generous band around the target.
  EXPECT_NEAR(bits / 5000.0, 1e6, 0.35e6);
}

TEST(ParetoOnOffSource, HeavierTailThanExponential) {
  // Compare the maximum quiet gap: Pareto off-periods produce far longer
  // extremes than exponential ones with the same mean.
  const auto max_gap = [](auto&& make_source) {
    EventQueue events;
    std::vector<Time> stamps;
    auto src = make_source(events, [&](Packet p) { stamps.push_back(p.created); });
    src.run(0, 3000.0);
    events.run_until(3001.0);
    double max_gap = 0;
    for (std::size_t i = 1; i < stamps.size(); ++i) {
      max_gap = std::max(max_gap, stamps[i] - stamps[i - 1]);
    }
    return max_gap;
  };
  FlowShape shape{0, 1, 0, 1e6, 8000};
  const double pareto_gap = max_gap([&](EventQueue& ev, InjectFn fn) {
    return ParetoOnOffSource(ev, shape, {1.3, 1.0, 3.0}, Rng(5), fn);
  });
  const double expo_gap = max_gap([&](EventQueue& ev, InjectFn fn) {
    return OnOffSource(ev, shape, {1.0, 3.0}, Rng(5), fn);
  });
  EXPECT_GT(pareto_gap, 2.0 * expo_gap);
}

TEST(SimLink, LossRateDropsApproximatelyThatFraction) {
  EventQueue events;
  std::size_t delivered = 0;
  SimLink::Options opts;
  opts.loss_rate = 0.2;
  SimLink link(events, LinkAttr{10e6, 1e-4}, cost::EstimatorKind::kUtilization,
               8000, [&](Packet) { ++delivered; }, opts, Rng(3));
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    Packet p;
    p.size_bits = 1000;
    link.enqueue(std::move(p));
  }
  events.run_until(10.0);
  EXPECT_NEAR(static_cast<double>(delivered) / kN, 0.8, 0.02);
  EXPECT_NEAR(static_cast<double>(link.drops()) / kN, 0.2, 0.02);
}

// --------------------------------------------------------------- end-to-end

TEST(NetworkSim, TwoNodeDelayMatchesMm1Theory) {
  graph::Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  topo.add_duplex(0, 1, LinkAttr{1e6, 2e-3});

  std::vector<topo::FlowSpec> flows{{"a", "b", 0.5e6}};
  SimConfig config;
  config.mode = RoutingMode::kMultipath;
  config.duration = 60;
  config.warmup = 5;
  config.seed = 3;
  const auto result = run_simulation(topo, flows, config);

  ASSERT_EQ(result.flows.size(), 1u);
  EXPECT_GT(result.flows[0].delivered, 1000u);
  EXPECT_EQ(result.dropped_no_route, 0u);
  // M/M/1 with rho=0.5 (plus headers): W = L/(C-f) + tau.
  const cost::LinkDelayModel model{1e6, 2e-3, 8000 + kHeaderBits};
  const double predicted = model.packet_delay(0.5e6 * (1 + kHeaderBits / 8000));
  EXPECT_NEAR(result.flows[0].mean_delay_s, predicted, 0.25 * predicted);
}

TEST(NetworkSim, LinePathForwardsAcrossRelays) {
  graph::Topology topo;
  topo.add_nodes(3);
  topo.add_duplex(0, 1, LinkAttr{10e6, 1e-3});
  topo.add_duplex(1, 2, LinkAttr{10e6, 1e-3});
  std::vector<topo::FlowSpec> flows{{"n0", "n2", 1e6}};
  SimConfig config;
  config.duration = 20;
  config.warmup = 3;
  const auto result = run_simulation(topo, flows, config);
  EXPECT_GT(result.flows[0].delivered, 500u);
  // Two hops: at least two propagation delays plus two serializations.
  EXPECT_GT(result.flows[0].mean_delay_s, 2e-3);
  EXPECT_EQ(result.dropped_ttl, 0u);
}

TEST(NetworkSim, MultipathSpreadsLoadAcrossParallelPaths) {
  // Two disjoint equal paths; MP must use both, SP only one.
  graph::Topology topo;
  topo.add_nodes(4);
  const LinkAttr attr{10e6, 1e-3};
  topo.add_duplex(0, 1, attr);
  topo.add_duplex(0, 2, attr);
  topo.add_duplex(1, 3, attr);
  topo.add_duplex(2, 3, attr);
  std::vector<topo::FlowSpec> flows{{"n0", "n3", 4e6}};

  SimConfig config;
  config.duration = 30;
  config.warmup = 5;
  config.ts = 1.0;
  const auto mp = run_simulation(topo, flows, config);

  double via1 = 0, via2 = 0;
  for (const auto& l : mp.links) {
    if (l.from == "n0" && l.to == "n1") via1 = l.data_bits;
    if (l.from == "n0" && l.to == "n2") via2 = l.data_bits;
  }
  EXPECT_GT(via1, 0.0);
  EXPECT_GT(via2, 0.0);
  // Roughly balanced (within 3x either way is ample for a stochastic run).
  EXPECT_LT(std::max(via1, via2) / std::min(via1, via2), 3.0);

  // SP with short-term updates disabled (Ts beyond the horizon) pins all
  // traffic to the one best path. (With Ts active SP instead *flips* between
  // the symmetric paths as their costs see-saw — the oscillation the paper
  // attributes to delay-coupled single-path routing — so the time-averaged
  // split is uninformative.)
  config.mode = RoutingMode::kSinglePath;
  config.ts = 1000.0;
  config.tl = 1000.0;  // long-term floods would also re-pick the best path
  const auto sp = run_simulation(topo, flows, config);
  double sp_via1 = 0, sp_via2 = 0;
  for (const auto& l : sp.links) {
    if (l.from == "n0" && l.to == "n1") sp_via1 = l.data_bits;
    if (l.from == "n0" && l.to == "n2") sp_via2 = l.data_bits;
  }
  EXPECT_EQ(std::min(sp_via1, sp_via2), 0.0);
  EXPECT_GT(std::max(sp_via1, sp_via2), 0.0);
}

TEST(NetworkSim, StaticPhiModeFollowsInstalledSplit) {
  graph::Topology topo;
  topo.add_nodes(4);
  const LinkAttr attr{10e6, 1e-3};
  topo.add_duplex(0, 1, attr);
  topo.add_duplex(0, 2, attr);
  topo.add_duplex(1, 3, attr);
  topo.add_duplex(2, 3, attr);

  flow::RoutingParameters phi(topo);
  const auto out_index = [&](NodeId from, NodeId to) {
    const auto links = topo.out_links(from);
    for (std::size_t x = 0; x < links.size(); ++x) {
      if (topo.link(links[x]).to == to) return x;
    }
    return links.size();
  };
  phi.set(0, 3, out_index(0, 1), 0.25);
  phi.set(0, 3, out_index(0, 2), 0.75);
  phi.set_single_path(1, 3, out_index(1, 3));
  phi.set_single_path(2, 3, out_index(2, 3));

  std::vector<topo::FlowSpec> flows{{"n0", "n3", 2e6}};
  SimConfig config;
  config.mode = RoutingMode::kStatic;
  config.static_phi = &phi;
  config.duration = 40;
  config.warmup = 5;
  const auto result = run_simulation(topo, flows, config);
  double via1 = 0, via2 = 0;
  for (const auto& l : result.links) {
    if (l.from == "n0" && l.to == "n1") via1 = l.data_bits;
    if (l.from == "n0" && l.to == "n2") via2 = l.data_bits;
  }
  EXPECT_NEAR(via1 / (via1 + via2), 0.25, 0.03);
  EXPECT_EQ(result.control_messages, 0u);  // no protocol in static mode
}

TEST(NetworkSim, LinkFailureReroutesTraffic) {
  graph::Topology topo;
  topo.add_nodes(4);
  const LinkAttr attr{10e6, 1e-3};
  topo.add_duplex(0, 1, attr);
  topo.add_duplex(0, 2, attr);
  topo.add_duplex(1, 3, attr);
  topo.add_duplex(2, 3, attr);
  std::vector<topo::FlowSpec> flows{{"n0", "n3", 2e6}};

  SimConfig config;
  config.duration = 30;
  config.warmup = 5;
  config.link_toggles.push_back(SimConfig::LinkToggle{20.0, "n0", "n1", false});
  const auto result = run_simulation(topo, flows, config);
  // Traffic keeps flowing after the failure (some in-flight loss is fine).
  EXPECT_GT(result.flows[0].delivered, 2000u);
  double via2 = 0;
  for (const auto& l : result.links) {
    if (l.from == "n0" && l.to == "n2") via2 = l.data_bits;
  }
  EXPECT_GT(via2, 0.0);
}

TEST(NetworkSim, TimeseriesWindowsCoverTheRun) {
  const auto topo = topo::make_net1();
  const auto flows = topo::net1_flows(0.4);
  SimConfig config;
  config.duration = 20;
  config.warmup = 4;
  config.sample_interval = 2.0;
  const auto result = run_simulation(topo, flows, config);
  ASSERT_TRUE(result.telemetry.has_value());
  const auto windows = obs::network_windows(result.telemetry->flows);
  // traffic_start(3) + warmup(4) + duration(20) + drain: ~13 windows.
  ASSERT_GE(windows.size(), 12u);
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    // Every tick but the end-of-run tail sample lands 2 s after the last.
    if (i > 0 && i + 1 < windows.size()) {
      EXPECT_NEAR(windows[i].t - windows[i - 1].t, 2.0, 1e-9);
    }
    delivered += windows[i].delivered;
    if (windows[i].delivered > 0) {
      EXPECT_GT(windows[i].mean_delay_s(), 0.0);
    }
  }
  // The windows count every delivery (measured or not): at least as many as
  // the measured total.
  EXPECT_GE(delivered, result.delivered);
}

TEST(NetworkSim, LfiCheckerRunsCleanOnMp) {
  const auto topo = topo::make_net1();
  const auto flows = topo::net1_flows(0.6);
  SimConfig config;
  config.duration = 15;
  config.warmup = 3;
  config.lfi_check_interval = 0.02;
  config.link_toggles.push_back(SimConfig::LinkToggle{12.0, "0", "9", false});
  const auto result = run_simulation(topo, flows, config);
  EXPECT_GT(result.lfi_checks, 500u);
  EXPECT_EQ(result.lfi_violations, 0u);
}

TEST(NetworkSim, DeterministicForFixedSeed) {
  const auto topo = topo::make_net1();
  const auto flows = topo::net1_flows(0.3);
  SimConfig config;
  config.duration = 5;
  config.warmup = 2;
  config.seed = 99;
  const auto a = run_simulation(topo, flows, config);
  const auto b = run_simulation(topo, flows, config);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].delivered, b.flows[i].delivered);
    EXPECT_DOUBLE_EQ(a.flows[i].mean_delay_s, b.flows[i].mean_delay_s);
  }
  EXPECT_EQ(a.events_processed, b.events_processed);
}

}  // namespace
}  // namespace mdr::sim
