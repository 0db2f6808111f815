// Unit tests for the scenario parser and runner (src/sim/scenario.h).
#include <gtest/gtest.h>

#include <sstream>

#include "sim/scenario.h"

namespace mdr::sim {
namespace {

std::optional<Scenario> parse(const std::string& text, std::string* error) {
  std::istringstream in(text);
  return parse_scenario(in, error);
}

TEST(ScenarioParser, MinimalCustomTopology) {
  std::string error;
  const auto s = parse(R"(
    node a
    node b
    link a b capacity=5e6 prop=2e-4
    flow a b rate=1e6
  )",
                       &error);
  ASSERT_TRUE(s.has_value()) << error;
  EXPECT_EQ(s->spec.topo.num_nodes(), 2u);
  EXPECT_EQ(s->spec.topo.num_links(), 2u);  // duplex
  const auto id = s->spec.topo.find_link(0, 1);
  EXPECT_DOUBLE_EQ(s->spec.topo.link(id).attr.capacity_bps, 5e6);
  EXPECT_DOUBLE_EQ(s->spec.topo.link(id).attr.prop_delay_s, 2e-4);
  ASSERT_EQ(s->spec.flows.size(), 1u);
  EXPECT_DOUBLE_EQ(s->spec.flows[0].rate_bps, 1e6);
  EXPECT_EQ(s->mode, "mp");
}

TEST(ScenarioParser, BuiltinTopologiesWithScale) {
  std::string error;
  const auto cairn = parse("topology cairn scale=1.15\n", &error);
  ASSERT_TRUE(cairn.has_value()) << error;
  EXPECT_EQ(cairn->spec.topo.num_nodes(), 26u);
  EXPECT_EQ(cairn->spec.flows.size(), 11u);

  const auto net1 = parse("topology net1\n", &error);
  ASSERT_TRUE(net1.has_value()) << error;
  EXPECT_EQ(net1->spec.topo.num_nodes(), 10u);
  EXPECT_EQ(net1->spec.flows.size(), 10u);
}

TEST(ScenarioParser, AllKnobs) {
  std::string error;
  const auto s = parse(R"(
    topology net1 scale=0.5
    mode sp
    tl 20
    ts 4
    duration 90
    warmup 12
    traffic_start 5
    seed 42
    estimator ipa
    bursty on=2 off=6
    hello interval=0.5 dead=2
    wrr
    sample 1.5
    lfi_check 0.25
    ah_damping 0.3
    mean_packet_bits 4000
    fail 30 0 9 silent
    restore 45 0 9
  )",
                       &error);
  ASSERT_TRUE(s.has_value()) << error;
  EXPECT_EQ(s->mode, "sp");
  EXPECT_DOUBLE_EQ(s->spec.config.tl, 20);
  EXPECT_DOUBLE_EQ(s->spec.config.ts, 4);
  EXPECT_DOUBLE_EQ(s->spec.config.duration, 90);
  EXPECT_DOUBLE_EQ(s->spec.config.warmup, 12);
  EXPECT_DOUBLE_EQ(s->spec.config.traffic_start, 5);
  EXPECT_EQ(s->spec.config.seed, 42u);
  EXPECT_EQ(s->spec.config.estimator, cost::EstimatorKind::kIpa);
  EXPECT_EQ(s->spec.config.traffic.model, TrafficModel::kOnOff);
  EXPECT_DOUBLE_EQ(s->spec.config.traffic.burstiness.mean_on_s, 2);
  EXPECT_TRUE(s->spec.config.use_hello);
  EXPECT_DOUBLE_EQ(s->spec.config.hello.dead_interval, 2);
  EXPECT_TRUE(s->spec.config.wrr_forwarding);
  EXPECT_DOUBLE_EQ(s->spec.config.sample_interval, 1.5);
  EXPECT_DOUBLE_EQ(s->spec.config.lfi_check_interval, 0.25);
  EXPECT_DOUBLE_EQ(s->spec.config.ah_damping, 0.3);
  EXPECT_DOUBLE_EQ(s->spec.config.mean_packet_bits, 4000);
  ASSERT_EQ(s->spec.config.link_toggles.size(), 2u);
  EXPECT_TRUE(s->spec.config.link_toggles[0].silent);
  EXPECT_FALSE(s->spec.config.link_toggles[0].up);
  EXPECT_TRUE(s->spec.config.link_toggles[1].up);
  EXPECT_FALSE(s->spec.config.link_toggles[1].silent);
}

TEST(ScenarioParser, ParetoAndLossDirectives) {
  std::string error;
  const auto s = parse(
      "topology net1\npareto alpha=1.4 on=2 off=8\nloss 0.01\n", &error);
  ASSERT_TRUE(s.has_value()) << error;
  EXPECT_EQ(s->spec.config.traffic.model, TrafficModel::kParetoOnOff);
  EXPECT_DOUBLE_EQ(s->spec.config.traffic.pareto.alpha, 1.4);
  EXPECT_DOUBLE_EQ(s->spec.config.traffic.pareto.mean_on_s, 2);
  EXPECT_DOUBLE_EQ(s->spec.config.traffic.pareto.mean_off_s, 8);
  EXPECT_DOUBLE_EQ(s->spec.config.link_loss_rate, 0.01);
}

TEST(ScenarioParser, CommentsAndBlankLines) {
  std::string error;
  const auto s = parse(
      "# full-line comment\n"
      "\n"
      "topology net1  # trailing comment\n",
      &error);
  ASSERT_TRUE(s.has_value()) << error;
}

struct BadCase {
  const char* name;
  const char* text;
  const char* expect;  // substring of the error
};

// Without this, gtest prints a BadCase as the raw bytes of its three
// pointers, so the registered test names change with every build and run.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class ScenarioErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(ScenarioErrors, ReportsLineAndCause) {
  std::string error;
  const auto s = parse(GetParam().text, &error);
  EXPECT_FALSE(s.has_value());
  EXPECT_NE(error.find(GetParam().expect), std::string::npos)
      << "actual error: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ScenarioErrors,
    ::testing::Values(
        BadCase{"empty", "", "no topology"},
        BadCase{"no_flows", "node a\nnode b\nlink a b\n", "no flows"},
        BadCase{"unknown_directive", "frobnicate 3\n", "unknown directive"},
        BadCase{"unknown_topology", "topology arpanet\n", "unknown built-in"},
        BadCase{"dup_node", "node a\nnode a\n", "duplicate node"},
        BadCase{"builtin_then_node", "topology net1\nnode x\n", "conflicts"},
        BadCase{"node_then_builtin", "node x\ntopology net1\n", "conflicts"},
        BadCase{"link_unknown_node", "node a\nlink a zz\n", "unknown node"},
        BadCase{"flow_no_rate", "topology net1\nflow 0 7\n", "rate"},
        BadCase{"bad_mode", "topology net1\nmode ospf\n", "unknown mode"},
        BadCase{"bad_estimator", "topology net1\nestimator psychic\n",
                "unknown estimator"},
        BadCase{"bad_number", "topology net1\ntl banana\n", "number"},
        BadCase{"negative", "topology net1\nduration -5\n", "number"},
        BadCase{"bad_option", "topology net1\nbursty on=fast\n", "bad option"},
        BadCase{"hello_dead", "topology net1\nhello interval=2 dead=1\n",
                "dead interval"},
        BadCase{"fail_unknown", "topology net1\nfail 10 0 zz\n",
                "unknown node"},
        BadCase{"pareto_alpha", "topology net1\npareto alpha=0.9\n", "alpha"},
        BadCase{"loss_range", "topology net1\nloss 1.5\n", "rate"}),
    [](const auto& info) { return info.param.name; });

TEST(ScenarioParser, WorkloadDirectives) {
  std::string error;
  const auto s = parse(R"(
    topology cairn
    hello interval=1 dead=3.5
    adversarial w=3 eps=0.4 peak=5 sync=0
    diurnal period=30 amp=0.2 phase=3
    flashcrowd mit start=10 ramp=2 hold=4 peak=2.5
    dutycycle bbn bell period=5 on=0.7 start=2 stop=20 p_bad=0.4 loss_bad=0.3
    stability 0.5 window=6 slope=0.01 delay_factor=3 persist=5
  )",
                       &error);
  ASSERT_TRUE(s.has_value()) << error;
  const auto& traffic = s->spec.config.traffic;
  EXPECT_EQ(traffic.model, TrafficModel::kAdversarial);
  EXPECT_DOUBLE_EQ(traffic.adversarial.w_s, 3);
  EXPECT_DOUBLE_EQ(traffic.adversarial.eps, 0.4);
  EXPECT_DOUBLE_EQ(traffic.adversarial.peak, 5);
  EXPECT_FALSE(traffic.adversarial.sync);
  EXPECT_DOUBLE_EQ(traffic.diurnal_period_s, 30);
  EXPECT_DOUBLE_EQ(traffic.diurnal_amplitude, 0.2);
  EXPECT_DOUBLE_EQ(traffic.diurnal_phase_s, 3);
  ASSERT_EQ(traffic.flash_crowds.size(), 1u);
  EXPECT_EQ(traffic.flash_crowds[0].dst, "mit");
  EXPECT_DOUBLE_EQ(traffic.flash_crowds[0].start, 10);
  EXPECT_DOUBLE_EQ(traffic.flash_crowds[0].ramp_s, 2);
  EXPECT_DOUBLE_EQ(traffic.flash_crowds[0].hold_s, 4);
  EXPECT_DOUBLE_EQ(traffic.flash_crowds[0].peak, 2.5);
  ASSERT_EQ(s->spec.config.faults.duty_cycles.size(), 1u);
  const auto& duty = s->spec.config.faults.duty_cycles[0];
  EXPECT_EQ(duty.a, "bbn");
  EXPECT_EQ(duty.b, "bell");
  EXPECT_DOUBLE_EQ(duty.period, 5);
  EXPECT_DOUBLE_EQ(duty.on_fraction, 0.7);
  EXPECT_DOUBLE_EQ(duty.start, 2);
  EXPECT_DOUBLE_EQ(duty.stop, 20);
  EXPECT_TRUE(duty.lossy);
  EXPECT_DOUBLE_EQ(duty.loss.p_bad_good, 0.4);
  EXPECT_DOUBLE_EQ(duty.loss.loss_bad, 0.3);
  const auto& stab = s->spec.config.stability;
  EXPECT_DOUBLE_EQ(stab.interval, 0.5);
  EXPECT_DOUBLE_EQ(stab.window, 6);
  EXPECT_DOUBLE_EQ(stab.slope_capacity_fraction, 0.01);
  EXPECT_DOUBLE_EQ(stab.delay_factor, 3);
  EXPECT_EQ(stab.persistence, 5);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadCases, ScenarioErrors,
    ::testing::Values(
        BadCase{"unknown_option_key",
                "topology net1\nadversarial w=4 wep=1\n",
                "unknown option key"},
        BadCase{"dutycycle_typo_key",
                "topology cairn\ndutycycle bbn bell preiod=4\n",
                "unknown option key"},
        BadCase{"adversarial_peak", "topology net1\nadversarial peak=0.5\n",
                "peak"},
        BadCase{"diurnal_needs_period", "topology net1\ndiurnal amp=0.5\n",
                "period"},
        BadCase{"flashcrowd_unknown_dst", "topology net1\nflashcrowd zz\n",
                "unknown node"},
        BadCase{"stability_window", "topology net1\nstability 2 window=3\n",
                "window"},
        BadCase{"dutycycle_on_fraction",
                "topology cairn\ndutycycle bbn bell on=1.5\n", "on fraction"},
        BadCase{"dutycycle_gilbert_conflict",
                "topology cairn\n"
                "hello interval=1 dead=3.5\n"
                "gilbert bbn bell p_good=0.1 loss_bad=0.2\n"
                "dutycycle bell bbn period=4 on=0.5 loss_bad=0.1\n",
                "one loss model"}),
    [](const auto& info) { return info.param.name; });

TEST(ScenarioParser, CheckpointDirective) {
  std::string error;
  const auto s = parse(R"(
    topology net1
    checkpoint interval=5 path=/tmp/snap.mdrk
  )",
                       &error);
  ASSERT_TRUE(s.has_value()) << error;
  EXPECT_DOUBLE_EQ(s->spec.config.checkpoint_interval, 5.0);
  EXPECT_EQ(s->spec.config.checkpoint_path, "/tmp/snap.mdrk");

  // Both keys are mandatory; bad values and stray keys are rejected.
  EXPECT_FALSE(parse("topology net1\ncheckpoint interval=5\n", &error));
  EXPECT_NE(error.find("path"), std::string::npos);
  EXPECT_FALSE(parse("topology net1\ncheckpoint path=x.mdrk\n", &error));
  EXPECT_FALSE(
      parse("topology net1\ncheckpoint interval=0 path=x.mdrk\n", &error));
  EXPECT_FALSE(
      parse("topology net1\ncheckpoint interval=-1 path=x.mdrk\n", &error));
  EXPECT_FALSE(
      parse("topology net1\ncheckpoint interval=5 path=x.mdrk bogus=1\n",
            &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(ScenarioParser, SourceNamePrefixesDiagnostics) {
  std::istringstream in("topology net1\nmode ospf\n");
  std::string error;
  EXPECT_FALSE(parse_scenario(in, &error, "myfile.scn").has_value());
  EXPECT_NE(error.find("myfile.scn: line 2"), std::string::npos) << error;
}

TEST(ScenarioParser, ValidScenarioIgnoresSourceName) {
  std::istringstream in("topology net1\n");
  std::string error;
  EXPECT_TRUE(parse_scenario(in, &error, "myfile.scn").has_value()) << error;
}

TEST(ScenarioParser, ErrorsCarryLineNumbers) {
  std::string error;
  const auto s = parse("topology net1\n\nmode ospf\n", &error);
  EXPECT_FALSE(s.has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(ScenarioRunner, RunsAllThreeModes) {
  const std::string base = R"(
    node a
    node b
    node c
    link a b
    link b c
    link a c
    flow a c rate=2e6
    duration 10
    warmup 2
    traffic_start 2
  )";
  for (const std::string mode : {"mp", "sp", "opt"}) {
    std::string error;
    auto s = parse(base + "mode " + mode + "\n", &error);
    ASSERT_TRUE(s.has_value()) << error;
    const auto result = run_scenario(*s);
    EXPECT_GT(result.flows[0].delivered, 500u) << mode;
    EXPECT_GT(result.flows[0].mean_delay_s, 0.0) << mode;
  }
}

TEST(ScenarioRunner, LoadScenarioReportsMissingFile) {
  std::string error;
  EXPECT_FALSE(load_scenario("/nonexistent/file.scn", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(ScenarioRunner, ShippedScenariosParse) {
  for (const char* path : {"examples/scenarios/cairn_mp.scn",
                           "examples/scenarios/failure.scn",
                           "examples/scenarios/selfsimilar.scn",
                           "examples/scenarios/adversarial.scn",
                           "examples/scenarios/flashcrowd.scn",
                           "examples/scenarios/dutycycle.scn"}) {
    std::string error;
    // Tests run from the build tree; look relative to the source root too.
    auto s = load_scenario(path, &error);
    if (!s.has_value()) {
      s = load_scenario(std::string(MDR_SOURCE_DIR) + "/" + path, &error);
    }
    EXPECT_TRUE(s.has_value()) << path << ": " << error;
  }
}

}  // namespace
}  // namespace mdr::sim
