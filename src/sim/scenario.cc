#include "sim/scenario.h"

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/experiment.h"
#include "topo/builders.h"

namespace mdr::sim {

namespace {

// Splits a line into whitespace-separated tokens, honoring '#' comments.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

// Parses "key=value" into (key, value); plain words become (word, "").
std::pair<std::string, std::string> split_kv(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return {token, ""};
  return {token.substr(0, eq), token.substr(eq + 1)};
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && !text.empty();
}

// Collects key=value options from tokens[from..], accepting only keys in
// `allowed`; returns false with a full diagnostic in *bad on a stray token,
// a non-numeric value, or an unknown key. Rejecting unknown keys loudly
// catches typos (`dutycycle ... preiod=4`) that would otherwise silently
// fall back to defaults.
bool parse_options(const std::vector<std::string>& tokens, std::size_t from,
                   const std::vector<const char*>& allowed,
                   std::map<std::string, double>* out, std::string* bad) {
  for (std::size_t i = from; i < tokens.size(); ++i) {
    const auto [key, value] = split_kv(tokens[i]);
    double number = 0;
    if (value.empty() || !parse_double(value, &number)) {
      *bad = "bad option " + tokens[i] + " (expected key=value)";
      return false;
    }
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      *bad = "unknown option key '" + key + "' in `" + tokens[0] +
             "` (allowed:";
      for (const char* name : allowed) {
        *bad += ' ';
        *bad += name;
      }
      *bad += ')';
      return false;
    }
    (*out)[key] = number;
  }
  return true;
}

struct ParseState {
  Scenario scenario;
  bool used_builtin = false;
  bool built_nodes = false;
};

// One directive; returns false with *error set on failure.
bool apply_directive(ParseState& state, const std::vector<std::string>& tokens,
                     std::string* error) {
  Scenario& scenario = state.scenario;
  ExperimentSpec& s = scenario.spec;
  const std::string& cmd = tokens[0];
  const auto fail = [&](const std::string& why) {
    *error = why;
    return false;
  };
  const auto need = [&](std::size_t n) { return tokens.size() >= n; };

  if (cmd == "topology") {
    if (!need(2)) {
      return fail("topology needs a name (cairn | net1 | random | waxman)");
    }
    if (state.built_nodes) return fail("topology conflicts with node/link");
    std::map<std::string, double> opts;
    std::string bad;
    const bool generated = tokens[1] == "random" || tokens[1] == "waxman";
    const std::vector<const char*> allowed =
        generated ? std::vector<const char*>{"n", "p", "alpha", "beta",
                                             "min_prop", "flows", "rate",
                                             "seed"}
                  : std::vector<const char*>{"scale"};
    if (!parse_options(tokens, 2, allowed, &opts, &bad)) return fail(bad);
    const double scale = opts.count("scale") ? opts["scale"] : 1.0;
    if (tokens[1] == "cairn") {
      s.topo = topo::make_cairn();
      s.flows = topo::cairn_flows(scale);
    } else if (tokens[1] == "net1") {
      s.topo = topo::make_net1();
      s.flows = topo::net1_flows(scale);
    } else if (tokens[1] == "random" || tokens[1] == "waxman") {
      // Generated scale topologies (no paper flow set): `flows` random
      // flows ride along, drawn from the same generator stream so the
      // whole directive is one deterministic unit.
      const double n = opts.count("n") ? opts["n"] : 0;
      if (n < 3) return fail("topology " + tokens[1] + " needs n=<nodes> >= 3");
      Rng rng(opts.count("seed") ? static_cast<std::uint64_t>(opts["seed"])
                                 : 1);
      if (tokens[1] == "random") {
        const double p = opts.count("p") ? opts["p"] : 0.05;
        if (p < 0 || p > 1) return fail("topology random p must be in [0, 1]");
        s.topo = topo::make_random(static_cast<std::size_t>(n), p, rng);
      } else {
        const double alpha = opts.count("alpha") ? opts["alpha"] : 0.4;
        const double beta = opts.count("beta") ? opts["beta"] : 0.2;
        const double min_prop = opts.count("min_prop") ? opts["min_prop"] : 0;
        if (alpha <= 0 || alpha > 1 || beta <= 0) {
          return fail("topology waxman needs 0 < alpha <= 1 and beta > 0");
        }
        if (min_prop < 0) return fail("topology waxman min_prop must be >= 0");
        s.topo =
            topo::make_waxman(static_cast<std::size_t>(n), alpha, beta, rng,
                              /*capacity_bps=*/10e6, /*max_prop_delay_s=*/5e-3,
                              min_prop);
      }
      const double count = opts.count("flows") ? opts["flows"] : n;
      const double rate = opts.count("rate") ? opts["rate"] : 1e6;
      if (count < 1) return fail("topology needs flows=<count> >= 1");
      if (rate <= 0) return fail("topology needs rate=<bps> > 0");
      s.flows = topo::random_flows(s.topo, static_cast<std::size_t>(count),
                                   rate, rng);
    } else {
      return fail("unknown built-in topology: " + tokens[1]);
    }
    state.used_builtin = true;
    return true;
  }
  if (cmd == "engine") {
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 1, {"shards", "ring", "lookahead"}, &opts,
                       &bad)) {
      return fail(bad);
    }
    if (!opts.count("shards") || opts["shards"] < 1) {
      return fail("engine needs shards=<n> >= 1");
    }
    s.engine.shards = static_cast<int>(opts["shards"]);
    if (opts.count("ring")) {
      if (opts["ring"] < 1) return fail("engine ring must be at least 1");
      s.engine.ring_capacity = static_cast<std::size_t>(opts["ring"]);
    }
    if (opts.count("lookahead")) {
      if (opts["lookahead"] <= 0) {
        return fail("engine lookahead must be positive");
      }
      s.engine.lookahead_override = opts["lookahead"];
    }
    return true;
  }
  if (cmd == "node") {
    if (!need(2)) return fail("node needs a name");
    if (state.used_builtin) return fail("node conflicts with topology");
    if (s.topo.find_node(tokens[1]) != graph::kInvalidNode) {
      return fail("duplicate node " + tokens[1]);
    }
    s.topo.add_node(tokens[1]);
    state.built_nodes = true;
    return true;
  }
  if (cmd == "link") {
    if (!need(3)) return fail("link needs two node names");
    const auto a = s.topo.find_node(tokens[1]);
    const auto b = s.topo.find_node(tokens[2]);
    if (a == graph::kInvalidNode || b == graph::kInvalidNode) {
      return fail("link references unknown node");
    }
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 3, {"capacity", "prop"}, &opts, &bad)) {
      return fail(bad);
    }
    graph::LinkAttr attr;
    if (opts.count("capacity")) attr.capacity_bps = opts["capacity"];
    if (opts.count("prop")) attr.prop_delay_s = opts["prop"];
    if (attr.capacity_bps <= 0 || attr.prop_delay_s < 0) {
      return fail("link attributes out of range");
    }
    s.topo.add_duplex(a, b, attr);
    return true;
  }
  if (cmd == "flow") {
    if (!need(4)) return fail("flow needs src dst rate=<bps>");
    if (s.topo.find_node(tokens[1]) == graph::kInvalidNode ||
        s.topo.find_node(tokens[2]) == graph::kInvalidNode) {
      return fail("flow references unknown node");
    }
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 3, {"rate"}, &opts, &bad)) return fail(bad);
    if (!opts.count("rate") || opts["rate"] <= 0) {
      return fail("flow needs rate=<bps> > 0");
    }
    s.flows.push_back(topo::FlowSpec{tokens[1], tokens[2], opts["rate"]});
    return true;
  }
  if (cmd == "mode") {
    if (!need(2)) return fail("mode needs mp | sp | opt");
    if (tokens[1] != "mp" && tokens[1] != "sp" && tokens[1] != "opt") {
      return fail("unknown mode: " + tokens[1]);
    }
    scenario.mode = tokens[1];
    return true;
  }
  if (cmd == "estimator") {
    if (!need(2)) return fail("estimator needs a name");
    if (tokens[1] == "utilization") {
      s.config.estimator = cost::EstimatorKind::kUtilization;
    } else if (tokens[1] == "mm1") {
      s.config.estimator = cost::EstimatorKind::kAnalyticMm1;
    } else if (tokens[1] == "observable") {
      s.config.estimator = cost::EstimatorKind::kObservable;
    } else if (tokens[1] == "ipa") {
      s.config.estimator = cost::EstimatorKind::kIpa;
    } else {
      return fail("unknown estimator: " + tokens[1]);
    }
    return true;
  }
  if (cmd == "bursty") {
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 1, {"on", "off"}, &opts, &bad)) {
      return fail(bad);
    }
    s.config.traffic.model = TrafficModel::kOnOff;
    if (opts.count("on")) s.config.traffic.burstiness.mean_on_s = opts["on"];
    if (opts.count("off")) s.config.traffic.burstiness.mean_off_s = opts["off"];
    return true;
  }
  if (cmd == "pareto") {
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 1, {"alpha", "on", "off"}, &opts, &bad)) {
      return fail(bad);
    }
    s.config.traffic.model = TrafficModel::kParetoOnOff;
    if (opts.count("alpha")) s.config.traffic.pareto.alpha = opts["alpha"];
    if (opts.count("on")) s.config.traffic.pareto.mean_on_s = opts["on"];
    if (opts.count("off")) s.config.traffic.pareto.mean_off_s = opts["off"];
    if (s.config.traffic.pareto.alpha <= 1.0) {
      return fail("pareto alpha must exceed 1 (finite mean)");
    }
    return true;
  }
  if (cmd == "loss") {
    double rate = 0;
    if (!need(2) || !parse_double(tokens[1], &rate) || rate < 0 || rate >= 1) {
      return fail("loss needs a rate in [0, 1)");
    }
    s.config.link_loss_rate = rate;
    return true;
  }
  if (cmd == "hello") {
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 1, {"interval", "dead"}, &opts, &bad)) {
      return fail(bad);
    }
    s.config.use_hello = true;
    if (opts.count("interval")) s.config.hello.interval = opts["interval"];
    if (opts.count("dead")) s.config.hello.dead_interval = opts["dead"];
    if (s.config.hello.dead_interval <= s.config.hello.interval) {
      return fail("hello dead interval must exceed the hello interval");
    }
    return true;
  }
  if (cmd == "wrr") {
    s.config.wrr_forwarding = true;
    return true;
  }
  if (cmd == "report_threshold") {
    double value = 0;
    if (!need(2) || !parse_double(tokens[1], &value) || value < 0) {
      return fail("report_threshold needs a non-negative number");
    }
    s.config.smoothing.report_threshold = value;
    return true;
  }
  if (cmd == "pace") {
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 1, {"min", "max"}, &opts, &bad)) {
      return fail(bad);
    }
    auto& pacing = s.config.pacing;
    pacing.enabled = true;
    if (opts.count("min")) pacing.min_interval = opts["min"];
    if (opts.count("max")) pacing.max_interval = opts["max"];
    if (pacing.min_interval <= 0 ||
        pacing.max_interval < pacing.min_interval) {
      return fail("pace needs 0 < min <= max");
    }
    return true;
  }
  if (cmd == "damping") {
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 1,
                       {"penalty", "suppress", "reuse", "half_life", "max"},
                       &opts, &bad)) {
      return fail(bad);
    }
    auto& damping = s.config.damping;
    damping.enabled = true;
    if (opts.count("penalty")) damping.penalty = opts["penalty"];
    if (opts.count("suppress")) damping.suppress_threshold = opts["suppress"];
    if (opts.count("reuse")) damping.reuse_threshold = opts["reuse"];
    if (opts.count("half_life")) damping.half_life = opts["half_life"];
    if (opts.count("max")) damping.max_penalty = opts["max"];
    if (damping.penalty <= 0 || damping.half_life <= 0) {
      return fail("damping penalty and half_life must be positive");
    }
    if (damping.reuse_threshold >= damping.suppress_threshold) {
      return fail("damping reuse threshold must be below suppress");
    }
    if (damping.max_penalty < damping.suppress_threshold) {
      return fail("damping max penalty must reach the suppress threshold");
    }
    return true;
  }
  if (cmd == "monitor") {
    double t = 0;
    if (!need(2) || !parse_double(tokens[1], &t) || t < 0) {
      return fail("monitor needs a non-negative sweep period");
    }
    s.config.monitor_interval = t;
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 2, {"drop_budget"}, &opts, &bad)) {
      return fail(bad);
    }
    if (opts.count("drop_budget")) {
      if (opts["drop_budget"] < 0) {
        return fail("monitor drop_budget must be non-negative");
      }
      s.config.monitor_control_drop_budget =
          static_cast<std::uint64_t>(opts["drop_budget"]);
    }
    return true;
  }
  if (cmd == "fail" || cmd == "restore") {
    if (!need(4)) return fail(cmd + " needs <t> <a> <b>");
    double t = 0;
    if (!parse_double(tokens[1], &t) || t < 0) return fail("bad time");
    if (s.topo.find_node(tokens[2]) == graph::kInvalidNode ||
        s.topo.find_node(tokens[3]) == graph::kInvalidNode) {
      return fail(cmd + " references unknown node");
    }
    SimConfig::LinkToggle toggle{t, tokens[2], tokens[3], cmd == "restore"};
    toggle.silent = tokens.size() > 4 && tokens[4] == "silent";
    s.config.link_toggles.push_back(toggle);
    return true;
  }

  if (cmd == "crash" || cmd == "recover") {
    if (!need(3)) return fail(cmd + " needs <t> <node>");
    double t = 0;
    if (!parse_double(tokens[1], &t) || t < 0) return fail("bad time");
    if (s.topo.find_node(tokens[2]) == graph::kInvalidNode) {
      return fail(cmd + " references unknown node");
    }
    auto& events = cmd == "crash" ? s.config.faults.crashes
                                  : s.config.faults.recoveries;
    events.push_back(fault::NodeEvent{t, tokens[2]});
    return true;
  }
  if (cmd == "flap") {
    if (!need(3)) return fail("flap needs <a> <b> [period=] [duty=] [start=] [stop=]");
    if (s.topo.find_node(tokens[1]) == graph::kInvalidNode ||
        s.topo.find_node(tokens[2]) == graph::kInvalidNode) {
      return fail("flap references unknown node");
    }
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 3, {"period", "duty", "start", "stop"}, &opts,
                       &bad)) {
      return fail(bad);
    }
    fault::LinkFlap flap;
    flap.a = tokens[1];
    flap.b = tokens[2];
    if (opts.count("period")) flap.period = opts["period"];
    if (opts.count("duty")) flap.duty = opts["duty"];
    if (opts.count("start")) flap.start = opts["start"];
    if (opts.count("stop")) flap.stop = opts["stop"];
    if (flap.period <= 0) return fail("flap period must be positive");
    if (flap.duty <= 0 || flap.duty >= 1) return fail("flap duty must be in (0, 1)");
    if (flap.start < 0 || flap.stop < flap.start) {
      return fail("flap window out of range");
    }
    s.config.faults.flaps.push_back(std::move(flap));
    return true;
  }
  if (cmd == "gilbert") {
    if (!need(3)) return fail("gilbert needs <a> <b> [p_good=] [p_bad=] [loss_bad=] [loss_good=]");
    if (s.topo.find_node(tokens[1]) == graph::kInvalidNode ||
        s.topo.find_node(tokens[2]) == graph::kInvalidNode) {
      return fail("gilbert references unknown node");
    }
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 3, {"p_good", "p_bad", "loss_bad", "loss_good"},
                       &opts, &bad)) {
      return fail(bad);
    }
    fault::GilbertParams params;
    // p_good: leave the GOOD state (-> BAD); p_bad: leave the BAD state.
    if (opts.count("p_good")) params.p_good_bad = opts["p_good"];
    if (opts.count("p_bad")) params.p_bad_good = opts["p_bad"];
    if (opts.count("loss_bad")) params.loss_bad = opts["loss_bad"];
    if (opts.count("loss_good")) params.loss_good = opts["loss_good"];
    if (params.p_good_bad < 0 || params.p_good_bad > 1 ||
        params.p_bad_good < 0 || params.p_bad_good > 1) {
      return fail("gilbert transition probabilities must be in [0, 1]");
    }
    if (params.loss_bad < 0 || params.loss_bad >= 1 || params.loss_good < 0 ||
        params.loss_good >= 1) {
      return fail("gilbert loss probabilities must be in [0, 1)");
    }
    s.config.faults.gilbert.push_back(
        fault::LinkGilbert{tokens[1], tokens[2], params});
    return true;
  }
  if (cmd == "dutycycle") {
    if (!need(3)) {
      return fail(
          "dutycycle needs <a> <b> [period=] [on=] [start=] [stop=] "
          "[p_good=] [p_bad=] [loss_bad=] [loss_good=]");
    }
    if (s.topo.find_node(tokens[1]) == graph::kInvalidNode ||
        s.topo.find_node(tokens[2]) == graph::kInvalidNode) {
      return fail("dutycycle references unknown node");
    }
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 3,
                       {"period", "on", "start", "stop", "p_good", "p_bad",
                        "loss_bad", "loss_good"},
                       &opts, &bad)) {
      return fail(bad);
    }
    fault::LinkDutyCycle duty;
    duty.a = tokens[1];
    duty.b = tokens[2];
    if (opts.count("period")) duty.period = opts["period"];
    if (opts.count("on")) duty.on_fraction = opts["on"];
    if (opts.count("start")) duty.start = opts["start"];
    if (opts.count("stop")) duty.stop = opts["stop"];
    if (duty.period <= 0) return fail("dutycycle period must be positive");
    if (duty.on_fraction <= 0 || duty.on_fraction >= 1) {
      return fail("dutycycle on fraction must be in (0, 1)");
    }
    if (duty.start < 0 || duty.stop < duty.start) {
      return fail("dutycycle window out of range");
    }
    duty.lossy = opts.count("p_good") || opts.count("p_bad") ||
                 opts.count("loss_bad") || opts.count("loss_good");
    if (duty.lossy) {
      if (opts.count("p_good")) duty.loss.p_good_bad = opts["p_good"];
      if (opts.count("p_bad")) duty.loss.p_bad_good = opts["p_bad"];
      if (opts.count("loss_bad")) duty.loss.loss_bad = opts["loss_bad"];
      if (opts.count("loss_good")) duty.loss.loss_good = opts["loss_good"];
      if (duty.loss.p_good_bad < 0 || duty.loss.p_good_bad > 1 ||
          duty.loss.p_bad_good < 0 || duty.loss.p_bad_good > 1) {
        return fail("dutycycle transition probabilities must be in [0, 1]");
      }
      if (duty.loss.loss_bad < 0 || duty.loss.loss_bad >= 1 ||
          duty.loss.loss_good < 0 || duty.loss.loss_good >= 1) {
        return fail("dutycycle loss probabilities must be in [0, 1)");
      }
    }
    s.config.faults.duty_cycles.push_back(std::move(duty));
    return true;
  }
  if (cmd == "adversarial") {
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 1, {"w", "eps", "peak", "sync"}, &opts, &bad)) {
      return fail(bad);
    }
    s.config.traffic.model = TrafficModel::kAdversarial;
    auto& adv = s.config.traffic.adversarial;
    if (opts.count("w")) adv.w_s = opts["w"];
    if (opts.count("eps")) adv.eps = opts["eps"];
    if (opts.count("peak")) adv.peak = opts["peak"];
    if (opts.count("sync")) adv.sync = opts["sync"] != 0;
    if (adv.w_s <= 0 || adv.eps <= 0) {
      return fail("adversarial w and eps must be positive");
    }
    if (adv.peak <= 1) return fail("adversarial peak must exceed 1");
    return true;
  }
  if (cmd == "diurnal") {
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 1, {"period", "amp", "phase"}, &opts, &bad)) {
      return fail(bad);
    }
    auto& traffic = s.config.traffic;
    if (!opts.count("period") || opts["period"] <= 0) {
      return fail("diurnal needs period=<s> > 0");
    }
    traffic.diurnal_period_s = opts["period"];
    if (opts.count("amp")) traffic.diurnal_amplitude = opts["amp"];
    if (opts.count("phase")) traffic.diurnal_phase_s = opts["phase"];
    if (traffic.diurnal_amplitude < 0 || traffic.diurnal_amplitude >= 1) {
      return fail("diurnal amp must be in [0, 1)");
    }
    return true;
  }
  if (cmd == "flashcrowd") {
    if (!need(2)) {
      return fail("flashcrowd needs <dst> [start=] [ramp=] [hold=] [peak=]");
    }
    if (s.topo.find_node(tokens[1]) == graph::kInvalidNode) {
      return fail("flashcrowd references unknown node " + tokens[1]);
    }
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 2, {"start", "ramp", "hold", "peak"}, &opts,
                       &bad)) {
      return fail(bad);
    }
    FlashCrowd crowd;
    crowd.dst = tokens[1];
    if (opts.count("start")) crowd.start = opts["start"];
    if (opts.count("ramp")) crowd.ramp_s = opts["ramp"];
    if (opts.count("hold")) crowd.hold_s = opts["hold"];
    if (opts.count("peak")) crowd.peak = opts["peak"];
    if (crowd.start < 0 || crowd.ramp_s < 0 || crowd.hold_s < 0) {
      return fail("flashcrowd times must be non-negative");
    }
    if (crowd.peak <= 1) return fail("flashcrowd peak must exceed 1");
    s.config.traffic.flash_crowds.push_back(std::move(crowd));
    return true;
  }
  if (cmd == "stability") {
    double interval = 0;
    if (!need(2) || !parse_double(tokens[1], &interval) || interval <= 0) {
      return fail("stability needs a positive sample period");
    }
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 2,
                       {"window", "slope", "delay_factor", "persist"}, &opts,
                       &bad)) {
      return fail(bad);
    }
    auto& stab = s.config.stability;
    stab.interval = interval;
    if (opts.count("window")) stab.window = opts["window"];
    if (opts.count("slope")) stab.slope_capacity_fraction = opts["slope"];
    if (opts.count("delay_factor")) stab.delay_factor = opts["delay_factor"];
    if (opts.count("persist")) {
      stab.persistence = static_cast<int>(opts["persist"]);
    }
    if (stab.window < 2 * stab.interval) {
      return fail("stability window must cover at least two sample periods");
    }
    if (stab.slope_capacity_fraction <= 0) {
      return fail("stability slope fraction must be positive");
    }
    if (stab.delay_factor <= 1) {
      return fail("stability delay_factor must exceed 1");
    }
    if (stab.persistence < 1) {
      return fail("stability persist must be at least 1");
    }
    return true;
  }
  if (cmd == "corrupt" || cmd == "duplicate" || cmd == "reorder") {
    double rate = 0;
    if (!need(2) || !parse_double(tokens[1], &rate) || rate < 0 || rate >= 1) {
      return fail(cmd + " needs a rate in [0, 1)");
    }
    auto& chaos = s.config.faults.chaos;
    (cmd == "corrupt"     ? chaos.corrupt_rate
     : cmd == "duplicate" ? chaos.duplicate_rate
                          : chaos.reorder_rate) = rate;
    return true;
  }

  if (cmd == "checkpoint") {
    // Parsed by hand: `path` is a string value, which parse_options (numbers
    // only) cannot carry.
    if (!need(2)) return fail("checkpoint needs interval=<s> path=<file>");
    double interval = 0;
    std::string path;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const auto [key, value] = split_kv(tokens[i]);
      if (value.empty()) {
        return fail("bad option " + tokens[i] + " (expected key=value)");
      }
      if (key == "interval") {
        if (!parse_double(value, &interval) || interval <= 0) {
          return fail("checkpoint interval must be a positive number");
        }
      } else if (key == "path") {
        path = value;
      } else {
        return fail("unknown option key '" + key +
                    "' in `checkpoint` (allowed: interval path)");
      }
    }
    if (interval <= 0 || path.empty()) {
      return fail("checkpoint needs both interval=<s> and path=<file>");
    }
    s.config.checkpoint_interval = interval;
    s.config.checkpoint_path = path;
    return true;
  }
  if (cmd == "trace") {
    s.config.trace = true;
    return true;
  }
  if (cmd == "prof") {
    // Wall-clock profiler + convergence span tracer. Works at any shard
    // count (per-shard profilers merge post-run), so it is deliberately NOT
    // part of the trace/flightrec one-shard validation below. deep=1 times
    // the per-event hot sections too (higher overhead, see obs/prof.h).
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 1, {"deep"}, &opts, &bad)) {
      return fail(bad);
    }
    s.config.prof = true;
    s.config.prof_deep = opts.count("deep") != 0 && opts["deep"] != 0;
    return true;
  }
  if (cmd == "flightrec") {
    std::map<std::string, double> opts;
    std::string bad;
    if (!parse_options(tokens, 1, {"capacity"}, &opts, &bad)) {
      return fail(bad);
    }
    double capacity = 256;
    if (opts.count("capacity")) capacity = opts["capacity"];
    if (capacity < 1) return fail("flightrec capacity must be at least 1");
    s.config.flightrec_capacity = static_cast<std::size_t>(capacity);
    return true;
  }

  // Scalar directives.
  static const std::map<std::string, double SimConfig::*> kScalars = {
      {"tl", &SimConfig::tl},
      {"ts", &SimConfig::ts},
      {"duration", &SimConfig::duration},
      {"warmup", &SimConfig::warmup},
      {"traffic_start", &SimConfig::traffic_start},
      {"sample", &SimConfig::sample_interval},
      {"lfi_check", &SimConfig::lfi_check_interval},
      {"ah_damping", &SimConfig::ah_damping},
      {"mean_packet_bits", &SimConfig::mean_packet_bits},
      {"queue_limit", &SimConfig::queue_limit_bits},
      {"control_queue_limit", &SimConfig::control_queue_limit_bits},
  };
  if (const auto it = kScalars.find(cmd); it != kScalars.end()) {
    double value = 0;
    if (!need(2) || !parse_double(tokens[1], &value) || value < 0) {
      return fail(cmd + " needs a non-negative number");
    }
    s.config.*(it->second) = value;
    return true;
  }
  if (cmd == "seed") {
    double value = 0;
    if (!need(2) || !parse_double(tokens[1], &value) || value < 0) {
      return fail("seed needs a non-negative number");
    }
    s.config.seed = static_cast<std::uint64_t>(value);
    return true;
  }
  return fail("unknown directive: " + cmd);
}

}  // namespace

std::optional<Scenario> parse_scenario(std::istream& in, std::string* error,
                                       const std::string& source_name) {
  // Every diagnostic goes through here so the source name (file path for
  // load_scenario) lands in front of it exactly once.
  const auto report = [&](const std::string& why) {
    if (error == nullptr) return;
    *error = source_name.empty() ? why : source_name + ": " + why;
  };
  ParseState state;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    std::string why;
    if (!apply_directive(state, tokens, &why)) {
      report("line " + std::to_string(line_number) + ": " + why);
      return std::nullopt;
    }
  }
  if (state.scenario.spec.topo.num_nodes() == 0) {
    report("scenario defines no topology");
    return std::nullopt;
  }
  if (state.scenario.spec.flows.empty()) {
    report("scenario defines no flows");
    return std::nullopt;
  }
  const auto& config = state.scenario.spec.config;
  if (config.faults.needs_hello() && !config.use_hello) {
    report(
        "crash/flap/dutycycle faults are silent and need the hello protocol "
        "to be detected: add a `hello` directive");
    return std::nullopt;
  }
  if (config.damping.enabled && !config.use_hello) {
    report(
        "damping filters hello adjacency events and needs the hello "
        "protocol: add a `hello` directive");
    return std::nullopt;
  }
  try {
    validate_engine(state.scenario.spec.topo, config,
                    state.scenario.spec.engine);
  } catch (const std::invalid_argument& e) {
    report(e.what());
    return std::nullopt;
  }
  // A link carries at most one Gilbert-Elliott chain per direction, so a
  // lossy dutycycle may not meet a `gilbert` (or another lossy dutycycle)
  // on the same pair.
  std::vector<std::pair<std::string, std::string>> chain_pairs;
  const auto claim_pair = [&](const std::string& a, const std::string& b) {
    auto pair = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    for (const auto& seen : chain_pairs) {
      if (seen == pair) return false;
    }
    chain_pairs.push_back(std::move(pair));
    return true;
  };
  for (const auto& g : config.faults.gilbert) claim_pair(g.a, g.b);
  for (const auto& duty : config.faults.duty_cycles) {
    if (duty.lossy && !claim_pair(duty.a, duty.b)) {
      report("link " + duty.a + " " + duty.b +
             " has both a lossy dutycycle and a gilbert loss chain: a link "
             "carries one loss model");
      return std::nullopt;
    }
  }
  return std::move(state.scenario);
}

std::optional<Scenario> load_scenario(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return parse_scenario(in, error, path);
}

SimResult run_scenario(const Scenario& scenario) {
  return run_experiment(scenario.spec, scenario.mode);
}

}  // namespace mdr::sim
