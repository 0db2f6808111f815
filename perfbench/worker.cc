// perfbench_worker: builds and runs ONE benchmark workload in this process
// and prints one JSON object on stdout. perfbench/run.py starts one worker
// process per measured run, so host-time figures (and peak RSS above all)
// belong to a single workload.
//
//   perfbench_worker <workload> --seed N --data DIR [--mode run|setup|traced]
//                    [--reps K] [--tiny]
//
// Modes:
//   run     one set-up + NetworkSim::run(), profiler off: host times, peak
//           RSS and the deterministic outputs.
//   setup   K set-ups (generation, fault plan, NetworkSim construction),
//           each destroyed before the next: per-phase set-up times.
//   traced  one set-up + run() with the deep profiler on: per-section
//           counts and self times, engine window statistics, the worker's
//           own spans around the public calls, and the same deterministic
//           outputs (run.py checks they match the untraced runs).
//
// Only public library calls are used: sim::load_scenario, topo::make_waxman,
// topo::random_flows, fault::make_random_plan, the NetworkSim constructor
// and NetworkSim::run().
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/prof.h"
#include "sim/network_sim.h"
#include "sim/scenario.h"
#include "topo/builders.h"
#include "topo/flows.h"
#include "util/rng.h"

namespace {

using mdr::obs::ProfReport;
using mdr::obs::ProfSection;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// One benchmark-level span: a public library call timed from outside.
struct Span {
  std::string name;
  std::string parent;  ///< enclosing span, empty at the root
  double start_s = 0;  ///< since the worker started
  double end_s = 0;
};

const Clock::time_point g_epoch = Clock::now();

/// Records spans in memory; the traced mode prints them at the end.
class SpanLog {
 public:
  template <typename F>
  auto time(const std::string& name, const std::string& parent, F&& fn) {
    const double start = seconds_since(g_epoch);
    struct Close {
      SpanLog* log;
      Span span;
      ~Close() {
        span.end_s = seconds_since(g_epoch);
        log->spans_.push_back(span);
      }
    } close{this, Span{name, parent, start, 0}};
    return fn();
  }
  const std::vector<Span>& spans() const { return spans_; }
  double last_duration(const std::string& name) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->name == name) return it->end_s - it->start_s;
    }
    return 0;
  }

 private:
  std::vector<Span> spans_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string data_dir = "perfbench";
  std::string mode = "run";
  int reps = 1;
  bool tiny = false;
};

/// Everything NetworkSim's constructor takes, built by the timed set-up.
struct Workload {
  mdr::graph::Topology topo;
  std::vector<mdr::topo::FlowSpec> flows;
  mdr::sim::SimConfig config;
  mdr::sim::EngineSpec engine;
};

// Sparse Waxman shared by every generated workload: alpha = beta = 0.06 keeps
// node degree low, and the 1 ms propagation floor keeps the sharded engine's
// lookahead (minimum cross-shard delay) from collapsing.
constexpr double kWaxmanAlpha = 0.06;
constexpr double kWaxmanBeta = 0.06;
constexpr double kMinPropS = 1e-3;
/// The generated workloads fix their graph, flow set and fault plan with
/// this seed and take --seed as the simulation seed (packet arrivals,
/// protocol timer jitter), as the CAIRN workload does: a different random
/// graph per seed would move every metric by more than any bound.
constexpr std::uint64_t kStructureSeed = 11;
/// Data buffer per link (ten mean-size packets) on the workloads whose
/// losses come from congestion, as in perfbench/workloads/cairn_paper.scn.
constexpr double kQueueLimitBits = 80e3;

void generate_waxman(Workload& w, std::size_t n, std::size_t flows,
                     double rate_bps) {
  mdr::Rng rng(kStructureSeed);
  w.topo = mdr::topo::make_waxman(n, kWaxmanAlpha, kWaxmanBeta, rng, 10e6,
                                  5e-3, kMinPropS);
  w.flows = mdr::topo::random_flows(w.topo, flows, rate_bps, rng);
}

/// Telemetry on with a single end-of-run sample (the interval outlasts the
/// run): it fills the whole-run packet ledger and the flow_delay_s histogram
/// without changing any simulated output.
void enable_ledger(mdr::sim::SimConfig& c) {
  c.sample_interval = 2 * (c.traffic_start + c.warmup + c.duration) + 10;
}

/// Builds the workload's inputs (generation, fault plan), recording a span
/// around each public call. `--tiny` shrinks every size for self-tests.
Workload make_workload(const Args& a, SpanLog& log) {
  Workload w;
  std::optional<mdr::fault::RandomPlanOptions> plan;
  w.config.seed = a.seed;
  w.config.tl = 4;
  w.config.ts = 2;
  w.engine.shards = 1;
  if (a.workload == "cairn_paper") {
    const std::string path = a.data_dir + "/workloads/cairn_paper.scn";
    auto scn = log.time("setup.generate", "setup", [&] {
      std::string error;
      auto s = mdr::sim::load_scenario(path, &error);
      if (!s) throw std::runtime_error("load_scenario: " + error);
      return s;
    });
    w.topo = std::move(scn->spec.topo);
    w.flows = std::move(scn->spec.flows);
    w.config = scn->spec.config;
    w.engine = scn->spec.engine;
    w.config.seed = a.seed;
    if (a.tiny) w.config.duration = 5;
  } else if (a.workload == "waxman_startup") {
    // Cold start: sources open at t = 0, before any route exists, so the
    // packets sent while routing converges are the losses.
    log.time("setup.generate", "setup", [&] {
      generate_waxman(w, a.tiny ? 40 : 500, a.tiny ? 10 : 100, 1e6);
    });
    w.config.traffic_start = 0;
    w.config.warmup = 0.5;
    w.config.duration = 1;
  } else if (a.workload == "waxman_churn") {
    // Flaps are 3 s down / 3 s up: both ends of a flapping link always see
    // the failure (3 s > dead interval + one hello) and always re-form the
    // adjacency before the next failure.
    log.time("setup.generate", "setup", [&] {
      generate_waxman(w, a.tiny ? 30 : 130, a.tiny ? 10 : 60, 3e5);
    });
    w.config.traffic_start = 3;
    w.config.warmup = 1;
    w.config.duration = a.tiny ? 12 : 30;
    w.config.use_hello = true;
    w.config.hello.interval = 0.5;
    w.config.hello.dead_interval = 1.75;
    w.config.monitor_interval = 0.5;
    mdr::fault::RandomPlanOptions& opts = plan.emplace();
    opts.crashes = a.tiny ? 2 : 4;
    opts.flapping_links = a.tiny ? 3 : 10;
    opts.gilbert_links = 0;
    opts.window_start = 5;
    opts.window_end = a.tiny ? 10 : 28;
    opts.flap_shape.period = 6;
    opts.flap_shape.duty = 0.5;
    opts.flap_shape.start = 5;
    opts.flap_shape.stop = a.tiny ? 12 : 30;
  } else if (a.workload == "waxman_sharded") {
    log.time("setup.generate", "setup", [&] {
      generate_waxman(w, a.tiny ? 30 : 120, a.tiny ? 10 : 60, 1e6);
    });
    w.config.traffic_start = 1;
    w.config.warmup = 1;
    w.config.duration = a.tiny ? 3 : 28;
    w.config.queue_limit_bits = kQueueLimitBits;
    w.engine.shards = 4;
  } else {
    throw std::invalid_argument("unknown workload: " + a.workload);
  }
  // Every workload has a fault-plan phase; only waxman_churn draws a plan,
  // the others keep their (empty) configured one.
  w.config.faults = log.time("setup.fault_plan", "setup", [&] {
    return plan ? mdr::fault::make_random_plan(w.topo, *plan, kStructureSeed)
                : w.config.faults;
  });
  enable_ledger(w.config);
  return w;
}

std::unique_ptr<mdr::sim::NetworkSim> build_sim(const Workload& w,
                                                SpanLog& log) {
  return log.time("setup.build", "setup", [&] {
    return std::make_unique<mdr::sim::NetworkSim>(w.topo, w.flows, w.config,
                                                  w.engine);
  });
}

// ---- JSON output ----------------------------------------------------------

class Json {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void u64(const char* key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    raw(key, buf);
  }
  void str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    raw(key, q + "\"");
  }
  void raw(const char* key, const std::string& v) {
    if (out_.size() > 1) out_ += ", ";
    out_ += '"';
    out_ += key;
    out_ += "\": ";
    out_ += v;
  }
  std::string done() const { return out_ + "}"; }

 private:
  std::string out_ = "{";
};

/// The deterministic outputs: fixed for a given seed in every mode, so run.py
/// compares them across repetitions and between traced and untraced runs.
void emit_outputs(Json& j, const mdr::sim::SimResult& r) {
  if (!r.telemetry) throw std::logic_error("ledger telemetry missing");
  const auto& m = r.telemetry->metrics;
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = m.counters().find(name);
    return it == m.counters().end() ? 0 : it->second;
  };
  const auto hist = m.histograms().find("flow_delay_s");
  const double p99 =
      hist == m.histograms().end() ? 0.0 : hist->second.percentile(0.99);
  const std::uint64_t injected = counter("packets.injected");
  const std::uint64_t delivered = counter("packets.delivered");
  j.u64("events", r.events_processed);
  j.u64("injected", injected);
  j.u64("delivered", delivered);
  j.u64("delivered_measured", r.delivered);
  j.num("sim_delay_ms", r.avg_delay_s * 1e3);
  j.num("sim_p99_delay_ms", p99 * 1e3);
  j.num("loss_share",
        injected > 0 ? 1.0 - static_cast<double>(delivered) /
                                 static_cast<double>(injected)
                     : 0.0);
  j.num("control_mbit", r.control_bits / 1e6);
  j.u64("lsus_originated", r.lsus_originated);
  j.u64("lsus_retransmitted", r.lsus_retransmitted);
  j.u64("acks", r.acks_sent);
  j.u64("lfi_checks", r.lfi_checks);
  j.u64("lfi_violations", r.lfi_violations);
  if (r.monitor) {
    j.u64("monitor_checks", r.monitor->checks);
    j.u64("forwarding_loops", r.monitor->forwarding_loops);
    j.u64("accounting_leaks", r.monitor->accounting_leaks);
  }
}

void emit_prof(Json& j, const ProfReport& p) {
  const auto s = [&](ProfSection sec) { return p.total(sec); };
  const auto sec_s = [](std::uint64_t ns) {
    return 1e-9 * static_cast<double>(ns);
  };
  const auto self_sum = [&](std::initializer_list<ProfSection> list) {
    std::uint64_t ns = 0;
    for (ProfSection x : list) ns += s(x).self_ns;
    return sec_s(ns);
  };
  using PS = ProfSection;
  j.num("sim.dispatch.self_s",
        self_sum({PS::kDispatchCallback, PS::kDispatchTransmit,
                  PS::kDispatchDeliver, PS::kDispatchSource,
                  PS::kDispatchTimer}));
  j.u64("sim.link.hops", s(PS::kLinkEnqueue).count);
  j.num("sim.link.self_s", self_sum({PS::kLinkEnqueue, PS::kLinkDeliver}));
  j.u64("mpda.lsu_decode.count", s(PS::kMpdaDecode).count);
  j.u64("mpda.table_update.count", s(PS::kMpdaTableUpdate).count);
  j.num("mpda.table_update.self_s", self_sum({PS::kMpdaTableUpdate}));
  j.num("mpda.recompute.self_s", self_sum({PS::kMpdaRecompute}));
  j.u64("mpda.flood.count", s(PS::kMpdaFlood).count);
  j.num("mpda.flood.self_s", self_sum({PS::kMpdaFlood}));
  j.u64("alloc.ih.count", s(PS::kAllocIh).count);
  j.u64("alloc.ah.count", s(PS::kAllocAh).count);
  j.num("alloc.self_s", self_sum({PS::kAllocIh, PS::kAllocAh}));
  j.u64("engine.windows", p.windows);
  j.num("engine.busy_s", sec_s(s(PS::kEngineBusy).total_ns));
  j.num("engine.stall_s", sec_s(s(PS::kEngineStall).total_ns));
  j.num("engine.handoff_s", sec_s(s(PS::kEngineHandoff).total_ns));
  j.num("engine.imbalance", p.imbalance());
  j.num("sim.report.self_s", self_sum({PS::kSimReport}));
  std::string raw;
  p.append_json(raw);
  j.raw("prof_report", raw);
}

std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "[";
  for (const Span& s : spans) {
    Json j;
    j.str("name", s.name);
    j.str("parent", s.parent);
    j.num("start_s", s.start_s);
    j.num("end_s", s.end_s);
    if (out.size() > 1) out += ", ";
    out += j.done();
  }
  return out + "]";
}

std::string run_mode(const Args& a) {
  SpanLog log;
  Json j;
  j.str("workload", a.workload);
  j.u64("seed", a.seed);
  if (a.mode == "setup") {
    std::string gen = "[", plan = "[", build = "[", total = "[";
    const auto push = [](std::string& s, double v) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", s.size() > 1 ? ", " : "", v);
      s += buf;
    };
    for (int i = 0; i < a.reps; ++i) {
      SpanLog rep;
      const auto t0 = Clock::now();
      Workload w = make_workload(a, rep);
      auto sim = build_sim(w, rep);
      const double setup = seconds_since(t0);
      push(gen, rep.last_duration("setup.generate"));
      push(plan, rep.last_duration("setup.fault_plan"));
      push(build, rep.last_duration("setup.build"));
      push(total, setup);
    }
    j.raw("setup_s", total + "]");
    j.raw("setup.generate_s", gen + "]");
    j.raw("setup.fault_plan_s", plan + "]");
    j.raw("setup.build_s", build + "]");
    return j.done();
  }

  const bool traced = a.mode == "traced";
  if (!traced && a.mode != "run") {
    throw std::invalid_argument("unknown mode: " + a.mode);
  }
  // NetworkSim keeps a pointer to the topology: `w` must outlive `sim`.
  const auto t0 = Clock::now();
  Workload w;
  std::unique_ptr<mdr::sim::NetworkSim> sim;
  double build_rss_mb = 0;
  log.time("setup", "", [&] {
    w = make_workload(a, log);
    w.config.prof = traced;
    w.config.prof_deep = traced;
    const double rss0 = current_rss_mb();
    sim = build_sim(w, log);
    build_rss_mb = current_rss_mb() - rss0;
  });
  const double setup_s = seconds_since(t0);
  const double cpu0 = cpu_seconds();
  const auto r0 = Clock::now();
  const mdr::sim::SimResult result =
      log.time("sim.run", "", [&] { return sim->run(); });
  const double wall_s = seconds_since(r0);
  const double cpu_s = cpu_seconds() - cpu0;
  j.num("setup_s", setup_s);
  j.num("wall_s", wall_s);
  j.num("cpu_s", cpu_s);
  j.num("peak_rss_mb", peak_rss_mb());
  j.num("build_rss_mb", build_rss_mb);
  j.u64("shards", static_cast<std::uint64_t>(w.engine.shards));
  emit_outputs(j, result);
  if (traced) {
    if (!result.prof) throw std::logic_error("profiler report missing");
    emit_prof(j, *result.prof);
    j.raw("spans", spans_json(log.spans()));
  }
  return j.done();
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_worker: %s\nusage: perfbench_worker <workload> "
               "--seed N [--data DIR] [--mode run|setup|traced] [--reps K] "
               "[--tiny]\n",
               msg);
  std::exit(2);
}

std::uint64_t number(const std::string& text) {
  std::size_t end = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(text, &end);
  } catch (const std::exception&) {
    end = 0;
  }
  if (end == 0 || end != text.size() || text[0] == '-') {
    usage(("not a number: " + text).c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--seed") {
      a.seed = number(value());
    } else if (arg == "--data") {
      a.data_dir = value();
    } else if (arg == "--mode") {
      a.mode = value();
    } else if (arg == "--reps") {
      const std::uint64_t reps = number(value());
      if (reps < 1 || reps > 100000) usage("--reps must be in [1, 100000]");
      a.reps = static_cast<int>(reps);
    } else if (arg == "--tiny") {
      a.tiny = true;
    } else if (!arg.empty() && arg[0] != '-' && a.workload.empty()) {
      a.workload = arg;
    } else {
      usage(("unexpected argument " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage("no workload named");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    std::printf("%s\n", run_mode(args).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_worker: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
}
