// Event-core perf baseline: typed pooled events vs the former
// std::function heap, plus a timer-wheel series and a macro CAIRN run.
//
// Micro series (steady state, measured after warmup). Both hop series run
// the SAME workload — a CAIRN-scale population of periodic protocol timers
// (hello / Ts / Tl / retransmit) plus concurrent packet-hop chains — so the
// comparison is like-for-like:
//  * legacy_fn_heap — a faithful port of the pre-rebuild core
//    (std::priority_queue of {time, seq, std::function}) driving the old
//    SimLink event shape: timers and transmit-completes as small-buffer
//    lambdas, one packet-carrying lambda per delivery (heap-allocated —
//    the Packet capture exceeds std::function's small-buffer optimization).
//  * typed_link_hop — the real EventQueue + SimLink packet path with the
//    timers parked on the wheel: a delivered packet is immediately
//    re-offered to the link, so the enqueue / transmit-complete / delivery
//    cycle runs at event-core speed. The headline structural number is
//    allocations/event, which must be exactly zero.
//  * timer_wheel — a pure population of periodic timers on the hashed
//    wheel, the hello/Ts/Tl/retransmit pattern in isolation.
//
// Macro: run_simulation on CAIRN at the figure load for 60 simulated
// seconds, one seed — wall clock, total events, events/sec, peak RSS.
//
// Engine series: the same simulation pipeline on a generated Waxman graph
// with a 1 ms propagation-delay floor (so the engine's conservative
// lookahead windows are wide), run at 1 / 2 / 4 / 8 shards. Plus one
// "scale" point: the first 1000-router run, sharded. The emitted host_cpus field is the
// honesty context for both — shard throughput can only scale with real
// cores, and a 1-CPU container will show the barrier overhead, not a
// speedup (docs/BENCHMARKS.md).
//
// Honesty note: on this workload the typed core's throughput gain over the
// legacy heap is modest (tcache makes the legacy closure allocations cheap
// in a single-threaded steady loop); the rebuild's hard wins are the zero
// allocation rate, the flat pool, and O(1) wheel residency for timers.
// docs/BENCHMARKS.md discusses the measured numbers.
//
// Allocation counting interposes global operator new within this binary
// (single-threaded, so a plain counter suffices). scripts/run_bench.py
// drives this binary and validates the emitted JSON; the committed
// baseline lives in BENCH_event_core.json.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <deque>
#include <thread>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "cost/estimators.h"
#include "graph/topology.h"
#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/network_sim.h"
#include "topo/builders.h"
#include "topo/flows.h"
#include "util/rng.h"

namespace {
// Relaxed atomic: the sharded engine series allocates from worker threads.
// The micro series that reads the counter runs strictly single-threaded.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mdr::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Series {
  std::uint64_t events = 0;
  double wall_s = 0;
  std::uint64_t allocs = 0;
  double ns_per_event() const { return wall_s * 1e9 / events; }
  double events_per_sec() const { return events / wall_s; }
  double allocs_per_event() const {
    return static_cast<double>(allocs) / events;
  }
};

// ------------------------------------------------- legacy core (port)

// The pre-rebuild EventQueue, verbatim apart from the name: a binary
// priority_queue whose elements own a std::function.
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  Time now() const { return now_; }
  void schedule_at(Time t, Callback fn) {
    heap_.push(Event{t, next_seq_++, std::move(fn)});
  }
  void schedule_in(Duration delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }
  bool run_next() {
    if (heap_.empty()) return false;
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = ev.time;
    ++processed_;
    ev.fn();
    return true;
  }
  std::size_t processed() const { return processed_; }

 private:
  struct Event {
    Time time;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

// Shared micro-workload shape: a CAIRN-scale timer population riding along
// with the packet-hop chains. Timer events are a negligible fraction of
// the event count; what they stress is residency — the legacy core keeps
// all of them inside the heap every sift, the typed core parks them on
// the wheel.
constexpr int kTimers = 256;
constexpr int kChains = 32;

double timer_period(int i) { return 0.5 + 0.01 * (i % 150); }

// The old SimLink's event shape AND its per-hop work, so the two series
// compare full pipeline against full pipeline: timers and
// transmit-completes capture only `this` (fits the small-buffer
// optimization), delivery captures the moved Packet (heap-allocates,
// every hop), and each departure pays the same queue round-trip,
// estimator observations and loss draw the real link pays.
struct LegacyChain {
  LegacyEventQueue* events;
  std::int64_t* remaining;
  std::unique_ptr<cost::MarginalDelayEstimator> short_est;
  std::unique_ptr<cost::MarginalDelayEstimator> long_est;
  Rng rng{12345};
  struct Queued {
    sim::Packet packet;
    Time enqueued;
  };
  std::deque<Queued> queue;
  Queued in_service;

  void send(sim::Packet p) {
    queue.push_back(Queued{std::move(p), events->now()});
    in_service = std::move(queue.front());
    queue.pop_front();
    events->schedule_in(1e-5, [this] { complete(); });
  }
  void complete() {
    sim::Packet p = std::move(in_service.packet);
    cost::PacketObservation obs;
    obs.arrival_time = in_service.enqueued;
    obs.departure_time = events->now();
    obs.service_time = 1e-5;
    obs.size_bits = p.size_bits + sim::kHeaderBits;
    obs.started_busy_period = true;
    short_est->observe(obs);
    long_est->observe(obs);
    const bool lost = rng.uniform() < 0.0;
    (void)lost;
    events->schedule_in(1e-5,
                        [this, p = std::move(p)]() mutable {
                          if (--*remaining > 0) send(std::move(p));
                        });
  }
};

struct LegacyTimer {
  LegacyEventQueue* events;
  double period;
  void arm() {
    events->schedule_in(period, [this] { arm(); });
  }
};

Series bench_legacy(std::uint64_t hops) {
  LegacyEventQueue events;
  std::int64_t remaining =
      static_cast<std::int64_t>(hops + hops / 10);
  std::deque<LegacyTimer> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(LegacyTimer{&events, timer_period(i)});
    timers.back().arm();
  }
  // Time-based warmup, mirrored in the typed series: two wheel revolutions
  // (2 x 16 s) so the typed core's slot vectors reach their steady-state
  // high-water capacity before measurement. The legacy heap has no such
  // transient, but both series must start the clock at the same sim time.
  while (events.now() < 34.0) events.run_next();
  std::deque<LegacyChain> chains;
  for (int i = 0; i < kChains; ++i) {
    chains.emplace_back();
    chains.back().events = &events;
    chains.back().remaining = &remaining;
    chains.back().short_est = cost::make_estimator(
        cost::EstimatorKind::kObservable, 1e8, 1e-5, 8e3);
    chains.back().long_est = cost::make_estimator(
        cost::EstimatorKind::kObservable, 1e8, 1e-5, 8e3);
    sim::Packet p;
    p.size_bits = 8e3;
    chains.back().send(std::move(p));
  }
  while (remaining > static_cast<std::int64_t>(hops)) events.run_next();

  Series s;
  const std::uint64_t events0 = events.processed();
  const std::uint64_t allocs0 = g_allocs;
  const auto t0 = Clock::now();
  while (remaining > 0) events.run_next();
  s.wall_s = seconds_since(t0);
  s.events = events.processed() - events0;
  s.allocs = g_allocs - allocs0;
  return s;
}

// ------------------------------------------------- typed pooled core

Series bench_typed_link_hop(std::uint64_t hops) {
  sim::EventQueue events;
  std::int64_t remaining =
      static_cast<std::int64_t>(hops + hops / 10);
  struct WheelTimer {
    sim::EventQueue* events;
    double period;
    void arm() {
      events->schedule_timer_in(period, [this] { arm(); });
    }
  };
  std::deque<WheelTimer> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(WheelTimer{&events, timer_period(i)});
    timers.back().arm();
  }
  // Two full wheel revolutions before measurement: the wheel's slot vectors
  // grow to their high-water capacity and keep it (cascade uses resize, not
  // shrink), so the measured window sees the true steady state — zero
  // allocations. The legacy series runs the identical warmup.
  while (events.now() < 34.0) events.run_next();
  // Fast links so the loop is event-core bound, with the real estimator
  // observation per departure — the full per-hop cost the simulator pays.
  std::deque<sim::SimLink> links;
  std::vector<sim::SimLink*> ptrs(kChains, nullptr);
  for (int i = 0; i < kChains; ++i) {
    links.emplace_back(events, graph::LinkAttr{1e8, 1e-5},
                       cost::EstimatorKind::kObservable, 8e3,
                       [&remaining, &ptrs, i](sim::Packet p) {
                         if (--remaining > 0) ptrs[i]->enqueue(std::move(p));
                       });
    ptrs[i] = &links.back();
    sim::Packet p;
    p.size_bits = 8e3;
    ptrs[i]->enqueue(std::move(p));
  }
  while (remaining > static_cast<std::int64_t>(hops)) events.run_next();

  Series s;
  const std::uint64_t events0 = events.processed();
  const std::uint64_t allocs0 = g_allocs;
  const auto t0 = Clock::now();
  while (remaining > 0) events.run_next();
  s.wall_s = seconds_since(t0);
  s.events = events.processed() - events0;
  s.allocs = g_allocs - allocs0;
  return s;
}

Series bench_timer_wheel(std::uint64_t ticks) {
  // 64 periodic timers with staggered sub-second periods: the protocol's
  // hello / Ts / Tl / retransmit population, all parked on the wheel.
  sim::EventQueue events;
  constexpr int kTimers = 64;
  struct Timer {
    sim::EventQueue* events;
    double period;
    std::uint64_t fired = 0;
    void arm() {
      events->schedule_timer_in(period, [this] {
        ++fired;
        arm();
      });
    }
  };
  std::vector<Timer> timers;
  timers.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(Timer{&events, 0.25 + 0.025 * i});
    timers.back().arm();
  }
  // Same two-revolution warmup as the hop series: measure the wheel's
  // steady state, after every slot vector has reached its final capacity.
  while (events.now() < 34.0) events.run_next();
  const std::uint64_t warmup = events.processed();

  Series s;
  const std::uint64_t events0 = events.processed();
  const std::uint64_t allocs0 = g_allocs;
  const auto t0 = Clock::now();
  while (events.processed() < warmup + ticks) events.run_next();
  s.wall_s = seconds_since(t0);
  s.events = events.processed() - events0;
  s.allocs = g_allocs - allocs0;
  return s;
}

// --------------------------------------------------------------- macro

struct Macro {
  double sim_seconds = 0;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t peak_rss_bytes = 0;
};

Macro bench_macro(double duration) {
  sim::SimConfig config;
  config.traffic_start = 3.0;
  config.warmup = 15.0;
  config.duration = duration;
  config.seed = 7;
  const auto topo = topo::make_cairn();
  const auto flows = topo::cairn_flows(1.15);

  Macro m;
  m.sim_seconds = duration;
  const auto t0 = Clock::now();
  const auto result = sim::run_simulation(topo, flows, config);
  m.wall_s = seconds_since(t0);
  m.events = result.events_processed;
  m.delivered = result.delivered;
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  m.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  return m;
}

// ------------------------------------------------- engine shard scaling

// One (shard count, workload) measurement.
struct EnginePoint {
  int shards = 0;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  double events_per_sec() const { return events / wall_s; }
};

// The shard-scaling workload: a sparse generated Waxman graph whose
// propagation delays are floored at 1 ms, so the conservative lookahead
// window is wide relative to the event density and barrier overhead stays
// a small fraction of the work. Sparse on purpose — every LSU triggers a
// full table update at the receiver, so dense graphs measure the routing
// algebra, not the event engine.
struct EngineWorkload {
  graph::Topology topo;
  std::vector<topo::FlowSpec> flows;
  sim::SimConfig config;
};

EngineWorkload engine_workload(std::size_t nodes, std::size_t flow_count,
                               double sim_seconds) {
  EngineWorkload w;
  Rng rng(11);
  w.topo = topo::make_waxman(nodes, /*a=*/0.06, /*b=*/0.06, rng,
                             /*capacity_bps=*/10e6,
                             /*max_prop_delay_s=*/5e-3,
                             /*min_prop_delay_s=*/1e-3);
  w.flows = topo::random_flows(w.topo, flow_count, /*mean_rate_bps=*/1e6,
                               rng);
  w.config.traffic_start = 0.5;
  w.config.warmup = 0.5;
  w.config.duration = sim_seconds;
  w.config.tl = 4.0;
  w.config.ts = 2.0;
  w.config.seed = 11;
  return w;
}

EnginePoint bench_engine_point(const EngineWorkload& w, int shards) {
  sim::EngineSpec engine;
  engine.shards = shards;
  EnginePoint p;
  p.shards = shards;
  const auto t0 = Clock::now();
  const auto result = sim::run_simulation(w.topo, w.flows, w.config, engine);
  p.wall_s = seconds_since(t0);
  p.events = result.events_processed;
  p.delivered = result.delivered;
  return p;
}

// ---------------------------------------------------------------- main

void print_series(std::FILE* out, const char* name, const Series& s,
                  bool last) {
  std::fprintf(out,
               "    \"%s\": {\"events\": %llu, \"wall_seconds\": %.6f, "
               "\"ns_per_event\": %.2f, \"events_per_sec\": %.0f, "
               "\"allocs_per_event\": %.6f}%s\n",
               name, static_cast<unsigned long long>(s.events), s.wall_s,
               s.ns_per_event(), s.events_per_sec(), s.allocs_per_event(),
               last ? "" : ",");
}

int run(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  const std::uint64_t hops = smoke ? 100000 : 1000000;
  const std::uint64_t ticks = smoke ? 100000 : 1000000;
  const double macro_duration = smoke ? 10.0 : 60.0;
  // Engine series: ~120 routers is deep into macro territory while keeping
  // the 4-point sweep under a minute per point. The scale point is the
  // 1000-router milestone (smoke substitutes 200 — CI minutes are real).
  const std::size_t engine_nodes = smoke ? 60 : 120;
  const double engine_sim_s = smoke ? 4.0 : 10.0;
  const std::size_t scale_nodes = smoke ? 200 : 1000;
  const double scale_sim_s = 1.0;

  // The macro runs first: its peak RSS is the process's high-water mark,
  // which any earlier series would have raised.
  const Macro macro = bench_macro(macro_duration);
  const Series legacy = bench_legacy(hops);
  const Series typed = bench_typed_link_hop(hops);
  const Series wheel = bench_timer_wheel(ticks);
  const double speedup = typed.events_per_sec() / legacy.events_per_sec();

  const EngineWorkload engine_work =
      engine_workload(engine_nodes, engine_nodes / 2, engine_sim_s);
  std::vector<EnginePoint> engine_series;
  for (const int shards : {1, 2, 4, 8}) {
    engine_series.push_back(bench_engine_point(engine_work, shards));
  }
  const EngineWorkload scale_work =
      engine_workload(scale_nodes, scale_nodes / 10, scale_sim_s);
  const EnginePoint scale = bench_engine_point(scale_work, 4);
  const unsigned host_cpus = std::thread::hardware_concurrency();

  std::FILE* out = out_path ? std::fopen(out_path, "w") : stdout;
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"event_core\",\n  \"version\": 2,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(out, "  \"micro\": {\n");
  print_series(out, "legacy_fn_heap", legacy, false);
  print_series(out, "typed_link_hop", typed, false);
  print_series(out, "timer_wheel", wheel, false);
  std::fprintf(out, "    \"speedup_vs_legacy\": %.2f\n  },\n", speedup);
  std::fprintf(out,
               "  \"macro\": {\"scenario\": \"cairn_mp\", "
               "\"sim_seconds\": %.0f, \"wall_seconds\": %.3f, "
               "\"events\": %llu, \"events_per_sec\": %.0f, "
               "\"delivered\": %llu, \"peak_rss_bytes\": %llu},\n",
               macro.sim_seconds, macro.wall_s,
               static_cast<unsigned long long>(macro.events),
               macro.events / macro.wall_s,
               static_cast<unsigned long long>(macro.delivered),
               static_cast<unsigned long long>(macro.peak_rss_bytes));
  std::fprintf(out,
               "  \"engine\": {\"scenario\": \"waxman_%zu\", "
               "\"sim_seconds\": %.1f,\n    \"series\": [\n",
               engine_nodes, engine_sim_s);
  double shard1_eps = 0, shard4_eps = 0;
  for (std::size_t i = 0; i < engine_series.size(); ++i) {
    const EnginePoint& p = engine_series[i];
    if (p.shards == 1) shard1_eps = p.events_per_sec();
    if (p.shards == 4) shard4_eps = p.events_per_sec();
    std::fprintf(out,
                 "      {\"shards\": %d, \"wall_seconds\": %.3f, "
                 "\"events\": %llu, \"events_per_sec\": %.0f, "
                 "\"delivered\": %llu}%s\n",
                 p.shards, p.wall_s,
                 static_cast<unsigned long long>(p.events),
                 p.events_per_sec(),
                 static_cast<unsigned long long>(p.delivered),
                 i + 1 < engine_series.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n    \"speedup_4_shards_vs_1\": %.2f\n  },\n",
               shard1_eps > 0 ? shard4_eps / shard1_eps : 0.0);
  std::fprintf(out,
               "  \"scale\": {\"scenario\": \"waxman_%zu\", \"nodes\": %zu, "
               "\"shards\": %d, \"sim_seconds\": %.1f, "
               "\"wall_seconds\": %.3f, \"events\": %llu, "
               "\"events_per_sec\": %.0f, \"delivered\": %llu}\n}\n",
               scale_nodes, scale_nodes, scale.shards, scale_sim_s,
               scale.wall_s, static_cast<unsigned long long>(scale.events),
               scale.events_per_sec(),
               static_cast<unsigned long long>(scale.delivered));
  if (out != stdout) std::fclose(out);

  std::fprintf(stderr,
               "legacy %.0f ev/s | typed %.0f ev/s (%.2fx, %.4f allocs/ev) "
               "| wheel %.0f ev/s | macro %.0f ev/s\n",
               legacy.events_per_sec(), typed.events_per_sec(), speedup,
               typed.allocs_per_event(), wheel.events_per_sec(),
               macro.events / macro.wall_s);
  std::fprintf(stderr, "engine series (host_cpus=%u):", host_cpus);
  for (const EnginePoint& p : engine_series) {
    std::fprintf(stderr, " s%d %.0f ev/s", p.shards, p.events_per_sec());
  }
  std::fprintf(stderr, " | scale n=%zu s%d %.0f ev/s (%.1fs wall)\n",
               scale_nodes, scale.shards, scale.events_per_sec(),
               scale.wall_s);
  return 0;
}

}  // namespace
}  // namespace mdr::bench

int main(int argc, char** argv) { return mdr::bench::run(argc, argv); }
