// Control-plane cost baseline: incremental table maintenance (dirty-set
// MTU + dynamic SPT, proto/pda.cc) against the from-scratch NTU/MTU it
// replaced.
//
// Storm series: one high-degree router of a sparse Waxman graph rides out
// an LSU storm — a pre-generated stream of small tree diffs, one per
// remote-link perturbation, each followed by an MTU. The identical stream
// is replayed through (a) the real incremental RouterTables and (b) a
// faithful port of the pre-incremental implementation (Dijkstra per LSU
// over the neighbor's topology, full N-destination merge + Dijkstra +
// prune per MTU). Both must agree on every distance at the end — the
// speedup is only meaningful if the outputs match.
//
// Startup series: the waxman_scale.scn workload (1000 sparse routers, 100
// flows, sharded engine) run through the whole simulator — the
// macro-level wall clock the incremental control plane is meant to cut.
// scripts/run_bench.py --bench control_plane drives this binary, then
// measures the profiler-attributed table_update+recompute busy-time share
// on the same scenario via mdrsim --prof-deep and folds it into the JSON;
// the committed baseline lives in BENCH_control_plane.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"
#include "proto/lsu.h"
#include "proto/pda.h"
#include "proto/tables.h"
#include "sim/network_sim.h"
#include "topo/builders.h"
#include "topo/flows.h"
#include "util/rng.h"

namespace mdr::bench {
namespace {

using graph::Cost;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------ from-scratch oracle
//
// The pre-incremental RouterTables, ported verbatim from the repo history
// (apply_lsu: full Dijkstra over the neighbor topology; mtu: full
// N-destination preferred-neighbor merge, Dijkstra, prune, diff). Kept
// here as the bench comparator only.
class FromScratchTables {
 public:
  FromScratchTables(NodeId self, std::size_t num_nodes)
      : self_(self), num_nodes_(num_nodes),
        dist_(num_nodes, graph::kInfCost) {
    dist_[self_] = 0;
  }

  void link_up(NodeId k, Cost cost) {
    neighbors_.insert(k);
    link_costs_[k] = cost;
    nbr_topo_[k] = {};
    auto& dist = nbr_dist_[k];
    dist.assign(num_nodes_, graph::kInfCost);
    dist[k] = 0;
  }

  void apply_lsu(NodeId k, std::span<const proto::LsuEntry> entries) {
    proto::LinkStateTable& topo = nbr_topo_[k];
    topo.apply_batch(entries);
    const auto spt = graph::dijkstra(num_nodes_, topo.edges(), k);
    nbr_dist_[k] = spt.dist;
  }

  std::vector<proto::LsuEntry> mtu() {
    const proto::LinkStateTable before = main_;
    std::vector<proto::LsuEntry> rows;
    for (NodeId j = 0; j < static_cast<NodeId>(num_nodes_); ++j) {
      if (j == self_) continue;
      NodeId preferred = graph::kInvalidNode;
      Cost best = graph::kInfCost;
      for (const NodeId k : neighbors_) {
        const Cost d = nbr_dist_[k][j] + link_costs_[k];
        if (d < best) {
          best = d;
          preferred = k;
        }
      }
      if (preferred == graph::kInvalidNode) continue;
      for (const auto& e : nbr_topo_[preferred].links_from(j)) {
        rows.push_back(proto::LsuEntry{j, e.to, e.cost,
                                       proto::LsuOp::kAddOrChange});
      }
    }
    for (const NodeId k : neighbors_) {
      rows.push_back(proto::LsuEntry{self_, k, link_costs_[k],
                                     proto::LsuOp::kAddOrChange});
    }
    proto::LinkStateTable merged;
    merged.apply_batch(rows);
    const auto spt = graph::dijkstra(num_nodes_, merged.edges(), self_);
    std::vector<proto::LsuEntry> tree;
    for (NodeId v = 0; v < static_cast<NodeId>(num_nodes_); ++v) {
      const NodeId parent = spt.parent[v];
      if (parent == graph::kInvalidNode) continue;
      tree.push_back(proto::LsuEntry{parent, v, *merged.cost(parent, v),
                                     proto::LsuOp::kAddOrChange});
    }
    proto::LinkStateTable pruned;
    pruned.apply_batch(tree);
    dist_ = spt.dist;
    dist_[self_] = 0;
    main_ = pruned;
    return proto::LinkStateTable::diff(before, main_);
  }

  Cost distance(NodeId j) const { return dist_[j]; }

 private:
  NodeId self_;
  std::size_t num_nodes_;
  proto::LinkStateTable main_;
  std::map<NodeId, proto::LinkStateTable> nbr_topo_;
  std::map<NodeId, std::vector<Cost>> nbr_dist_;
  std::map<NodeId, Cost> link_costs_;
  std::set<NodeId> neighbors_;
  std::vector<Cost> dist_;
};

// ----------------------------------------------------- storm workload

struct StormEvent {
  NodeId from;  ///< reporting neighbor
  std::vector<proto::LsuEntry> entries;
};

struct StormWorkload {
  std::size_t num_nodes = 0;
  NodeId router = graph::kInvalidNode;
  std::vector<std::pair<NodeId, Cost>> adjacent;  // (neighbor, link cost)
  std::vector<StormEvent> startup;  // full neighbor trees
  std::vector<StormEvent> storm;    // small diffs under link churn
};

std::vector<proto::LsuEntry> as_lsu(
    std::span<const graph::CostedEdge> edges) {
  std::vector<proto::LsuEntry> out;
  out.reserve(edges.size());
  for (const auto& e : edges) {
    out.push_back(
        proto::LsuEntry{e.from, e.to, e.cost, proto::LsuOp::kAddOrChange});
  }
  return out;
}

// Builds the event stream ONCE — both series replay the same bytes, so
// the generator's Dijkstras never leak into a measured window.
StormWorkload make_storm(std::size_t nodes, int events, Rng& rng) {
  StormWorkload w;
  const auto topo = topo::make_waxman(nodes, 0.1, 0.1, rng);
  w.num_nodes = topo.num_nodes();
  std::vector<graph::CostedEdge> edges;
  for (graph::LinkId id = 0; id < static_cast<graph::LinkId>(topo.num_links());
       ++id) {
    edges.push_back(graph::CostedEdge{topo.link(id).from, topo.link(id).to,
                                      rng.uniform(0.5, 3.0)});
  }
  // The observed router: the highest-degree node (worst-case merge fanout).
  for (NodeId v = 0; v < static_cast<NodeId>(topo.num_nodes()); ++v) {
    if (w.router == graph::kInvalidNode ||
        topo.neighbors(v).size() > topo.neighbors(w.router).size()) {
      w.router = v;
    }
  }
  std::map<NodeId, proto::LinkStateTable> last_tree;  // per reporting nbr
  const auto tree_of = [&](NodeId k) {
    proto::LinkStateTable t;
    for (const auto& e :
         graph::tree_edges(graph::dijkstra(topo.num_nodes(), edges, k),
                           edges)) {
      t.set(e.from, e.to, e.cost);
    }
    return t;
  };
  for (const NodeId k : topo.neighbors(w.router)) {
    for (const auto& e : edges) {
      if (e.from == w.router && e.to == k) {
        w.adjacent.emplace_back(k, e.cost);
        break;
      }
    }
    proto::LinkStateTable t = tree_of(k);
    w.startup.push_back(StormEvent{k, as_lsu(t.edges())});
    last_tree[k] = std::move(t);
  }
  for (int i = 0; i < events; ++i) {
    // Perturb one random link, then the next neighbor reports its new tree
    // as a diff — the small-delta regime a real LSU storm produces.
    auto& e = edges[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(edges.size()) - 1))];
    e.cost = rng.uniform(0.5, 3.0);
    const NodeId k =
        w.adjacent[static_cast<std::size_t>(i) % w.adjacent.size()].first;
    proto::LinkStateTable t = tree_of(k);
    auto diff = proto::LinkStateTable::diff(last_tree[k], t);
    last_tree[k] = std::move(t);
    if (diff.empty()) continue;  // perturbation outside k's tree
    w.storm.push_back(StormEvent{k, std::move(diff)});
  }
  return w;
}

struct Series {
  std::uint64_t events = 0;
  double wall_s = 0;
  double ns_per_event() const { return wall_s * 1e9 / events; }
  double events_per_sec() const { return events / wall_s; }
};

// Replays the storm through either implementation (identical call shape).
template <typename Tables>
Series replay(const StormWorkload& w, Tables& t) {
  for (const auto& [k, cost] : w.adjacent) t.link_up(k, cost);
  for (const auto& ev : w.startup) {
    t.apply_lsu(ev.from, ev.entries);
  }
  t.mtu();
  Series s;
  const auto t0 = Clock::now();
  for (const auto& ev : w.storm) {
    t.apply_lsu(ev.from, ev.entries);
    t.mtu();
  }
  s.wall_s = seconds_since(t0);
  s.events = w.storm.size();
  return s;
}

// --------------------------------------------------- startup macro

struct Startup {
  std::size_t nodes = 0;
  int shards = 0;
  double sim_seconds = 0;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
};

// Mirrors examples/scenarios/waxman_scale.scn so the profiler share
// measured by run_bench.py on that scenario contextualizes this number.
Startup bench_startup(std::size_t nodes, double sim_seconds) {
  Rng rng(11);
  const auto topo = topo::make_waxman(nodes, /*a=*/0.06, /*b=*/0.06, rng,
                                      /*capacity_bps=*/10e6,
                                      /*max_prop_delay_s=*/5e-3,
                                      /*min_prop_delay_s=*/1e-3);
  const auto flows =
      topo::random_flows(topo, nodes / 10, /*mean_rate_bps=*/1e6, rng);
  sim::SimConfig config;
  config.traffic_start = 0.5;
  config.warmup = 0.5;
  config.duration = sim_seconds;
  config.tl = 4.0;
  config.ts = 2.0;
  config.seed = 11;
  sim::EngineSpec engine;
  engine.shards = 4;

  Startup m;
  m.nodes = nodes;
  m.shards = engine.shards;
  m.sim_seconds = sim_seconds;
  const auto t0 = Clock::now();
  const auto result = sim::run_simulation(topo, flows, config, engine);
  m.wall_s = seconds_since(t0);
  m.events = result.events_processed;
  m.delivered = result.delivered;
  return m;
}

// ---------------------------------------------------------------- main

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
  const std::size_t storm_nodes = smoke ? 120 : 300;
  const int storm_events = smoke ? 400 : 2000;
  const std::size_t startup_nodes = smoke ? 200 : 1000;
  const double startup_sim_s = 1.0;

  Rng rng(17);
  const StormWorkload storm = make_storm(storm_nodes, storm_events, rng);
  proto::RouterTables incremental(storm.router, storm.num_nodes);
  FromScratchTables scratch(storm.router, storm.num_nodes);
  const Series inc = replay(storm, incremental);
  const Series fs = replay(storm, scratch);
  // The comparison is meaningless unless the two agree on every distance.
  for (NodeId j = 0; j < static_cast<NodeId>(storm.num_nodes); ++j) {
    if (incremental.distance(j) != scratch.distance(j)) {
      std::fprintf(stderr,
                   "FATAL: incremental and from-scratch disagree on D(%d): "
                   "%.17g vs %.17g\n",
                   j, incremental.distance(j), scratch.distance(j));
      return 1;
    }
  }
  const double speedup = fs.ns_per_event() / inc.ns_per_event();

  const Startup startup = bench_startup(startup_nodes, startup_sim_s);
  const unsigned host_cpus = std::thread::hardware_concurrency();

  std::FILE* out = out_path ? std::fopen(out_path, "w") : stdout;
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"control_plane\",\n  \"version\": 1,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(out,
               "  \"storm\": {\"scenario\": \"waxman_%zu_hub_degree_%zu\", "
               "\"events\": %llu,\n",
               storm_nodes, storm.adjacent.size(),
               static_cast<unsigned long long>(inc.events));
  std::fprintf(out,
               "    \"incremental\": {\"events\": %llu, \"wall_seconds\": "
               "%.6f, \"ns_per_event\": %.1f, \"events_per_sec\": %.0f},\n",
               static_cast<unsigned long long>(inc.events), inc.wall_s,
               inc.ns_per_event(), inc.events_per_sec());
  std::fprintf(out,
               "    \"from_scratch\": {\"events\": %llu, \"wall_seconds\": "
               "%.6f, \"ns_per_event\": %.1f, \"events_per_sec\": %.0f},\n",
               static_cast<unsigned long long>(fs.events), fs.wall_s,
               fs.ns_per_event(), fs.events_per_sec());
  std::fprintf(out, "    \"speedup_vs_from_scratch\": %.2f\n  },\n", speedup);
  std::fprintf(out,
               "  \"startup\": {\"scenario\": \"waxman_%zu\", \"nodes\": %zu, "
               "\"shards\": %d, \"sim_seconds\": %.1f, \"wall_seconds\": "
               "%.3f, \"events\": %llu, \"events_per_sec\": %.0f, "
               "\"delivered\": %llu}\n}\n",
               startup.nodes, startup.nodes, startup.shards,
               startup.sim_seconds, startup.wall_s,
               static_cast<unsigned long long>(startup.events),
               startup.events / startup.wall_s,
               static_cast<unsigned long long>(startup.delivered));
  if (out != stdout) std::fclose(out);

  std::fprintf(stderr,
               "storm: incremental %.0f ev/s vs from-scratch %.0f ev/s "
               "(%.1fx) | startup n=%zu s%d %.1fs wall\n",
               inc.events_per_sec(), fs.events_per_sec(), speedup,
               startup.nodes, startup.shards, startup.wall_s);
  return 0;
}

}  // namespace
}  // namespace mdr::bench

int main(int argc, char** argv) { return mdr::bench::run(argc, argv); }
