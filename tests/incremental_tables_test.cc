// Equivalence tests for the incremental control plane (ISSUE: dirty-set MTU
// + dynamic SPT): randomized chaos-style event streams — link churn, cost
// changes, arbitrary message interleavings — with the RouterTables audit
// enabled, so every NTU/MTU is cross-checked against a from-scratch
// recomputation. On top of the audit, an observer re-derives the successor
// sets from the public API (Eq. 17) after every event, covering the
// successor dirty-set machinery in MpdaProcess, and a mid-churn checkpoint
// round trip validates the v2 canonical-rebuild restore path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "ckpt/ckpt.h"
#include "core/mpda.h"
#include "graph/dijkstra.h"
#include "harness.h"
#include "proto/pda.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace mdr::core {
namespace {

using graph::Cost;
using graph::NodeId;
using MpdaHarness = test::ProtocolHarness<MpdaProcess>;

// Turns the incremental-vs-from-scratch audit on for the test's lifetime
// (any divergence throws std::logic_error out of the event handler).
struct AuditGuard {
  AuditGuard() : prev(proto::RouterTables::audit_enabled()) {
    proto::RouterTables::set_audit_enabled(true);
  }
  ~AuditGuard() { proto::RouterTables::set_audit_enabled(prev); }
  bool prev;
};

MpdaHarness::Factory mpda_factory() {
  return [](NodeId self, std::size_t n, proto::LsuSink& sink) {
    return std::make_unique<MpdaProcess>(self, n, sink);
  };
}

std::vector<Cost> random_costs(const graph::Topology& topo, Rng& rng) {
  std::vector<Cost> costs;
  for (std::size_t i = 0; i < topo.num_links(); ++i) {
    costs.push_back(rng.uniform(0.5, 4.0));
  }
  return costs;
}

// The successor-set oracle: S_j = {k in N : D_jk < FD_j} (Eq. 17),
// re-derived from public accessors only. The incremental recompute skips
// destinations whose inputs did not move; this asserts the skip never
// hides a change.
void check_successor_oracle(MpdaHarness& h) {
  const auto n = static_cast<NodeId>(h.topology().num_nodes());
  for (NodeId i = 0; i < n; ++i) {
    const auto& t = h.node(i).tables();
    for (NodeId j = 0; j < n; ++j) {
      if (j == i) continue;
      std::vector<NodeId> want;
      for (const NodeId k : t.neighbors()) {
        if (t.distance_via(j, k) < h.node(i).feasible_distance(j)) {
          want.push_back(k);
        }
      }
      ASSERT_EQ(h.node(i).successors(j), want)
          << "router " << i << " dest " << j;
    }
  }
}

// Global truth for the CURRENT cost vector, with failed links removed.
void expect_converged(MpdaHarness& h, const std::vector<Cost>& costs,
                      const std::set<std::pair<NodeId, NodeId>>& down) {
  const auto& topo = h.topology();
  std::vector<graph::CostedEdge> edges;
  for (graph::LinkId id = 0; id < static_cast<graph::LinkId>(topo.num_links());
       ++id) {
    const auto& l = topo.link(id);
    if (down.contains({l.from, l.to})) continue;
    edges.push_back(graph::CostedEdge{l.from, l.to, costs[id]});
  }
  for (NodeId i = 0; i < static_cast<NodeId>(topo.num_nodes()); ++i) {
    const auto truth = graph::dijkstra(topo.num_nodes(), edges, i);
    for (NodeId j = 0; j < static_cast<NodeId>(topo.num_nodes()); ++j) {
      EXPECT_EQ(h.node(i).tables().distance(j), truth.dist[j])
          << "router " << i << " dest " << j;
    }
  }
}

// One chaos run: bring-up under a random order, then a long interleaving of
// deliveries, cost changes, and duplex fail/restore cycles, audited and
// oracle-checked after every single event.
void chaos_run(const graph::Topology& topo, std::uint64_t seed,
               int churn_steps) {
  AuditGuard audit;
  Rng rng(seed);
  auto costs = random_costs(topo, rng);
  MpdaHarness h(topo, costs, mpda_factory());
  h.on_after_event = [&h] { check_successor_oracle(h); };

  h.bring_up_all(&rng);
  h.run_to_quiescence(rng);

  // Duplex pairs eligible for failure, deduplicated.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (graph::LinkId id = 0; id < static_cast<graph::LinkId>(topo.num_links());
       ++id) {
    const auto& l = topo.link(id);
    if (l.from < l.to) pairs.emplace_back(l.from, l.to);
  }
  std::set<std::pair<NodeId, NodeId>> down;

  for (int step = 0; step < churn_steps; ++step) {
    const int what = rng.uniform_int(0, 9);
    if (what < 5) {
      h.deliver_one(rng);  // false when quiet: the step is a no-op
    } else if (what < 8) {
      // Re-measure one adjacent link cost (only on a live link).
      const auto& [a, b] = pairs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(pairs.size()) - 1))];
      if (down.contains({a, b})) continue;
      const NodeId from = rng.bernoulli(0.5) ? a : b;
      const NodeId to = from == a ? b : a;
      const Cost c = rng.uniform(0.5, 4.0);
      costs[topo.find_link(from, to)] = c;
      h.change_cost(from, to, c);
    } else {
      const auto& [a, b] = pairs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(pairs.size()) - 1))];
      if (down.contains({a, b})) {
        down.erase({a, b});
        down.erase({b, a});
        h.restore_duplex(a, b);
      } else if (down.size() < 2) {  // keep most of the net alive
        down.insert({a, b});
        down.insert({b, a});
        h.fail_duplex(a, b);
      }
    }
  }

  h.run_to_quiescence(rng);
  expect_converged(h, costs, down);
  // Neighbors report trees, so no T_k ever needed the Dijkstra fallback.
  for (NodeId i = 0; i < static_cast<NodeId>(topo.num_nodes()); ++i) {
    EXPECT_EQ(h.node(i).tables().nonforest_fallbacks(), 0u) << "router " << i;
  }
}

TEST(IncrementalTables, ChaosEquivalenceOnCairn) {
  chaos_run(topo::make_cairn(), /*seed=*/11, /*churn_steps=*/600);
}

TEST(IncrementalTables, ChaosEquivalenceOnNet1) {
  chaos_run(topo::make_net1(), /*seed=*/12, /*churn_steps=*/600);
}

TEST(IncrementalTables, ChaosEquivalenceOnWaxman) {
  Rng rng(13);
  const auto topo = topo::make_waxman(24, 0.6, 0.4, rng);
  chaos_run(topo, /*seed=*/14, /*churn_steps=*/400);
}

// Checkpoint round trip MID-CHURN: the v2 format drops the derived SPT
// state and rebuilds it canonically on load; the audit at the end of
// load() plus the field-by-field comparison here pin that equivalence.
TEST(IncrementalTables, CheckpointRoundTripRestoresIncrementalState) {
  AuditGuard audit;
  Rng rng(21);
  const auto topo = topo::make_cairn();
  const auto costs = random_costs(topo, rng);
  MpdaHarness h(topo, costs, mpda_factory());
  h.bring_up_all(&rng);
  // Stop mid-convergence (dirty marks consumed, messages still in flight).
  for (int i = 0; i < 40 && h.deliver_one(rng); ++i) {
  }

  struct NullSink final : proto::LsuSink {
    void send(NodeId, const proto::LsuMessage&) override {}
  } null_sink;

  const auto n = static_cast<NodeId>(topo.num_nodes());
  for (NodeId i = 0; i < n; ++i) {
    ckpt::Writer w;
    h.node(i).save(w);
    ckpt::Reader r(w.payload());
    MpdaProcess restored(i, topo.num_nodes(), null_sink);
    restored.load(r);
    r.expect_end();

    const auto& orig = h.node(i);
    EXPECT_EQ(restored.tables().main_topology(), orig.tables().main_topology())
        << "router " << i;
    EXPECT_EQ(restored.passive(), orig.passive()) << "router " << i;
    for (NodeId j = 0; j < n; ++j) {
      EXPECT_EQ(restored.tables().distance(j), orig.tables().distance(j))
          << "router " << i << " dest " << j;
      EXPECT_EQ(restored.feasible_distance(j), orig.feasible_distance(j))
          << "router " << i << " dest " << j;
      EXPECT_EQ(restored.successors(j), orig.successors(j))
          << "router " << i << " dest " << j;
      for (const NodeId k : orig.tables().neighbors()) {
        EXPECT_EQ(restored.tables().distance_via(j, k),
                  orig.tables().distance_via(j, k))
            << "router " << i << " dest " << j << " via " << k;
      }
    }
  }
}

// Saves `t` while it holds changes no mtu() has merged yet (what an MPDA
// router deferring its MTU while ACTIVE carries) and restores a copy. The
// copy must save the same bytes, and both must then merge to the same
// flood and the same bytes again. Returns the copy.
proto::RouterTables round_trip_pending(proto::RouterTables& t, int step) {
  ckpt::Writer saved;
  t.save(saved);
  ckpt::Reader r(saved.payload());
  proto::RouterTables copy(t.self(), t.num_nodes());
  copy.load(r);
  r.expect_end();
  ckpt::Writer again;
  copy.save(again);
  EXPECT_EQ(again.payload(), saved.payload()) << "step " << step;
  EXPECT_EQ(copy.mtu(), t.mtu()) << "step " << step;
  ckpt::Writer merged_orig;
  ckpt::Writer merged_copy;
  t.save(merged_orig);
  copy.save(merged_copy);
  EXPECT_EQ(merged_copy.payload(), merged_orig.payload()) << "step " << step;
  return copy;
}

// Raw RouterTables churn: random LSU batches (including no-op re-sends,
// deletions and reports about unknown routers) against the audit, which
// after every mtu() also compares the merged view with a materialized
// Fig. 3 merge. Every so often the tables are checkpointed with pending
// dirt and the stream continues on the restored copy.
TEST(IncrementalTables, RandomLsuBatchesStayConsistent) {
  AuditGuard audit;
  Rng rng(31);
  const int n = 12;
  proto::RouterTables t(0, n);
  t.link_up(1, 1.0);
  t.link_up(2, 2.0);
  std::uint64_t fallbacks = 0;  // nonforest_fallbacks() is not checkpointed
  std::vector<proto::LsuEntry> batch;
  for (int step = 0; step < 400; ++step) {
    if (step % 50 == 25) {
      fallbacks += t.nonforest_fallbacks();
      t = round_trip_pending(t, step);
    }
    const NodeId from = rng.uniform_int(1, 2);
    batch.clear();
    const int sz = rng.uniform_int(1, 4);
    for (int i = 0; i < sz; ++i) {
      const auto head = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const auto tail = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      if (head == tail) continue;
      if (rng.bernoulli(0.25)) {
        batch.push_back(proto::LsuEntry{head, tail, 0, proto::LsuOp::kDelete});
      } else {
        batch.push_back(proto::LsuEntry{head, tail, rng.uniform(0.5, 4.0),
                                        proto::LsuOp::kAddOrChange});
      }
    }
    t.apply_lsu(from, batch);
    if (rng.bernoulli(0.3)) t.mtu();
    if (rng.bernoulli(0.05)) t.link_cost_change(1, rng.uniform(0.5, 4.0));
    if (rng.bernoulli(0.02)) {
      t.link_down(2);
      t.link_up(2, rng.uniform(0.5, 4.0));
    }
  }
  t.mtu();
  // Final sanity: distances agree with a from-scratch Dijkstra over the
  // pruned main topology — the SPT preserves merged-table distances. (The
  // audit already checked the full state after every event; this keeps the
  // test meaningful even with audits disabled.)
  const auto truth = graph::dijkstra(n, t.main_topology().edges(), 0);
  for (NodeId j = 0; j < n; ++j) {
    EXPECT_EQ(t.distance(j), truth.dist[j]) << "dest " << j;
  }
  // Random links put two in-edges into one node, so this stream covers
  // the Dijkstra fallback.
  EXPECT_GT(fallbacks + t.nonforest_fallbacks(), 0u);

  // Second stream: what a neighbor really sends, the diffs of its own
  // shortest-path tree as link costs change, plus the irregular traffic
  // of a live network: full-sync re-sends, a withdrawn in-edge that
  // orphans a subtree, deletes of absent links, kInfCost adds, a parent
  // move with its add and delete in either order, an in-edge into k
  // itself and a cycle k cannot reach. Every T_k stays a forest.
  Rng trng(32);
  const NodeId ring = 10;  // nodes 10 and 11 are off the graph
  std::vector<graph::CostedEdge> graph_edges;
  for (NodeId v = 0; v < ring; ++v) {
    const NodeId w = (v + 1) % ring;
    const NodeId c = (v + 3) % ring;
    for (const auto& [a, b] : {std::pair{v, w}, std::pair{v, c}}) {
      graph_edges.push_back({a, b, trng.uniform(0.5, 4.0)});
      graph_edges.push_back({b, a, trng.uniform(0.5, 4.0)});
    }
  }
  const auto tree_of = [&](NodeId k) {
    std::vector<proto::LsuEntry> adds;
    for (const auto& e : graph::tree_edges(
             graph::dijkstra(n, graph_edges, k), graph_edges)) {
      adds.push_back({e.from, e.to, e.cost, proto::LsuOp::kAddOrChange});
    }
    proto::LinkStateTable tree;
    tree.apply_batch(adds);
    return tree;
  };
  const auto pick = [&trng](NodeId lo, NodeId hi) {
    return static_cast<NodeId>(trng.uniform_int(lo, hi));
  };
  proto::RouterTables f(0, n);
  std::map<NodeId, proto::LinkStateTable> sent;  // mirror of each T_k
  for (const NodeId k : {1, 9}) f.link_up(k, trng.uniform(0.5, 4.0));
  for (int step = 0; step < 400; ++step) {
    if (step % 50 == 25) {
      EXPECT_EQ(f.nonforest_fallbacks(), 0u);
      f = round_trip_pending(f, step);
    }
    graph_edges[static_cast<std::size_t>(trng.uniform_int(
                    0, static_cast<int>(graph_edges.size()) - 1))]
        .cost = trng.uniform(0.5, 4.0);
    const NodeId k = trng.bernoulli(0.5) ? 1 : 9;
    if (trng.bernoulli(0.03)) {  // flap: T_k restarts from a full sync
      f.link_down(k);
      f.link_up(k, trng.uniform(0.5, 4.0));
      sent[k] = {};
    }
    const proto::LinkStateTable tree = tree_of(k);
    const auto links = tree.edges();
    proto::LinkStateTable want = tree;
    if (trng.bernoulli(0.15)) {  // orphan the subtree below one tree link
      const auto& e = links[static_cast<std::size_t>(
          trng.uniform_int(0, static_cast<int>(links.size()) - 1))];
      want.remove(e.from, e.to);
    }
    if (trng.bernoulli(0.2)) {  // an unusable second in-edge
      const auto& e = links[static_cast<std::size_t>(
          trng.uniform_int(0, static_cast<int>(links.size()) - 1))];
      const NodeId a = pick(0, ring - 1);
      if (a != e.to && a != e.from) want.set(a, e.to, graph::kInfCost);
    }
    if (trng.bernoulli(0.2)) {  // an in-edge into k itself
      const NodeId a = pick(0, n - 1);
      if (a != k) want.set(a, k, trng.uniform(0.5, 4.0));
    }
    if (trng.bernoulli(0.2)) {  // a cycle k cannot reach
      want.set(ring, ring + 1, trng.uniform(0.5, 4.0));
      want.set(ring + 1, ring, trng.uniform(0.5, 4.0));
    }
    auto batch = proto::LinkStateTable::diff(sent[k], want);
    if (trng.bernoulli(0.5)) std::reverse(batch.begin(), batch.end());
    if (trng.bernoulli(0.1)) {  // a re-send of the whole table
      const auto full = want.as_entries();
      batch.insert(batch.end(), full.begin(), full.end());
    }
    if (trng.bernoulli(0.2)) {  // a delete of a link T_k does not hold
      const NodeId a = pick(0, n - 1);
      const NodeId b = pick(0, n - 1);
      if (a != b && !want.cost(a, b) && !sent[k].cost(a, b)) {
        batch.push_back({a, b, 0, proto::LsuOp::kDelete});
      }
    }
    f.apply_lsu(k, batch);
    sent[k] = std::move(want);
    ASSERT_EQ(f.neighbor_topology(k), sent[k]) << "step " << step;
    if (trng.bernoulli(0.5)) f.mtu();
    if (trng.bernoulli(0.05)) f.link_cost_change(1, trng.uniform(0.5, 4.0));
  }
  f.mtu();
  EXPECT_EQ(f.nonforest_fallbacks(), 0u);
  const auto tree_truth = graph::dijkstra(n, f.main_topology().edges(), 0);
  for (NodeId j = 0; j < n; ++j) {
    EXPECT_EQ(f.distance(j), tree_truth.dist[j]) << "dest " << j;
  }
}

}  // namespace
}  // namespace mdr::core
