// Unit tests for the dynamic SPT of proto::OwnSpt: after every batch the
// repaired tree must be bit-identical to a from-scratch graph::dijkstra
// over the table — same distance doubles, same lowest-id parent tie-break —
// because the protocol layer relies on that equivalence for byte-stable
// outputs. Batches are LSU entries applied to a LinkStateTable, whose net
// changes the tree repairs from while reading the table through a View.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "ckpt/ckpt.h"
#include "graph/dijkstra.h"
#include "proto/pda.h"
#include "proto/tables.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace mdr::proto {
namespace {

using graph::Cost;
using graph::CostedEdge;
using graph::kInfCost;
using graph::LinkId;
using graph::NodeId;

// Mirror of the links the table holds, for feeding dijkstra().
using EdgeMap = std::map<std::pair<NodeId, NodeId>, Cost>;

std::vector<CostedEdge> as_edges(const EdgeMap& m) {
  std::vector<CostedEdge> out;
  out.reserve(m.size());
  for (const auto& [key, cost] : m) {
    out.push_back(CostedEdge{key.first, key.second, cost});
  }
  return out;
}

// A LinkStateTable read as the tree's View.
struct TableView final : OwnSpt::View {
  explicit TableView(const LinkStateTable& t) : table(&t) {}
  void row(NodeId head, std::vector<CostedEdge>& out) const override {
    const auto links = table->links_from(head);
    out.insert(out.end(), links.begin(), links.end());
  }
  void into(NodeId tail, std::vector<CostedEdge>& out) const override {
    for (const CostedEdge& e : table->edges()) {
      if (e.to == tail) out.push_back(e);
    }
  }
  const LinkStateTable* table;
};

// A table, the tree rooted at node 0 over it, the mirror of its links, and
// the batch being staged for the next apply().
struct Spt {
  explicit Spt(std::size_t n) : tree(0, n) {}

  void set(NodeId u, NodeId v, Cost c) {
    batch.push_back(LsuEntry{u, v, c, LsuOp::kAddOrChange});
    edges[{u, v}] = c;
  }
  void remove(NodeId u, NodeId v) {
    batch.push_back(LsuEntry{u, v, kInfCost, LsuOp::kDelete});
    edges.erase({u, v});
  }
  // Applies the batch to the table and repairs the tree from its net
  // changes, which `links` keeps.
  OwnSpt::Update apply() {
    links = table.apply_batch(batch);
    batch.clear();
    return tree.apply(TableView(table), links);
  }
  const std::vector<Cost>& dist() const { return tree.dist(); }
  const std::vector<NodeId>& parent() const { return tree.parent(); }
  bool reachable(NodeId v) const { return dist()[v] < kInfCost; }

  LinkStateTable table;
  OwnSpt tree;
  EdgeMap edges;
  std::vector<LsuEntry> batch;
  std::vector<LinkStateTable::Change> links;
};

// Asserts tree == dijkstra(mirror) exactly: bitwise-equal distances and
// identical parents (including unreachable markers).
void expect_canonical(const Spt& spt, const char* what) {
  const auto truth = graph::dijkstra(spt.dist().size(), as_edges(spt.edges), 0);
  ASSERT_EQ(spt.dist().size(), truth.dist.size()) << what;
  for (std::size_t v = 0; v < truth.dist.size(); ++v) {
    EXPECT_EQ(spt.dist()[v], truth.dist[v]) << what << " dist of node " << v;
    EXPECT_EQ(spt.parent()[v], truth.parent[v])
        << what << " parent of node " << v;
  }
  EXPECT_EQ(spt.tree.audit(spt.table), "") << what;
}

TEST(DynamicSpt, EmptyGraphOnlyRootReachable) {
  Spt spt(4);
  const auto delta = spt.apply();
  EXPECT_TRUE(delta.dist_changed.empty());
  EXPECT_EQ(spt.dist()[0], 0.0);
  EXPECT_TRUE(spt.reachable(0));
  EXPECT_FALSE(spt.reachable(3));
}

TEST(DynamicSpt, InsertGrowsTree) {
  Spt spt(4);
  spt.set(0, 1, 1.0);
  spt.set(1, 2, 2.0);
  const auto delta = spt.apply();
  EXPECT_EQ(delta.dist_changed, (std::vector<NodeId>{1, 2}));
  expect_canonical(spt, "after inserts");
  EXPECT_EQ(spt.dist()[2], 3.0);

  // A shortcut lowers node 2 without touching node 1.
  spt.set(0, 2, 0.5);
  const auto d2 = spt.apply();
  EXPECT_EQ(d2.dist_changed, (std::vector<NodeId>{2}));
  ASSERT_EQ(d2.parent_changed.size(), 1u);
  EXPECT_EQ(d2.parent_changed[0], (std::pair<NodeId, NodeId>{2, 1}));
  expect_canonical(spt, "after shortcut");
}

TEST(DynamicSpt, CostIncreaseRepairsSubtree) {
  Spt spt(5);
  // Chain 0-1-2-3-4 plus a detour 0->2 that is initially too expensive.
  spt.set(0, 1, 1.0);
  spt.set(1, 2, 1.0);
  spt.set(2, 3, 1.0);
  spt.set(3, 4, 1.0);
  spt.set(0, 2, 10.0);
  spt.apply();
  expect_canonical(spt, "initial chain");

  // Worsen the tree edge 1->2: nodes {2,3,4} must re-attach via 0->2.
  spt.set(1, 2, 50.0);
  const auto delta = spt.apply();
  EXPECT_EQ(delta.dist_changed, (std::vector<NodeId>{2, 3, 4}));
  expect_canonical(spt, "after increase");
  EXPECT_EQ(spt.dist()[2], 10.0);
}

TEST(DynamicSpt, DeleteDisconnectsSubtree) {
  Spt spt(4);
  spt.set(0, 1, 1.0);
  spt.set(1, 2, 1.0);
  spt.set(2, 3, 1.0);
  spt.apply();

  spt.remove(0, 1);
  const auto delta = spt.apply();
  EXPECT_EQ(delta.dist_changed, (std::vector<NodeId>{1, 2, 3}));
  expect_canonical(spt, "after cut");
  EXPECT_FALSE(spt.reachable(1));
  EXPECT_FALSE(spt.reachable(3));
  EXPECT_TRUE(spt.reachable(0));
}

TEST(DynamicSpt, MixedBatchAppliesAtomically) {
  // An increase and a decrease in one batch: the lowered edge must be
  // visible to the subtree cut out by the raised one (phase-1 repair has
  // to see phase-2 material and vice versa).
  Spt spt(4);
  spt.set(0, 1, 1.0);
  spt.set(1, 2, 1.0);
  spt.set(0, 3, 9.0);
  spt.apply();

  spt.set(1, 2, 100.0);  // increase: cuts node 2 loose
  spt.set(3, 2, 1.0);    // new edge: the repair path
  const auto delta = spt.apply();
  expect_canonical(spt, "after mixed batch");
  EXPECT_EQ(spt.dist()[2], 10.0);
  EXPECT_EQ(spt.parent()[2], 3);
  EXPECT_EQ(delta.dist_changed, (std::vector<NodeId>{2}));
}

TEST(DynamicSpt, LoweredRegionMemberPropagatesDownstream) {
  // A node inside the cut region ends up CLOSER than before (its tree edge
  // got worse but the batch also brings a cheaper path). Its downstream
  // neighbors outside the region must still be relaxed — the phase-1 ->
  // phase-2 hand-off.
  Spt spt(4);
  spt.set(0, 1, 5.0);
  spt.set(1, 2, 5.0);  // node 2 at 10 via 1
  spt.set(2, 3, 1.0);  // node 3 at 11
  spt.apply();
  spt.set(1, 2, 50.0);  // cut 2 (and 3) out of the tree
  spt.set(0, 2, 2.0);   // ... but 2 re-attaches cheaper than it ever was
  const auto delta = spt.apply();
  expect_canonical(spt, "after lowering inside region");
  EXPECT_EQ(spt.dist()[2], 2.0);
  EXPECT_EQ(spt.dist()[3], 3.0);
  EXPECT_EQ(delta.dist_changed, (std::vector<NodeId>{2, 3}));
}

TEST(DynamicSpt, TieBreakMatchesDijkstraLowestParent) {
  // Two equal-cost two-hop paths to node 3: parent must be the lowest id.
  Spt spt(4);
  spt.set(0, 2, 1.0);
  spt.set(2, 3, 1.0);
  spt.apply();
  EXPECT_EQ(spt.parent()[3], 2);
  spt.set(0, 1, 1.0);
  spt.set(1, 3, 1.0);  // equally good path via the lower-id node 1
  spt.apply();
  expect_canonical(spt, "after tie");
  EXPECT_EQ(spt.parent()[3], 1);
}

TEST(DynamicSpt, UnusableEdgesDegradeToRemoval) {
  Spt spt(3);
  spt.set(0, 1, 1.0);
  spt.set(0, 2, -3.0);  // negative: stored, but no edge
  spt.apply();
  expect_canonical(spt, "after unusable edges");
  // A previously-usable edge overwritten with an unusable cost vanishes.
  spt.set(0, 1, kInfCost);
  const auto delta = spt.apply();
  expect_canonical(spt, "after inf overwrite");
  EXPECT_FALSE(spt.reachable(1));
  EXPECT_EQ(delta.dist_changed, (std::vector<NodeId>{1}));
  // ... and an unusable link turning into another unusable one moves
  // nothing.
  spt.set(0, 2, kInfCost);
  const auto still = spt.apply();
  EXPECT_EQ(spt.links.size(), 1u);
  EXPECT_TRUE(still.dist_changed.empty());
  EXPECT_TRUE(still.parent_changed.empty());
}

TEST(DynamicSpt, NoOpUpdateReportsNothing) {
  Spt spt(3);
  spt.set(0, 1, 1.0);
  spt.apply();
  spt.set(0, 1, 1.0);  // identical re-set
  const auto delta = spt.apply();
  EXPECT_TRUE(spt.links.empty());
  EXPECT_TRUE(delta.dist_changed.empty());
  EXPECT_TRUE(delta.parent_changed.empty());
}

TEST(DynamicSpt, RebuildMatchesIncrementalState) {
  Rng rng(7);
  const auto topo = topo::make_waxman(40, 0.6, 0.4, rng);
  Spt inc(topo.num_nodes());
  for (LinkId id = 0; id < static_cast<LinkId>(topo.num_links()); ++id) {
    const auto& l = topo.link(id);
    inc.set(l.from, l.to, rng.uniform(0.5, 4.0));
  }
  inc.apply();
  // rebuild() derives the tree from the table alone.
  OwnSpt fresh(0, topo.num_nodes());
  fresh.rebuild(inc.table);
  EXPECT_EQ(inc.dist(), fresh.dist());
  EXPECT_EQ(inc.parent(), fresh.parent());
  expect_canonical(inc, "incremental vs rebuild");
}

// Checks one batch's delta against the tree before it: it must list
// exactly the nodes whose distance or parent moved.
void expect_exact_delta(const Spt& spt, const OwnSpt::Update& delta,
                        const std::vector<Cost>& old_dist,
                        const std::vector<NodeId>& old_parent,
                        std::uint64_t seed) {
  std::vector<NodeId> moved;
  std::vector<std::pair<NodeId, NodeId>> reparented;
  for (NodeId v = 0; v < static_cast<NodeId>(old_dist.size()); ++v) {
    if (spt.dist()[v] != old_dist[v]) moved.push_back(v);
    if (spt.parent()[v] != old_parent[v]) {
      reparented.emplace_back(v, old_parent[v]);
    }
  }
  ASSERT_EQ(delta.dist_changed, moved) << "seed " << seed;
  ASSERT_EQ(delta.parent_changed, reparented) << "seed " << seed;
}

// The core property: a long random churn of upserts/removals, checked
// against from-scratch Dijkstra after every single repair.
TEST(DynamicSpt, RandomChurnStaysCanonical) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    const int n = 24;
    Spt spt(n);
    for (int step = 0; step < 300; ++step) {
      // 1-3 entries per batch, biased toward upserts.
      const int batch = rng.uniform_int(1, 3);
      for (int i = 0; i < batch; ++i) {
        const NodeId u = rng.uniform_int(0, n - 1);
        const NodeId v = rng.uniform_int(0, n - 1);
        if (!spt.edges.empty() && rng.bernoulli(0.3)) {
          const auto it = std::next(
              spt.edges.begin(),
              rng.uniform_int(0, static_cast<int>(spt.edges.size()) - 1));
          spt.remove(it->first.first, it->first.second);
        } else if (u != v) {
          spt.set(u, v, rng.uniform(0.1, 5.0));
        }
      }
      const std::vector<Cost> old_dist(spt.dist());
      const std::vector<NodeId> old_parent(spt.parent());
      const auto delta = spt.apply();
      ASSERT_NO_FATAL_FAILURE(expect_canonical(spt, "during churn"));
      ASSERT_NO_FATAL_FAILURE(
          expect_exact_delta(spt, delta, old_dist, old_parent, seed));
    }
  }
}

// MTU re-copies a merged row as one batch: every current link of the head
// deleted, then the new row added, so most keys appear twice and only the
// net change may reach the tree. Rows also carry unusable costs, which the
// merged table stores as the neighbor reported them.
TEST(DynamicSpt, RowRecopyChurnStaysCanonical) {
  for (const std::uint64_t seed : {4ull, 5ull, 6ull}) {
    Rng rng(seed);
    const int n = 20;
    Spt spt(n);
    for (int step = 0; step < 300; ++step) {
      for (int rows = rng.uniform_int(1, 2); rows > 0; --rows) {
        const NodeId head = rng.uniform_int(0, n - 1);
        std::vector<std::pair<NodeId, Cost>> row;
        for (const CostedEdge& e : spt.table.links_from(head)) {
          // Keep about half the row exactly as it was.
          if (rng.bernoulli(0.5)) row.emplace_back(e.to, e.cost);
          spt.remove(head, e.to);
        }
        for (int extra = rng.uniform_int(0, 3); extra > 0; --extra) {
          const NodeId tail = rng.uniform_int(0, n - 1);
          if (tail == head) continue;
          const Cost c =
              rng.bernoulli(0.1) ? kInfCost : rng.uniform(0.1, 5.0);
          row.emplace_back(tail, c);
        }
        for (const auto& [tail, c] : row) spt.set(head, tail, c);
      }
      const std::vector<Cost> old_dist(spt.dist());
      const std::vector<NodeId> old_parent(spt.parent());
      const auto delta = spt.apply();
      ASSERT_NO_FATAL_FAILURE(expect_canonical(spt, "during row churn"));
      ASSERT_NO_FATAL_FAILURE(
          expect_exact_delta(spt, delta, old_dist, old_parent, seed));
      for (const auto& c : spt.links) EXPECT_NE(c.before, c.after);
      EXPECT_TRUE(std::ranges::equal(spt.table.edges(),
                                     as_edges(spt.edges)))
          << "seed " << seed;
    }
  }
}

// The merge MTU performs, built from RouterTables' public accessors alone
// (Fig. 3 steps 2-5): row j from the neighbor with the least D_jk + l_k
// (ties to the lower id), the adjacent links as row self.
LinkStateTable fig3_merge(const RouterTables& t) {
  const auto n = static_cast<NodeId>(t.num_nodes());
  std::vector<CostedEdge> links;
  for (const NodeId k : t.neighbors()) {
    links.push_back({t.self(), k, t.link_cost(k)});
  }
  for (NodeId j = 0; j < n; ++j) {
    if (j == t.self()) continue;
    NodeId p = graph::kInvalidNode;
    Cost best = kInfCost;
    for (const NodeId k : t.neighbors()) {
      const Cost d = t.distance_via(j, k) + t.link_cost(k);
      if (d < best) {
        best = d;
        p = k;
      }
    }
    if (p == graph::kInvalidNode) continue;
    const LinkStateTable topo = t.neighbor_topology(p);
    const auto row = topo.links_from(j);
    links.insert(links.end(), row.begin(), row.end());
  }
  return LinkStateTable(std::move(links));
}

// RouterTables keeps its own tree over the merged table as a view over the
// T_k. After every mtu() its T and D_j must be the shortest-path tree and
// distances of the explicitly materialized merge, also when the tables
// were checkpointed with unmerged changes and restored in between.
TEST(DynamicSpt, RouterTablesTreeIsTheTreeOfTheMaterializedMerge) {
  Rng rng(17);
  const auto topo = topo::make_waxman(30, 0.6, 0.4, rng);
  const auto n = topo.num_nodes();
  std::vector<CostedEdge> graph_edges;
  for (LinkId id = 0; id < static_cast<LinkId>(topo.num_links()); ++id) {
    const auto& l = topo.link(id);
    graph_edges.push_back({l.from, l.to, rng.uniform(0.5, 4.0)});
  }
  // Neighbors of router 0 report their own shortest-path trees.
  std::vector<NodeId> nbrs;
  for (const CostedEdge& e : graph_edges) {
    if (e.from == 0) nbrs.push_back(e.to);
  }
  ASSERT_FALSE(nbrs.empty());
  RouterTables t(0, n);
  std::map<NodeId, LinkStateTable> sent;
  for (const NodeId k : nbrs) t.link_up(k, rng.uniform(0.5, 4.0));
  for (int step = 0; step < 200; ++step) {
    graph_edges[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<int>(graph_edges.size()) - 1))]
        .cost = rng.uniform(0.5, 4.0);
    const NodeId k = nbrs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(nbrs.size()) - 1))];
    const LinkStateTable tree(
        graph::tree_edges(graph::dijkstra(n, graph_edges, k), graph_edges));
    t.apply_lsu(k, LinkStateTable::diff(sent[k], tree));
    sent[k] = tree;
    if (rng.bernoulli(0.1)) t.link_cost_change(k, rng.uniform(0.5, 4.0));
    if (rng.bernoulli(0.1)) {  // checkpoint with the changes unmerged
      ckpt::Writer w;
      t.save(w);
      ckpt::Reader r(w.payload());
      RouterTables copy(0, n);
      copy.load(r);
      t = copy;
    }
    if (rng.bernoulli(0.5)) continue;
    t.mtu();
    const LinkStateTable merged = fig3_merge(t);
    const auto truth = graph::dijkstra(n, merged.edges(), 0);
    ASSERT_EQ(t.main_topology(),
              LinkStateTable(graph::tree_edges(truth, merged.edges())))
        << "step " << step;
    for (NodeId j = 0; j < static_cast<NodeId>(n); ++j) {
      ASSERT_EQ(t.distance(j), truth.dist[j]) << "step " << step;
    }
  }
  EXPECT_EQ(t.nonforest_fallbacks(), 0u);
}

}  // namespace
}  // namespace mdr::proto
