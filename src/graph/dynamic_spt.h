// Incrementally maintained single-source shortest-path tree (dynamic SPT),
// in the style of Ramalingam & Reps: edge changes are staged against the
// current tree and `update()` repairs only the affected region — a
// localized delete-and-repair pass for cost increases/deletions (the old
// subtree of the changed tree edge is cut out and re-attached through its
// boundary), and a relax-from-frontier pass for decreases/insertions.
//
// The repaired tree is CANONICAL: distances are the exact doubles a
// from-scratch graph::dijkstra would compute (each is a left-to-right sum
// along a tree path, and min() over identical candidate sets is
// order-independent), and parent[v] is the lowest-id tight predecessor
// (min u with dist[u] + w(u,v) == dist[v]) — the same tie-break
// graph::dijkstra applies during relaxation. That equivalence is what lets
// the protocol layer (proto/pda.cc) swap from-scratch recomputation for
// incremental repair without changing a single output byte; it requires
// strictly positive edge costs (with zero-cost edges a tight predecessor
// can settle after its target in Dijkstra, breaking the tie-break
// equivalence — the MDR_AUDIT_TABLES audit catches any violation).
//
// Edge filtering matches graph::dijkstra's Adjacency: self-loops,
// endpoints outside [0, n) and non-finite/negative costs are treated as
// "no edge". At most one edge per (from, to) pair is stored; the caller
// (a LinkStateTable mirror) has the same keying, so parallel edges never
// arise here.
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "graph/topology.h"

namespace mdr::graph {

class DynamicSpt {
 public:
  DynamicSpt() = default;
  DynamicSpt(std::size_t num_nodes, NodeId root);

  NodeId root() const { return root_; }
  std::size_t num_nodes() const { return dist_.size(); }

  /// Stages an edge upsert. Unusable edges (self-loop, out-of-range ends,
  /// negative/NaN/infinite cost) degrade to removals, mirroring the
  /// from-scratch filter. Takes effect at the next update()/rebuild().
  void set_edge(NodeId from, NodeId to, Cost cost);

  /// Stages an edge removal (no-op if absent).
  void remove_edge(NodeId from, NodeId to);

  /// Net effect of one repair pass on the tree.
  struct Delta {
    /// Nodes whose distance changed, ascending.
    std::vector<NodeId> dist_changed;
    /// (node, previous parent) for nodes whose tree parent changed,
    /// ascending by node.
    std::vector<std::pair<NodeId, NodeId>> parent_changed;
  };

  /// Repairs the tree for all staged changes and reports what moved.
  /// Cost is proportional to the affected region, not the graph.
  Delta update();

  /// From-scratch recompute of the canonical tree (checkpoint restore and
  /// the table audit). Discards any staged-but-not-updated bookkeeping
  /// (the adjacency itself always reflects every set_edge/remove_edge).
  void rebuild();

  const std::vector<Cost>& dist() const { return dist_; }
  const std::vector<NodeId>& parent() const { return parent_; }
  bool reachable(NodeId v) const { return dist_[v] < kInfCost; }

 private:
  // Directed adjacency as two flat sorted arrays — out_ keyed (from, to),
  // in_ keyed (to, from). A router holds one DynamicSpt, for its own SPT
  // over the merged table, which unlike a neighbor table is no forest.
  // Lookups are binary searches; edits are O(E) memmoves, amortized small
  // against the repair they trigger.
  struct Arc {
    NodeId key;    ///< primary endpoint (from for out_, to for in_)
    NodeId other;  ///< the opposite endpoint
    Cost cost;
  };

  std::pair<const Arc*, const Arc*> range(const std::vector<Arc>& arcs,
                                          NodeId key) const;
  Cost edge_cost(NodeId from, NodeId to) const;
  void put_arc(std::vector<Arc>& arcs, NodeId key, NodeId other, Cost cost);
  void drop_arc(std::vector<Arc>& arcs, NodeId key, NodeId other);
  NodeId canonical_parent(NodeId v) const;

  NodeId root_ = kInvalidNode;
  std::vector<Arc> out_;  // sorted by (from, to)
  std::vector<Arc> in_;   // sorted by (to, from)
  std::vector<Cost> dist_;
  std::vector<NodeId> parent_;
  /// Edge cost as of the last update()/rebuild(), keyed (from, to), for
  /// every edge touched since — kInfCost encodes "was absent".
  std::map<std::pair<NodeId, NodeId>, Cost> staged_;
  // update() scratch, kept across calls so a small repair costs O(region),
  // not O(n) in allocation and memset. Invariant between updates: every
  // recorded_/in_region_ byte is 0 and every cand_ entry is kInfCost
  // (update() sparsely restores exactly the entries it wrote).
  std::vector<std::uint8_t> recorded_;
  std::vector<std::uint8_t> in_region_;
  std::vector<Cost> cand_;
};

}  // namespace mdr::graph
