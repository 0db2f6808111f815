// Dijkstra shortest-path-first over arbitrary edge lists.
//
// The protocol layer (PDA/MPDA, Figs. 1-4 of the paper) runs Dijkstra both on
// a router's merged main topology table and on each neighbor topology table,
// none of which are Topology objects; so the core routine works on a plain
// span of costed edges. Ties are broken deterministically (paper: "ties
// should be broken consistently during the run of Dijkstra's algorithm"):
// among equal-cost relaxations the lower parent id wins, and the result is
// independent of edge order.
#pragma once

#include <span>
#include <vector>

#include "graph/topology.h"

namespace mdr::graph {

/// One directed edge with a routing cost, detached from any Topology.
struct CostedEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Cost cost = kInfCost;

  friend bool operator==(const CostedEdge&, const CostedEdge&) = default;
};

/// Shortest-path tree: distances and tree parents indexed by node id.
struct ShortestPathTree {
  std::vector<Cost> dist;      ///< kInfCost when unreachable
  std::vector<NodeId> parent;  ///< kInvalidNode for root / unreachable

  bool reachable(NodeId node) const { return dist[node] < kInfCost; }

  /// First hop from the root toward `node` (kInvalidNode if unreachable or
  /// node == root).
  NodeId first_hop(NodeId root, NodeId node) const;
};

/// Runs Dijkstra from `root` over `edges` on nodes [0, num_nodes).
///
/// Edges with non-finite or negative cost are ignored (a failed link is
/// conventionally given kInfCost). Multiple edges between the same pair keep
/// the cheapest.
ShortestPathTree dijkstra(std::size_t num_nodes, std::span<const CostedEdge> edges,
                          NodeId root);

/// Convenience overload: runs over a Topology with per-link costs indexed by
/// LinkId.
ShortestPathTree dijkstra(const Topology& topo, std::span<const Cost> link_costs,
                          NodeId root);

/// Extracts the tree edges of an SPT as costed edges (cost = edge cost used),
/// i.e. the link-state a PDA router would advertise. Requires the original
/// edge list to recover costs.
std::vector<CostedEdge> tree_edges(const ShortestPathTree& spt,
                                   std::span<const CostedEdge> edges);

}  // namespace mdr::graph
