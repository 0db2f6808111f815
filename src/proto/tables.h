// Link-state tables (paper Section 4.1).
//
// LinkStateTable is the representation of the main topology table T^i, of
// the merged table MTU prunes it from, and of the per-neighbor topology
// tables T^i_k: a set of directed links with costs, diffable so a router
// can advertise exactly what changed. It is one flat array of costed edges
// sorted by (head, tail), so it is graph::dijkstra's input as it stands and
// each head's links form one contiguous row.
//
// NeighborTable is one T^i_k together with the distances D_jk from k over
// it (Fig. 2, NTU step 1), kept up to date by tree path sums. MergedTable
// is the merged table of Fig. 3 together with the router's own
// shortest-path tree over it (steps 6-7), repaired in place.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt.h"
#include "graph/dijkstra.h"
#include "graph/topology.h"
#include "proto/lsu.h"

namespace mdr::proto {

class LinkStateTable {
 public:
  /// Installs or updates a directed link. Returns whether the table
  /// changed (false when the link already had exactly this cost).
  bool set(graph::NodeId head, graph::NodeId tail, graph::Cost cost);

  /// Removes a link if present. Returns whether a link was removed.
  bool remove(graph::NodeId head, graph::NodeId tail);

  /// Applies one LSU entry (add/change or delete). Returns whether the
  /// table changed.
  bool apply(const LsuEntry& entry);

  /// One link whose state a batch changed; nullopt means absent.
  struct Change {
    graph::NodeId head;
    graph::NodeId tail;
    std::optional<graph::Cost> before;
    std::optional<graph::Cost> after;
  };

  /// Applies `entries` with the net effect of applying them one by one in
  /// order (the last entry naming a link wins), in place, in one pass over
  /// the table: O(size + batch log batch), not a shift of the table per
  /// entry. Returns the links whose final state differs from their initial
  /// one, in key order.
  std::vector<Change> apply_batch(std::span<const LsuEntry> entries);

  std::optional<graph::Cost> cost(graph::NodeId head,
                                  graph::NodeId tail) const;

  std::size_t size() const { return links_.size(); }
  bool empty() const { return links_.empty(); }

  /// Every link in (head, tail) order (Dijkstra input).
  std::span<const graph::CostedEdge> edges() const { return links_; }

  /// The links whose head is `head`, in tail order (what MTU copies from
  /// the preferred neighbor's table).
  std::span<const graph::CostedEdge> links_from(graph::NodeId head) const;

  /// Snapshot as add/change LSU entries (full-topology sync on link-up).
  std::vector<LsuEntry> as_entries() const;

  /// Entries that transform `before` into `after`, in entries_of() order.
  static std::vector<LsuEntry> diff(const LinkStateTable& before,
                                    const LinkStateTable& after);

  /// `changes` as LSU entries in the order a router floods them: every
  /// kAddOrChange (new or re-costed link), then every kDelete, each group
  /// in the changes' key order.
  static std::vector<LsuEntry> entries_of(std::span<const Change> changes);

  friend bool operator==(const LinkStateTable&, const LinkStateTable&) = default;

  void save(ckpt::Writer& w) const;
  /// Throws ckpt::Error unless the links are in strictly ascending key
  /// order, as save() writes them.
  void load(ckpt::Reader& r);

 private:
  std::vector<graph::CostedEdge> links_;  // sorted by (from, to), unique
};

/// T_k and D_·k for one neighbor k.
///
/// T_k is built from k's diffs of its own main table, which MTU prunes to
/// k's shortest-path tree (Figs. 2-3). So T_k is an in-forest: every node
/// has at most one usable in-edge, and D_jk is the sum of the edge costs
/// along j's path from k. Summed left to right, that is exactly the double
/// graph::dijkstra produces on the table. After a batch, only the subtrees
/// whose root's in-edge changed are cut and summed again. A table in which
/// some node has two usable in-edges, which k's real diffs never build,
/// gets its D_·k from graph::dijkstra instead.
///
/// Usable edges follow graph::dijkstra's filter: an entry whose head or
/// tail is outside [0, n), or whose head equals its tail, is ignored; a
/// stored link with a negative, NaN or infinite cost is no edge.
class NeighborTable {
 public:
  NeighborTable(graph::NodeId root, std::size_t num_nodes);

  struct Update {
    std::vector<LinkStateTable::Change> links;  ///< net changes, key order
    std::vector<graph::NodeId> dist_changed;    ///< ascending
    bool used_dijkstra = false;  ///< the table was not a forest
  };

  /// Folds a batch of k's LSU entries into T_k and brings D_·k up to date.
  Update apply(std::span<const LsuEntry> entries);

  const LinkStateTable& topology() const { return topo_; }
  const std::vector<graph::Cost>& dist() const { return dist_; }

  void save(ckpt::Writer& w) const { topo_.save(w); }
  /// Restores T_k and derives the rest. Throws ckpt::Error on a link that
  /// apply() would have ignored.
  void load(ckpt::Reader& r);

  /// Cross-checks the in-edge bookkeeping and D_·k against a recount and
  /// graph::dijkstra; returns what diverged, or "" when nothing did.
  std::string audit() const;

 private:
  void count_in_edge(graph::NodeId head, graph::NodeId tail, int delta);
  void recount();  // the in-edge tallies afresh from the table

  graph::NodeId root_;
  LinkStateTable topo_;
  /// Per node: XOR of the heads of its usable in-edges, and their number.
  /// With one in-edge, the XOR is its head.
  std::vector<graph::NodeId> in_xor_;
  std::vector<std::uint32_t> in_count_;
  std::size_t many_in_ = 0;  // nodes with more than one usable in-edge
  std::vector<graph::Cost> dist_;  // D_·k
};

/// The merged topology table of Fig. 3 (steps 2-5) and the router's own
/// shortest-path tree over it (steps 6-7): dist() is D_j, parent() the
/// tree that MTU prunes the main table to.
///
/// A batch is repaired in the style of Ramalingam & Reps, in time
/// proportional to the region it moves: the subtrees below tree edges that
/// got worse or vanished are cut out and re-attached through their
/// boundary, then lowered and new edges relax outward until the lowering
/// stops. The tree is CANONICAL: distances are the exact doubles
/// graph::dijkstra computes on the table (each a left-to-right path sum),
/// and parent[v] is the lowest-id tight predecessor, graph::dijkstra's
/// tie-break. That needs strictly positive costs; with a zero-cost edge a
/// tight predecessor can settle after its target, and the
/// MDR_AUDIT_TABLES audit reports the divergence.
///
/// Out-edges are the table's own rows. The one extra structure is an
/// in-edge index of the usable links, (tail, head) in ascending order, so
/// the lowest-id tight predecessor is the first one found; costs are read
/// from the table. Entries and links are filtered as in NeighborTable: the
/// table can hold a link with an unusable cost, and the tree skips it.
class MergedTable {
 public:
  MergedTable(graph::NodeId root, std::size_t num_nodes);

  struct Update {
    std::vector<LinkStateTable::Change> links;  ///< net changes, key order
    std::vector<graph::NodeId> dist_changed;    ///< ascending
    /// (node, previous parent) for nodes whose tree parent moved,
    /// ascending by node.
    std::vector<std::pair<graph::NodeId, graph::NodeId>> parent_changed;
  };

  /// Applies a batch of edits to the table and repairs the tree.
  Update apply(std::span<const LsuEntry> entries);

  const LinkStateTable& topology() const { return topo_; }
  const std::vector<graph::Cost>& dist() const { return dist_; }
  const std::vector<graph::NodeId>& parent() const { return parent_; }

  void save(ckpt::Writer& w) const { topo_.save(w); }
  /// Restores the table and derives the rest from scratch (the canonical
  /// tree is the repaired tree, bit for bit). Throws ckpt::Error on a link
  /// that apply() would have ignored.
  void load(ckpt::Reader& r);

  /// Cross-checks the in-edge index and the tree against a rebuild and
  /// graph::dijkstra; returns what diverged, or "" when nothing did.
  std::string audit() const;

 private:
  using InEdge = std::pair<graph::NodeId, graph::NodeId>;  // (tail, head)

  std::span<const InEdge> in_edges(graph::NodeId v) const;
  /// Removes `drops` from in_ and merges `adds` in; both sorted.
  void index_in_edges(const std::vector<InEdge>& drops,
                      const std::vector<InEdge>& adds);
  graph::NodeId canonical_parent(graph::NodeId v) const;
  void rebuild();  // the index and the tree afresh from the table

  graph::NodeId root_;
  LinkStateTable topo_;
  std::vector<InEdge> in_;  // usable links, sorted by (tail, head)
  std::vector<graph::Cost> dist_;
  std::vector<graph::NodeId> parent_;
  // apply() scratch, kept across calls so a small repair costs O(region),
  // not O(n) in allocation and memset. Between calls every recorded_ and
  // in_region_ byte is 0 and every cand_ entry is kInfCost.
  std::vector<std::uint8_t> recorded_;
  std::vector<std::uint8_t> in_region_;
  std::vector<graph::Cost> cand_;
};

}  // namespace mdr::proto
