// Link-state tables (paper Section 4.1).
//
// LinkStateTable is a set of directed links with costs, diffable so a
// router can advertise exactly what changed: one flat array of costed edges
// sorted by (head, tail), so it is graph::dijkstra's input as it stands and
// each head's links form one contiguous row. It is the wire and checkpoint
// form of every table, and what the accessors materialize.
//
// NeighborTable is one T^i_k, stored as the in-forest it is (an in-edge
// per node plus child links), together with the distances D_jk from k over
// it (Fig. 2, NTU step 1), kept up to date by tree path sums. OwnSpt is the
// router's own shortest-path tree over the merged table of Fig. 3 (steps
// 6-7), repaired in place; the merged table itself is a view (OwnSpt::View)
// that RouterTables answers from the T_k and the preferred neighbors.
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
  LinkStateTable() = default;
  /// The table holding `links`, whose (head, tail) keys must be distinct.
  explicit LinkStateTable(std::vector<graph::CostedEdge> links);

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

  /// `log` in key order with each link once, holding its first entry.
  static std::vector<Change> first_per_link(std::vector<Change> log);

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
/// graph::dijkstra produces on the table.
///
/// The store is that forest: per node its in-edge's head and cost, plus
/// child links, so a cost lookup, a row and a step of a subtree walk are
/// O(1), and a batch is applied entry by entry. A link that is no forest
/// edge goes to a small side list, sorted by (head, tail): a link with an
/// unusable cost, or a second usable in-edge into a node (k's real diffs
/// never build one). After a batch, only the subtrees whose root's in-edge
/// changed are summed again, ancestors first (a full sync too); while the
/// side list holds a usable link, D_·k comes from graph::dijkstra instead.
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

  std::optional<graph::Cost> cost(graph::NodeId head,
                                  graph::NodeId tail) const;
  /// Appends every link whose head is `head`, in no particular order.
  void row(graph::NodeId head, std::vector<graph::CostedEdge>& out) const;
  /// Calls f(head, cost) for every link into `tail`.
  template <class F>
  void for_each_in(graph::NodeId tail, F&& f) const {
    const InEdge& in = in_[tail];
    if (in.head != graph::kInvalidNode) f(in.head, in.cost);
    for (const graph::CostedEdge& e : side_) {
      if (e.to == tail) f(e.from, e.cost);
    }
  }
  /// Every link, in (head, tail) order.
  LinkStateTable topology() const;
  const std::vector<graph::Cost>& dist() const { return dist_; }

  void save(ckpt::Writer& w) const { topology().save(w); }
  /// Restores T_k and derives the rest. Throws ckpt::Error on a link that
  /// apply() would have ignored.
  void load(ckpt::Reader& r);

  /// Cross-checks the forest links and D_·k against a rebuild and
  /// graph::dijkstra; returns what diverged, or "" when nothing did.
  std::string audit() const;

  /// Heap bytes held, by capacity.
  std::size_t memory_bytes() const;

 private:
  void set(graph::NodeId head, graph::NodeId tail, graph::Cost cost);
  void remove(graph::NodeId head, graph::NodeId tail);
  void attach(graph::NodeId head, graph::NodeId tail, graph::Cost cost);
  void detach(graph::NodeId tail);  // drops the forest in-edge of tail
  void add_side(graph::NodeId head, graph::NodeId tail, graph::Cost cost);

  // A node's forest in-edge and its place among its head's children, on
  // one cache line for the subtree walks.
  struct InEdge {
    graph::NodeId head = graph::kInvalidNode;  // kInvalidNode: none
    graph::NodeId next_sibling = graph::kInvalidNode;
    graph::Cost cost = 0;
  };

  graph::NodeId root_;
  std::vector<InEdge> in_;
  std::vector<graph::NodeId> first_child_;  // forest children, linked
  /// Links outside the forest, sorted by (head, tail). A node has a usable
  /// side in-edge only while its forest in-edge is set.
  std::vector<graph::CostedEdge> side_;
  std::size_t side_usable_ = 0;  // usable links in side_: not a forest
  std::vector<graph::Cost> dist_;  // D_·k
};

/// The router's own shortest-path tree over the merged table of Fig. 3
/// (steps 6-7): dist() is D_j, parent() the tree that MTU prunes the main
/// table to. The tree holds no copy of the table: it reads it through a
/// View.
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
/// MDR_AUDIT_TABLES audit reports the divergence. Links with an unusable
/// cost are skipped, as graph::dijkstra skips them.
class OwnSpt {
 public:
  /// Read access to the table the tree spans. Both calls append links of
  /// any cost, in any order; no (head, tail) key may appear twice.
  class View {
   public:
    virtual ~View() = default;
    /// The links whose head is `head`.
    virtual void row(graph::NodeId head,
                     std::vector<graph::CostedEdge>& out) const = 0;
    /// The links whose tail is `tail`.
    virtual void into(graph::NodeId tail,
                      std::vector<graph::CostedEdge>& out) const = 0;
  };

  OwnSpt(graph::NodeId root, std::size_t num_nodes);

  struct Update {
    std::vector<graph::NodeId> dist_changed;  ///< ascending
    /// (node, previous parent) for nodes whose tree parent moved,
    /// ascending by node.
    std::vector<std::pair<graph::NodeId, graph::NodeId>> parent_changed;
  };

  /// Repairs the tree after the net link changes `changes` (no key twice);
  /// `view` already reads the table after them.
  Update apply(const View& view,
               std::span<const LinkStateTable::Change> changes);

  const std::vector<graph::Cost>& dist() const { return dist_; }
  const std::vector<graph::NodeId>& parent() const { return parent_; }

  /// The tree afresh over `table` (graph::dijkstra's tree is the repaired
  /// tree, bit for bit). Throws ckpt::Error on a link that joins no two
  /// distinct nodes in range, which no merge builds.
  void rebuild(const LinkStateTable& table);

  /// Cross-checks the tree against graph::dijkstra over `table`; returns
  /// what diverged, or "" when nothing did.
  std::string audit(const LinkStateTable& table) const;

  /// Heap bytes held, by capacity.
  std::size_t memory_bytes() const;

 private:
  graph::NodeId canonical_parent(const View& view, graph::NodeId v,
                                 std::vector<graph::CostedEdge>& arcs) const;

  graph::NodeId root_;
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
