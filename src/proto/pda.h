// PDA — the Partial-topology Dissemination Algorithm (paper Figs. 1-3).
//
// RouterTables holds the per-router protocol state (per-neighbor topology
// tables T_k, adjacent link costs l_k, distance tables, and the main
// topology table T derived from them) and implements the NTU (Neighbor
// Topology table Update) and MTU (Main topology Table Update) procedures.
// PdaProcess is the event loop of Fig. 1: every event runs NTU then MTU and
// floods the topology diff to all neighbors.
//
// Table maintenance is INCREMENTAL but output-identical to the from-scratch
// procedures of the paper, and each piece of state is stored once:
//
//   * each T_k is stored once, as the in-forest it is (proto::NeighborTable:
//     an in-edge per node plus child links). k's diffs keep it the tree MTU
//     prunes k's main table to, so D_jk is a path sum along it, and a batch
//     re-sums only the subtrees whose in-edge changed. A T_k with two
//     in-edges into one node falls back to graph::dijkstra
//     (nonforest_fallbacks() counts these; k's real diffs never build one);
//   * the merged table of Fig. 3 is not stored. Row j is T_{pref(j)}'s row j
//     (the preferred neighbor's, kept in `preferred_`), or the adjacent
//     links for j = self, and the router answers it as a view over the T_k.
//     A destination's preferred neighbor is recomputed only when some D_jk
//     it depends on moved (kDirtyMerge); adjacency events dirty everything;
//   * the own SPT (proto::OwnSpt) is repaired in place over that view from
//     the merged table's net change list. Between MTUs the T_k move on while
//     the tree stays as of the last MTU, so a pending log keeps the first
//     previous cost of every merged link that changed: apply_lsu() and the
//     adjacency events fill it for the rows whose preferred neighbor is the
//     k that changed. mtu() builds the net change list from the log plus
//     the whole old and new row of every destination whose preferred
//     neighbor moved, and the log also recovers the merged table and T as
//     of the last MTU for a checkpoint or a full sync taken in between;
//   * the main table T is the own tree's links, emitted from the tree in
//     (head, tail) order, so a clean MTU is O(1) and a dirty one is
//     proportional to what actually changed.
//
// The equivalence rests on exact doubles: a tree path sum is the value
// graph::dijkstra computes, and the own SPT is canonical (lowest-id tight
// predecessor — see proto/tables.h). Configuring with
// -DMDR_AUDIT_TABLES=ON (or set_audit_enabled(true)) cross-checks every
// NTU/MTU against the from-scratch computation and throws
// std::logic_error on any divergence.
//
// PDA converges to correct shortest paths (paper Theorem 2) but offers no
// instantaneous loop-freedom; MPDA (core/mpda.h) layers the LFI machinery
// on top of the same tables.
#pragma once

#include <cstdint>
#include <ranges>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/topology.h"
#include "proto/lsu.h"
#include "proto/tables.h"

namespace mdr::proto {

/// Outbound message interface; the simulator (or a test harness) injects an
/// implementation. `neighbor` is always a current neighbor of the sender.
class LsuSink {
 public:
  virtual ~LsuSink() = default;
  virtual void send(graph::NodeId neighbor, const LsuMessage& msg) = 0;
};

/// Per-router protocol tables plus the NTU/MTU procedures.
///
/// Node ids live in a dense universe [0, num_nodes); a production router
/// would map addresses to dense indices at the edge.
class RouterTables : private OwnSpt::View {
 public:
  RouterTables(graph::NodeId self, std::size_t num_nodes);

  graph::NodeId self() const { return self_; }
  std::size_t num_nodes() const { return num_nodes_; }

  // --- NTU pieces (Fig. 2) -------------------------------------------------

  /// Fig. 2 step 1: fold an LSU from neighbor k into T_k and repair the
  /// distances D_jk (from k to every j in T_k). Entries naming a node
  /// outside [0, num_nodes) or a self-loop are ignored. Returns the
  /// destinations j whose D_jk changed, ascending (consumers can restrict
  /// successor-set rescans to them).
  std::vector<graph::NodeId> apply_lsu(graph::NodeId k,
                                       std::span<const LsuEntry> entries);

  /// Fig. 2 step 2: adjacent link (self, k) came up at the given cost.
  void link_up(graph::NodeId k, graph::Cost cost);

  /// Fig. 2 step 3: adjacent link cost change.
  void link_cost_change(graph::NodeId k, graph::Cost cost);

  /// Fig. 2 step 4: adjacent link failed; clears T_k.
  void link_down(graph::NodeId k);

  // --- MTU (Fig. 3) --------------------------------------------------------

  /// Re-merges the dirty destinations into the main topology table T,
  /// prunes to this router's shortest-path tree, updates D_j, and returns
  /// the LSU entries describing how T changed. With no pending dirt this is
  /// a no-op returning {}.
  std::vector<LsuEntry> mtu();

  /// Destinations whose D_j changed during the last mtu() call, ascending
  /// (feasible-distance maintenance needs exactly these).
  const std::vector<graph::NodeId>& last_mtu_dist_changed() const {
    return last_mtu_dist_changed_;
  }

  // --- accessors -----------------------------------------------------------

  /// Current neighbors (adjacent links that are up), ascending ids.
  auto neighbors() const { return std::views::keys(nbrs_); }
  bool is_neighbor(graph::NodeId k) const { return find(k) != nullptr; }

  /// Adjacent link cost l_k; kInfCost if k is not a neighbor.
  graph::Cost link_cost(graph::NodeId k) const;

  /// D_j: this router's distance to j per the main topology table.
  graph::Cost distance(graph::NodeId j) const { return spt_.dist()[j]; }

  /// D_jk: neighbor k's distance to j per the (time-delayed) topology k
  /// reported; kInfCost if unknown.
  graph::Cost distance_via(graph::NodeId j, graph::NodeId k) const;

  /// The whole D_·k vector (indexed by destination), or nullptr if k is
  /// unknown. Lets per-destination scans hoist the map lookup.
  const std::vector<graph::Cost>* distances_via(graph::NodeId k) const;

  /// T as of the last mtu(): the own tree's links with their costs then.
  LinkStateTable main_topology() const;
  /// T_k; empty if k is not a neighbor.
  LinkStateTable neighbor_topology(graph::NodeId k) const;

  /// LSU batches after which some T_k was not a forest, so D_·k came from
  /// graph::dijkstra instead of path sums (a diagnostic: not checkpointed).
  std::uint64_t nonforest_fallbacks() const { return nonforest_fallbacks_; }

  /// Globally toggles the incremental-vs-from-scratch cross-check (defaults
  /// to on when built with -DMDR_AUDIT_TABLES=ON). A divergence throws
  /// std::logic_error.
  static void set_audit_enabled(bool on) { audit_enabled_ = on; }
  static bool audit_enabled() { return audit_enabled_; }

  /// Heap bytes held by the tables, by capacity.
  std::size_t memory_bytes() const;

  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);

 private:
  // Dirty bits per destination: the preferred neighbor may have moved
  // (some D_jk changed) / one specific neighbor's row for the destination
  // changed (row_dirty_by_ says whose) / rows changed in a way no single
  // neighbor describes (adjacency churn, or two different neighbors' rows
  // moved since the last MTU). Only kDirtyMerge steers mtu(); the row bits
  // are kept because the checkpoint records them.
  static constexpr std::uint8_t kDirtyMerge = 1;
  static constexpr std::uint8_t kDirtyRow = 2;
  static constexpr std::uint8_t kDirtyRowAll = 4;

  // The merged table as it stands (OwnSpt::View): row j of T_{pref(j)}, or
  // the adjacent links for j = self.
  void row(graph::NodeId head,
           std::vector<graph::CostedEdge>& out) const override;
  void into(graph::NodeId tail,
            std::vector<graph::CostedEdge>& out) const override;
  std::optional<graph::Cost> merged_cost(graph::NodeId head,
                                         graph::NodeId tail) const;
  const NeighborTable* table_of(graph::NodeId k) const;
  /// Fig. 3 steps 2-4: the neighbor k minimizing D_jk + l_k, ties to the
  /// lower id; kInvalidNode when no neighbor reaches j.
  graph::NodeId argmin(graph::NodeId j) const;
  /// Logs k's rows of the merged table and the adjacent link to k, and
  /// dirties k's rows, before T_k or l_k changes wholesale.
  void log_neighbor(graph::NodeId k);
  /// The merged table as of the last mtu(): the view with the pending log
  /// undone.
  LinkStateTable last_merged() const;

  void mark_dirty(graph::NodeId j, std::uint8_t bits);
  void mark_row_dirty(graph::NodeId j, graph::NodeId k);
  void audit() const;

  struct Neighbor {
    graph::Cost link_cost;  // l_k
    NeighborTable table;    // T_k and D_·k
  };
  /// Neighbor k's entry, or nullptr.
  const Neighbor* find(graph::NodeId k) const;
  Neighbor* find(graph::NodeId k) {
    return const_cast<Neighbor*>(std::as_const(*this).find(k));
  }

  graph::NodeId self_;
  std::size_t num_nodes_;
  OwnSpt spt_;  // Fig. 3 steps 6-7 over the merged view: D_j and T
  std::vector<std::pair<graph::NodeId, Neighbor>> nbrs_;  // ascending ids
  /// Preferred neighbor per destination as of the last mtu() (the Fig. 3
  /// argmin); kInvalidNode when no neighbor reaches it.
  std::vector<graph::NodeId> preferred_;
  /// Merged links changed since the last mtu(), each with its cost then
  /// (`before`); a link may appear more than once, and its first entry
  /// counts.
  std::vector<LinkStateTable::Change> pending_;
  std::vector<std::uint8_t> dirty_;
  /// With kDirtyRow set: the one neighbor whose row for this destination
  /// changed since the last MTU (meaningless otherwise).
  std::vector<graph::NodeId> row_dirty_by_;
  std::vector<graph::NodeId> dirty_list_;
  /// Adjacency changed (neighbor set or l_k): every destination's argmin
  /// is suspect. Starts true so the first mtu() merges everything.
  bool all_dirty_ = true;
  std::vector<graph::NodeId> last_mtu_dist_changed_;
  std::uint64_t nonforest_fallbacks_ = 0;

  static bool audit_enabled_;
};

/// Events a protocol process consumes; shared by PDA and MPDA.
class RoutingProcess {
 public:
  virtual ~RoutingProcess() = default;
  virtual void on_link_up(graph::NodeId k, graph::Cost cost) = 0;
  virtual void on_link_down(graph::NodeId k) = 0;
  virtual void on_link_cost_change(graph::NodeId k, graph::Cost cost) = 0;
  virtual void on_lsu(const LsuMessage& msg) = 0;
};

/// The PDA event loop (Fig. 1).
class PdaProcess final : public RoutingProcess {
 public:
  PdaProcess(graph::NodeId self, std::size_t num_nodes, LsuSink& sink);

  void on_link_up(graph::NodeId k, graph::Cost cost) override;
  void on_link_down(graph::NodeId k) override;
  void on_link_cost_change(graph::NodeId k, graph::Cost cost) override;
  void on_lsu(const LsuMessage& msg) override;

  const RouterTables& tables() const { return tables_; }

  /// Messages sent so far (diagnostics / overhead accounting).
  std::size_t messages_sent() const { return messages_sent_; }

 private:
  // Fig. 1 steps 2-4: MTU, then flood the diff.
  void mtu_and_flood();

  RouterTables tables_;
  LsuSink* sink_;
  std::size_t messages_sent_ = 0;
};

}  // namespace mdr::proto
