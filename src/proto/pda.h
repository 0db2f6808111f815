// PDA — the Partial-topology Dissemination Algorithm (paper Figs. 1-3).
//
// RouterTables holds the per-router protocol state (main topology table T,
// per-neighbor topology tables T_k, adjacent link costs l_k, distance
// tables) and implements the NTU (Neighbor Topology table Update) and MTU
// (Main topology Table Update) procedures. PdaProcess is the event loop of
// Fig. 1: every event runs NTU then MTU and floods the topology diff to all
// neighbors.
//
// Table maintenance is INCREMENTAL but output-identical to the from-scratch
// procedures of the paper:
//
//   * each T_k is stored once (proto::NeighborTable). k's diffs keep it the
//     in-forest MTU prunes k's main table to, so D_jk is a path sum along
//     it, and a batch re-sums only the subtrees whose in-edge changed. A
//     T_k with two in-edges into one node falls back to graph::dijkstra
//     (nonforest_fallbacks() counts these; k's real diffs never build one);
//   * the Fig. 3 merge keeps a persistent `merged_` topology plus a
//     per-destination preferred-neighbor cache, and re-merges only
//     destinations whose inputs changed (per-destination dirty sets:
//     kDirtyMerge when some D_jk moved, kDirtyRow when a neighbor's row for
//     the destination changed; adjacency events dirty everything);
//   * the own SPT is kept with `merged_` (proto::MergedTable): each merge
//     batch repairs it in place, and the pruned tree T, D_j and the flooded
//     diff are derived from the repair's delta, so a clean MTU is O(1) and
//     a dirty one is proportional to what actually changed.
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
#include <map>
#include <ranges>
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
class RouterTables {
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
  bool is_neighbor(graph::NodeId k) const { return nbrs_.contains(k); }

  /// Adjacent link cost l_k; kInfCost if k is not a neighbor.
  graph::Cost link_cost(graph::NodeId k) const;

  /// D_j: this router's distance to j per the main topology table.
  graph::Cost distance(graph::NodeId j) const { return merged_.dist()[j]; }

  /// D_jk: neighbor k's distance to j per the (time-delayed) topology k
  /// reported; kInfCost if unknown.
  graph::Cost distance_via(graph::NodeId j, graph::NodeId k) const;

  /// The whole D_·k vector (indexed by destination), or nullptr if k is
  /// unknown. Lets per-destination scans hoist the map lookup.
  const std::vector<graph::Cost>* distances_via(graph::NodeId k) const;

  const LinkStateTable& main_topology() const { return main_; }
  const LinkStateTable& neighbor_topology(graph::NodeId k) const;

  /// LSU batches after which some T_k was not a forest, so D_·k came from
  /// graph::dijkstra instead of path sums (a diagnostic: not checkpointed).
  std::uint64_t nonforest_fallbacks() const { return nonforest_fallbacks_; }

  /// Globally toggles the incremental-vs-from-scratch cross-check (defaults
  /// to on when built with -DMDR_AUDIT_TABLES=ON). A divergence throws
  /// std::logic_error.
  static void set_audit_enabled(bool on) { audit_enabled_ = on; }
  static bool audit_enabled() { return audit_enabled_; }

  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);

 private:
  // Dirty bits per destination: the preferred neighbor may have moved
  // (some D_jk changed) / one specific neighbor's row for the destination
  // changed (row_dirty_by_ says whose — the copy is skipped unless that
  // neighbor is the preferred one) / rows changed in a way no single
  // neighbor describes (adjacency churn, or two different neighbors'
  // rows moved since the last MTU), so any preferred match re-copies.
  static constexpr std::uint8_t kDirtyMerge = 1;
  static constexpr std::uint8_t kDirtyRow = 2;
  static constexpr std::uint8_t kDirtyRowAll = 4;

  void mark_dirty(graph::NodeId j, std::uint8_t bits);
  void mark_row_dirty(graph::NodeId j, graph::NodeId k);
  void audit() const;

  struct Neighbor {
    graph::Cost link_cost;  // l_k
    NeighborTable table;    // T_k and D_·k
  };

  graph::NodeId self_;
  std::size_t num_nodes_;
  LinkStateTable main_;  // T (pruned own SPT)
  MergedTable merged_;   // Fig. 3 steps 2-5 output and SPT(merged_, self)
  std::map<graph::NodeId, Neighbor> nbrs_;
  /// Preferred neighbor per destination as of the last mtu() (the Fig. 3
  /// argmin); lets a clean destination skip its row rebuild entirely.
  std::vector<graph::NodeId> preferred_;
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
