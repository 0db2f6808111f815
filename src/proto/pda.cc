#include "proto/pda.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace mdr::proto {

using graph::Cost;
using graph::NodeId;

#ifdef MDR_AUDIT_TABLES
bool RouterTables::audit_enabled_ = true;
#else
bool RouterTables::audit_enabled_ = false;
#endif

RouterTables::RouterTables(NodeId self, std::size_t num_nodes)
    : self_(self),
      num_nodes_(num_nodes),
      merged_(self, num_nodes),
      preferred_(num_nodes, graph::kInvalidNode),
      dirty_(num_nodes, 0),
      row_dirty_by_(num_nodes, graph::kInvalidNode) {}

void RouterTables::mark_dirty(NodeId j, std::uint8_t bits) {
  if (j < 0 || static_cast<std::size_t>(j) >= num_nodes_) return;
  if (dirty_[j] == 0) dirty_list_.push_back(j);
  dirty_[j] |= bits;
}

void RouterTables::mark_row_dirty(NodeId j, NodeId k) {
  if (j < 0 || static_cast<std::size_t>(j) >= num_nodes_) return;
  if (dirty_[j] == 0) dirty_list_.push_back(j);
  if ((dirty_[j] & kDirtyRowAll) != 0) return;  // already maximal
  if ((dirty_[j] & kDirtyRow) != 0) {
    if (row_dirty_by_[j] != k) {
      // A second distinct neighbor's row moved: no single attribution.
      dirty_[j] = static_cast<std::uint8_t>((dirty_[j] & ~kDirtyRow) |
                                            kDirtyRowAll);
    }
  } else {
    dirty_[j] |= kDirtyRow;
    row_dirty_by_[j] = k;
  }
}

std::vector<NodeId> RouterTables::apply_lsu(NodeId k,
                                            std::span<const LsuEntry> entries) {
  assert(is_neighbor(k));
  const auto it = nbrs_.find(k);
  if (it == nbrs_.end()) return {};
  // Fig. 2 step 1b-1c: path sums over T_k in place of the Dijkstra.
  auto up = it->second.table.apply(entries);
  for (const auto& c : up.links) mark_row_dirty(c.head, k);
  for (const NodeId j : up.dist_changed) mark_dirty(j, kDirtyMerge);
  if (up.used_dijkstra) ++nonforest_fallbacks_;
  audit();
  return std::move(up.dist_changed);
}

void RouterTables::link_up(NodeId k, Cost cost) {
  assert(k != self_);
  assert(cost >= 0 && cost < graph::kInfCost);
  // The fresh adjacency starts from an empty T_k: any destination whose row
  // the old incarnation supplied must be re-copied even if its preferred
  // neighbor does not move (k's own row is the classic case).
  if (const auto it = nbrs_.find(k); it != nbrs_.end()) {
    for (const auto& e : it->second.table.topology().edges()) {
      mark_dirty(e.from, kDirtyRowAll);
    }
  }
  nbrs_.insert_or_assign(k, Neighbor{cost, NeighborTable(k, num_nodes_)});
  all_dirty_ = true;
  audit();
}

void RouterTables::link_cost_change(NodeId k, Cost cost) {
  assert(cost >= 0 && cost < graph::kInfCost);
  const auto it = nbrs_.find(k);
  if (it == nbrs_.end()) return;  // raced with a link_down: nothing to update
  if (it->second.link_cost == cost) return;  // MTU would be a no-op
  it->second.link_cost = cost;
  all_dirty_ = true;  // l_k enters every destination's argmin
  audit();
}

void RouterTables::link_down(NodeId k) {
  if (const auto it = nbrs_.find(k); it != nbrs_.end()) {
    for (const auto& e : it->second.table.topology().edges()) {
      mark_dirty(e.from, kDirtyRowAll);
    }
    nbrs_.erase(it);
  }
  all_dirty_ = true;
  audit();
}

Cost RouterTables::link_cost(NodeId k) const {
  const auto it = nbrs_.find(k);
  return it == nbrs_.end() ? graph::kInfCost : it->second.link_cost;
}

Cost RouterTables::distance_via(NodeId j, NodeId k) const {
  const auto it = nbrs_.find(k);
  return it == nbrs_.end() ? graph::kInfCost : it->second.table.dist()[j];
}

const std::vector<Cost>* RouterTables::distances_via(NodeId k) const {
  const auto it = nbrs_.find(k);
  return it == nbrs_.end() ? nullptr : &it->second.table.dist();
}

const LinkStateTable& RouterTables::neighbor_topology(NodeId k) const {
  static const LinkStateTable kEmpty;
  const auto it = nbrs_.find(k);
  return it == nbrs_.end() ? kEmpty : it->second.table.topology();
}

std::vector<LsuEntry> RouterTables::mtu() {
  last_mtu_dist_changed_.clear();
  // Clean tables: no input of the merge changed since the last MTU, so T,
  // D and the diff are all unchanged — the deep copy and the full merge of
  // the from-scratch procedure are skipped entirely.
  if (!all_dirty_ && dirty_list_.empty()) return {};

  // Hoisted per-neighbor views (ascending ids: ties go to the lower id).
  struct NbrView {
    NodeId k;
    const std::vector<Cost>* dist;
    const LinkStateTable* topo;
    Cost link_cost;
  };
  std::vector<NbrView> views;
  views.reserve(nbrs_.size());
  for (const auto& [k, nb] : nbrs_) {
    views.push_back(
        NbrView{k, &nb.table.dist(), &nb.table.topology(), nb.link_cost});
  }

  // Fig. 3 steps 2-5 as one batch of edits to merged_: a re-copied row is
  // its old links deleted, then the new ones added (the later entry wins).
  std::vector<LsuEntry> edits;
  const auto copy_row = [&](NodeId j, std::span<const graph::CostedEdge> row) {
    for (const auto& e : merged_.topology().links_from(j)) {
      edits.push_back(LsuEntry{j, e.to, graph::kInfCost, LsuOp::kDelete});
    }
    for (const auto& e : row) {
      edits.push_back(LsuEntry{j, e.to, e.cost, LsuOp::kAddOrChange});
    }
  };

  // Fig. 3 steps 2-4 for one destination: recompute the preferred neighbor
  // when its argmin inputs moved, and re-copy the row when the choice or
  // the chosen row's content changed. A row dirtied only by a
  // non-preferred neighbor is skipped entirely (row_dirty_by_ attributes
  // single-neighbor row dirt).
  const auto process = [&](NodeId j, bool merge_dirty) {
    NodeId p = preferred_[j];
    const LinkStateTable* ptopo = nullptr;
    if (merge_dirty) {
      p = graph::kInvalidNode;
      Cost best = graph::kInfCost;
      for (const NbrView& v : views) {
        const Cost d = (*v.dist)[j] + v.link_cost;
        if (d < best) {
          best = d;
          p = v.k;
          ptopo = v.topo;
        }
      }
    }
    const bool p_changed = p != preferred_[j];
    preferred_[j] = p;
    const bool row_dirty =
        (dirty_[j] & kDirtyRowAll) != 0 ||
        ((dirty_[j] & kDirtyRow) != 0 && row_dirty_by_[j] == p);
    if (!p_changed && !row_dirty) return;
    if (p == graph::kInvalidNode) {
      copy_row(j, {});
      return;
    }
    if (ptopo == nullptr) ptopo = &nbrs_.at(p).table.topology();
    copy_row(j, ptopo->links_from(j));
  };

  if (all_dirty_) {
    for (NodeId j = 0; j < static_cast<NodeId>(num_nodes_); ++j) {
      if (j == self_) continue;  // own links are authoritative (step 5)
      process(j, /*merge_dirty=*/true);
    }
    // Fig. 3 step 5: adjacent links override anything neighbors reported.
    std::vector<graph::CostedEdge> own;
    for (const NbrView& v : views) own.push_back({self_, v.k, v.link_cost});
    copy_row(self_, own);
  } else {
    for (const NodeId j : dirty_list_) {
      if (j == self_) continue;
      process(j, (dirty_[j] & kDirtyMerge) != 0);
    }
  }
  if (all_dirty_) {
    std::fill(dirty_.begin(), dirty_.end(), 0);
  } else {
    for (const NodeId j : dirty_list_) dirty_[j] = 0;
  }
  dirty_list_.clear();
  all_dirty_ = false;

  // Fig. 3 steps 6-7: repair this router's shortest-path tree, and with
  // it D_j.
  auto delta = merged_.apply(edits);

  // Fig. 3 step 8: update the pruned T in place and report the differences
  // in LinkStateTable::diff's order. The candidates are the tails of the
  // merged links that changed (only their pruned entry can move without a
  // dist/parent change: a re-costed tree edge) and every node whose
  // distance or parent moved. Each is handled exactly once, so no two
  // edits name the same link.
  std::vector<NodeId> candidates = delta.dist_changed;
  for (const auto& c : delta.links) candidates.push_back(c.tail);
  for (const auto& [v, prev] : delta.parent_changed) candidates.push_back(v);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  last_mtu_dist_changed_ = std::move(delta.dist_changed);

  const auto& own_parent = merged_.parent();
  std::vector<LsuEntry> tree_edits;
  auto pc = delta.parent_changed.begin();  // ascending by node
  for (const NodeId v : candidates) {
    const NodeId new_p = own_parent[v];
    while (pc != delta.parent_changed.end() && pc->first < v) ++pc;
    const NodeId old_p =
        (pc != delta.parent_changed.end() && pc->first == v) ? pc->second
                                                             : new_p;
    if (old_p != new_p && old_p != graph::kInvalidNode) {
      tree_edits.push_back(
          LsuEntry{old_p, v, graph::kInfCost, LsuOp::kDelete});
    }
    if (new_p != graph::kInvalidNode) {
      const auto cost = merged_.topology().cost(new_p, v);
      assert(cost.has_value());
      tree_edits.push_back(LsuEntry{new_p, v, *cost, LsuOp::kAddOrChange});
    }
  }
  const auto changes = main_.apply_batch(tree_edits);
  audit();
  return LinkStateTable::entries_of(changes);
}

void RouterTables::audit() const {
  if (!audit_enabled_) return;
  const auto fail = [this](const std::string& what) {
    throw std::logic_error("RouterTables audit (router " +
                           std::to_string(self_) + "): " + what);
  };
  // 1. Every D_·k matches a from-scratch Dijkstra over T_k.
  for (const auto& [k, nb] : nbrs_) {
    const std::string diverged = nb.table.audit();
    if (!diverged.empty()) {
      fail("neighbor table " + diverged + " diverged for k=" +
           std::to_string(k));
    }
  }
  // 2. The own SPT and its in-edge index match a from-scratch rebuild and
  // Dijkstra over merged_.
  if (const std::string diverged = merged_.audit(); !diverged.empty()) {
    fail("own SPT " + diverged + " diverged from merged topology");
  }
  // 3. main_ is exactly the pruned own tree.
  LinkStateTable pruned;
  for (NodeId v = 0; v < static_cast<NodeId>(num_nodes_); ++v) {
    const NodeId p = merged_.parent()[v];
    if (p == graph::kInvalidNode) continue;
    const auto cost = merged_.topology().cost(p, v);
    if (!cost.has_value()) fail("tree edge missing from merged topology");
    pruned.set(p, v, *cost);
  }
  if (!(pruned == main_)) fail("main table is not the pruned SPT");
  // 4. Every CLEAN destination's merge inputs are truly unchanged: its
  // cached argmin and merged row match a fresh evaluation. (Dirty
  // destinations are allowed to be stale until the next mtu().)
  if (!all_dirty_) {
    for (NodeId j = 0; j < static_cast<NodeId>(num_nodes_); ++j) {
      if (j == self_ || dirty_[j] != 0) continue;
      NodeId p = graph::kInvalidNode;
      Cost best = graph::kInfCost;
      for (const auto& [k, nb] : nbrs_) {
        const Cost d = nb.table.dist()[j] + nb.link_cost;
        if (d < best) {
          best = d;
          p = k;
        }
      }
      if (p != preferred_[j]) {
        fail("stale preferred neighbor for clean destination " +
             std::to_string(j));
      }
      if (!std::ranges::equal(merged_.topology().links_from(j),
                              neighbor_topology(p).links_from(j))) {
        fail("stale merged row for clean destination " + std::to_string(j));
      }
    }
    std::vector<graph::CostedEdge> want_self;
    for (const auto& [k, nb] : nbrs_) {
      want_self.push_back({self_, k, nb.link_cost});
    }
    if (!std::ranges::equal(merged_.topology().links_from(self_),
                            want_self)) {
      fail("stale self row");
    }
  }
}

void RouterTables::save(ckpt::Writer& w) const {
  main_.save(w);
  merged_.save(w);
  w.u64(nbrs_.size());
  for (const auto& [k, nb] : nbrs_) {
    w.i64(k);
    nb.table.save(w);
  }
  w.u64(nbrs_.size());
  for (const auto& [k, nb] : nbrs_) {
    w.i64(k);
    w.f64(nb.link_cost);
  }
  w.u64(nbrs_.size());
  for (const NodeId k : neighbors()) w.i64(k);
  w.u64(num_nodes_);
  for (const Cost c : merged_.dist()) w.f64(c);  // D_j
  w.u64(preferred_.size());
  for (NodeId p : preferred_) w.i64(p);
  // Dirty state is protocol state: marks accumulated while ACTIVE are
  // consumed by the deferred MTU after resume.
  w.u64(dirty_.size());
  for (std::uint8_t d : dirty_) w.u8(d);
  w.u64(row_dirty_by_.size());
  for (NodeId v : row_dirty_by_) w.i64(v);
  w.b(all_dirty_);
}

void RouterTables::load(ckpt::Reader& r) {
  main_.load(r);
  merged_.load(r);
  nbrs_.clear();
  std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto k = static_cast<NodeId>(r.i64());
    if (k < 0 || static_cast<std::size_t>(k) >= num_nodes_) {
      throw ckpt::Error("neighbor id outside the node range");
    }
    nbrs_.insert_or_assign(k, Neighbor{0, NeighborTable(k, num_nodes_)})
        .first->second.table.load(r);
  }
  n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto it = nbrs_.find(static_cast<NodeId>(r.i64()));
    if (it == nbrs_.end()) throw ckpt::Error("link cost for no neighbor");
    it->second.link_cost = r.f64();
  }
  // The neighbor list is the keys of nbrs_, as save() writes it.
  const auto disagree = [] {
    return ckpt::Error("neighbor tables, link costs and neighbors disagree");
  };
  if (n != nbrs_.size() || r.u64() != nbrs_.size()) throw disagree();
  for (const NodeId k : neighbors()) {
    if (static_cast<NodeId>(r.i64()) != k) throw disagree();
  }
  // merged_.load() rebuilt the own SPT; the stored D_j must be its
  // distances.
  r.expect_size(num_nodes_, "distance vector");
  for (const Cost c : merged_.dist()) {
    if (r.f64() != c) {
      throw ckpt::Error("distance vector disagrees with the merged table");
    }
  }
  r.expect_size(num_nodes_, "preferred-neighbor vector");
  for (NodeId& p : preferred_) p = static_cast<NodeId>(r.i64());
  r.expect_size(num_nodes_, "dirty marks");
  dirty_list_.clear();
  for (std::size_t j = 0; j < num_nodes_; ++j) {
    dirty_[j] = r.u8();
    if (dirty_[j] != 0) dirty_list_.push_back(static_cast<NodeId>(j));
  }
  r.expect_size(num_nodes_, "row-dirty attribution");
  for (NodeId& v : row_dirty_by_) v = static_cast<NodeId>(r.i64());
  all_dirty_ = r.b();
  audit();
}

// ---------------------------------------------------------------------------
// PdaProcess (Fig. 1)

PdaProcess::PdaProcess(NodeId self, std::size_t num_nodes, LsuSink& sink)
    : tables_(self, num_nodes), sink_(&sink) {}

void PdaProcess::on_link_up(NodeId k, Cost cost) {
  tables_.link_up(k, cost);
  // Fig. 2 step 2: bring the new neighbor up to date with the full main
  // topology table (nothing to send if we know nothing yet).
  const auto full = tables_.main_topology().as_entries();
  if (!full.empty()) {
    sink_->send(k, LsuMessage{tables_.self(), /*ack=*/false, full});
    ++messages_sent_;
  }
  mtu_and_flood();
}

void PdaProcess::on_link_down(NodeId k) {
  tables_.link_down(k);
  mtu_and_flood();
}

void PdaProcess::on_link_cost_change(NodeId k, Cost cost) {
  tables_.link_cost_change(k, cost);
  mtu_and_flood();
}

void PdaProcess::on_lsu(const LsuMessage& msg) {
  assert(tables_.is_neighbor(msg.sender));
  tables_.apply_lsu(msg.sender, msg.entries);
  mtu_and_flood();
}

void PdaProcess::mtu_and_flood() {
  const auto changes = tables_.mtu();
  if (changes.empty()) return;
  const LsuMessage msg{tables_.self(), /*ack=*/false, changes};
  for (const NodeId k : tables_.neighbors()) {
    sink_->send(k, msg);
    ++messages_sent_;
  }
}

}  // namespace mdr::proto
