#include "proto/pda.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>

namespace mdr::proto {

using graph::Cost;
using graph::NodeId;

#ifdef MDR_AUDIT_TABLES
bool RouterTables::audit_enabled_ = true;
#else
bool RouterTables::audit_enabled_ = false;
#endif

namespace {

using Change = LinkStateTable::Change;

bool change_less(const Change& a, const Change& b) {
  return std::tie(a.head, a.tail) < std::tie(b.head, b.tail);
}

// The entry for head -> tail in `sorted`, or nullptr.
const Change* find_change(std::span<const Change> sorted, NodeId head,
                          NodeId tail) {
  const Change key{head, tail, std::nullopt, std::nullopt};
  const auto it =
      std::lower_bound(sorted.begin(), sorted.end(), key, change_less);
  return it != sorted.end() && !change_less(key, *it) ? &*it : nullptr;
}

}  // namespace

RouterTables::RouterTables(NodeId self, std::size_t num_nodes)
    : self_(self),
      num_nodes_(num_nodes),
      spt_(self, num_nodes),
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

const RouterTables::Neighbor* RouterTables::find(NodeId k) const {
  const auto it = std::ranges::lower_bound(
      nbrs_, k, {}, [](const auto& entry) { return entry.first; });
  return it != nbrs_.end() && it->first == k ? &it->second : nullptr;
}

const NeighborTable* RouterTables::table_of(NodeId k) const {
  const Neighbor* nb = find(k);
  return nb == nullptr ? nullptr : &nb->table;
}

void RouterTables::row(NodeId head, std::vector<graph::CostedEdge>& out) const {
  if (head == self_) {
    for (const auto& [k, nb] : nbrs_) out.push_back({self_, k, nb.link_cost});
  } else if (const NeighborTable* t = table_of(preferred_[head])) {
    t->row(head, out);
  }
}

void RouterTables::into(NodeId tail,
                        std::vector<graph::CostedEdge>& out) const {
  for (const auto& [k, nb] : nbrs_) {
    nb.table.for_each_in(tail, [&](NodeId head, Cost cost) {
      if (head != self_ && preferred_[head] == k) {
        out.push_back({head, tail, cost});
      }
    });
    if (k == tail) out.push_back({self_, tail, nb.link_cost});
  }
}

std::optional<Cost> RouterTables::merged_cost(NodeId head, NodeId tail) const {
  if (head == self_) {
    const Neighbor* nb = find(tail);
    if (nb == nullptr) return std::nullopt;
    return nb->link_cost;
  }
  const NeighborTable* t = table_of(preferred_[head]);
  return t == nullptr ? std::nullopt : t->cost(head, tail);
}

void RouterTables::log_neighbor(NodeId k) {
  const Neighbor* nb = find(k);
  if (nb == nullptr) {
    pending_.push_back({self_, k, std::nullopt, std::nullopt});
    return;
  }
  pending_.push_back({self_, k, nb->link_cost, std::nullopt});
  // The rows the old T_k supplied must be re-copied even if their
  // preferred neighbor does not move (k's own row is the classic case).
  const LinkStateTable old = nb->table.topology();
  for (const auto& e : old.edges()) {
    mark_dirty(e.from, kDirtyRowAll);
    if (e.from != self_ && preferred_[e.from] == k) {
      pending_.push_back({e.from, e.to, e.cost, std::nullopt});
    }
  }
}

std::vector<NodeId> RouterTables::apply_lsu(NodeId k,
                                            std::span<const LsuEntry> entries) {
  assert(is_neighbor(k));
  Neighbor* nb = find(k);
  if (nb == nullptr) return {};
  // Fig. 2 step 1b-1c: path sums over T_k in place of the Dijkstra.
  auto up = nb->table.apply(entries);
  for (const auto& c : up.links) {
    mark_row_dirty(c.head, k);
    if (c.head != self_ && preferred_[c.head] == k) pending_.push_back(c);
  }
  for (const NodeId j : up.dist_changed) mark_dirty(j, kDirtyMerge);
  if (up.used_dijkstra) ++nonforest_fallbacks_;
  audit();
  return std::move(up.dist_changed);
}

void RouterTables::link_up(NodeId k, Cost cost) {
  assert(k != self_);
  assert(cost >= 0 && cost < graph::kInfCost);
  // The fresh adjacency starts from an empty T_k.
  log_neighbor(k);
  Neighbor fresh{cost, NeighborTable(k, num_nodes_)};
  if (Neighbor* nb = find(k)) {
    *nb = std::move(fresh);
  } else {
    const auto at = std::ranges::upper_bound(
        nbrs_, k, {}, [](const auto& e) { return e.first; });
    nbrs_.insert(at, {k, std::move(fresh)});
  }
  all_dirty_ = true;
  audit();
}

void RouterTables::link_cost_change(NodeId k, Cost cost) {
  assert(cost >= 0 && cost < graph::kInfCost);
  Neighbor* nb = find(k);
  if (nb == nullptr) return;  // raced with a link_down: nothing to update
  if (nb->link_cost == cost) return;  // MTU would be a no-op
  pending_.push_back({self_, k, nb->link_cost, std::nullopt});
  nb->link_cost = cost;
  all_dirty_ = true;  // l_k enters every destination's argmin
  audit();
}

void RouterTables::link_down(NodeId k) {
  if (is_neighbor(k)) {
    log_neighbor(k);
    std::erase_if(nbrs_, [k](const auto& e) { return e.first == k; });
  }
  all_dirty_ = true;
  audit();
}

Cost RouterTables::link_cost(NodeId k) const {
  const Neighbor* nb = find(k);
  return nb == nullptr ? graph::kInfCost : nb->link_cost;
}

Cost RouterTables::distance_via(NodeId j, NodeId k) const {
  const Neighbor* nb = find(k);
  return nb == nullptr ? graph::kInfCost : nb->table.dist()[j];
}

const std::vector<Cost>* RouterTables::distances_via(NodeId k) const {
  const Neighbor* nb = find(k);
  return nb == nullptr ? nullptr : &nb->table.dist();
}

LinkStateTable RouterTables::neighbor_topology(NodeId k) const {
  const NeighborTable* t = table_of(k);
  return t == nullptr ? LinkStateTable() : t->topology();
}

LinkStateTable RouterTables::main_topology() const {
  const auto before = LinkStateTable::first_per_link(pending_);
  std::vector<graph::CostedEdge> links;
  for (NodeId v = 0; v < static_cast<NodeId>(num_nodes_); ++v) {
    const NodeId p = spt_.parent()[v];
    if (p == graph::kInvalidNode) continue;
    const Change* c = find_change(before, p, v);
    const auto cost = c != nullptr ? c->before : merged_cost(p, v);
    assert(cost.has_value());
    links.push_back({p, v, *cost});
  }
  return LinkStateTable(std::move(links));
}

LinkStateTable RouterTables::last_merged() const {
  std::vector<graph::CostedEdge> links;
  for (NodeId j = 0; j < static_cast<NodeId>(num_nodes_); ++j) row(j, links);
  LinkStateTable merged(std::move(links));
  std::vector<LsuEntry> undo;
  for (const Change& c : LinkStateTable::first_per_link(pending_)) {
    undo.push_back(c.before ? LsuEntry{c.head, c.tail, *c.before,
                                       LsuOp::kAddOrChange}
                            : LsuEntry{c.head, c.tail, graph::kInfCost,
                                       LsuOp::kDelete});
  }
  merged.apply_batch(undo);
  return merged;
}

std::size_t RouterTables::memory_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  std::size_t total = spt_.memory_bytes() + bytes(nbrs_) + bytes(preferred_) +
                      bytes(pending_) + bytes(dirty_) + bytes(row_dirty_by_) +
                      bytes(dirty_list_) + bytes(last_mtu_dist_changed_);
  for (const auto& [k, nb] : nbrs_) total += nb.table.memory_bytes();
  return total;
}

NodeId RouterTables::argmin(NodeId j) const {
  NodeId p = graph::kInvalidNode;
  Cost best = graph::kInfCost;
  for (const auto& [k, nb] : nbrs_) {
    const Cost d = nb.table.dist()[j] + nb.link_cost;
    if (d < best) {
      best = d;
      p = k;
    }
  }
  return p;
}

std::vector<LsuEntry> RouterTables::mtu() {
  last_mtu_dist_changed_.clear();
  // Clean tables: no input of the merge changed since the last MTU, so T,
  // D and the diff are all unchanged.
  if (!all_dirty_ && dirty_list_.empty() && pending_.empty()) return {};

  // Fig. 3 steps 2-4: the preferred neighbor of every destination whose
  // argmin inputs moved. A destination whose preferred neighbor moves logs
  // its whole old row as it stands and its new row as absent: only the
  // links logged earlier since the last MTU know an older state.
  std::vector<graph::CostedEdge> row_links;
  const auto log_row = [&](NodeId j, NodeId k, bool present) {
    const NeighborTable* t = table_of(k);
    if (t == nullptr) return;
    row_links.clear();
    t->row(j, row_links);
    for (const auto& e : row_links) {
      const auto before = present ? std::optional(e.cost) : std::nullopt;
      pending_.push_back({j, e.to, before, std::nullopt});
    }
  };
  const auto prefer = [&](NodeId j) {
    const NodeId p = argmin(j);
    if (p != preferred_[j]) {
      log_row(j, preferred_[j], true);
      preferred_[j] = p;
      log_row(j, p, false);
    }
  };
  if (all_dirty_) {
    for (NodeId j = 0; j < static_cast<NodeId>(num_nodes_); ++j) {
      if (j != self_) prefer(j);  // own links are authoritative (step 5)
    }
    std::fill(dirty_.begin(), dirty_.end(), 0);
  } else {
    for (const NodeId j : dirty_list_) {
      if (j != self_ && (dirty_[j] & kDirtyMerge) != 0) prefer(j);
      dirty_[j] = 0;
    }
  }
  dirty_list_.clear();
  all_dirty_ = false;

  // The merged table's net change since the last MTU: each logged link,
  // at its first logged state, against its state now; in key order.
  std::vector<Change> changes;
  for (Change c : LinkStateTable::first_per_link(std::move(pending_))) {
    c.after = merged_cost(c.head, c.tail);
    if (c.before != c.after) changes.push_back(c);
  }
  pending_.clear();

  // Fig. 3 steps 6-7: repair this router's shortest-path tree, and with
  // it D_j.
  auto delta = spt_.apply(*this, changes);

  // Fig. 3 step 8: T's changes, in LinkStateTable::diff's order. A node
  // whose parent moved swaps its tree link; a kept tree link changed only
  // if the merged link did.
  last_mtu_dist_changed_ = std::move(delta.dist_changed);
  const auto& own_parent = spt_.parent();
  std::vector<Change> tree;
  for (const auto& [v, old_p] : delta.parent_changed) {
    if (old_p != graph::kInvalidNode) {
      const Change* c = find_change(changes, old_p, v);
      const auto before = c != nullptr ? c->before : merged_cost(old_p, v);
      tree.push_back({old_p, v, before, std::nullopt});
    }
    if (own_parent[v] != graph::kInvalidNode) {
      tree.push_back(
          {own_parent[v], v, std::nullopt, merged_cost(own_parent[v], v)});
    }
  }
  for (const Change& c : changes) {
    if (own_parent[c.tail] == c.head &&
        !std::ranges::binary_search(delta.parent_changed, c.tail, {},
                                    [](const auto& pc) { return pc.first; })) {
      tree.push_back(c);
    }
  }
  std::sort(tree.begin(), tree.end(), change_less);
  audit();
  return LinkStateTable::entries_of(tree);
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
  // 2. The own SPT matches a from-scratch Dijkstra over the merged table
  // as of the last MTU.
  const LinkStateTable merged = last_merged();
  if (const std::string diverged = spt_.audit(merged); !diverged.empty()) {
    fail("own SPT " + diverged + " diverged from merged topology");
  }
  if (all_dirty_) return;
  // 3. Every CLEAN destination's merge inputs are truly unchanged: its
  // cached argmin matches a fresh evaluation, and no link of its row is
  // pending. (Dirty destinations are allowed to be stale until the next
  // mtu().)
  for (NodeId j = 0; j < static_cast<NodeId>(num_nodes_); ++j) {
    if (j != self_ && dirty_[j] == 0 && argmin(j) != preferred_[j]) {
      fail("stale preferred neighbor for clean destination " +
           std::to_string(j));
    }
  }
  for (const Change& c : pending_) {
    if (c.head == self_ || dirty_[c.head] == 0) {
      fail("pending change on clean row " + std::to_string(c.head));
    }
  }
  // 4. With nothing dirty (as after every mtu()), the view is exactly the
  // Fig. 3 merge built from scratch: row j copied from the argmin
  // neighbor's materialized T_k, the adjacent links as row self.
  if (!dirty_list_.empty()) return;
  std::map<NodeId, LinkStateTable> topo;
  std::vector<graph::CostedEdge> want;
  for (const auto& [k, nb] : nbrs_) {
    topo.emplace(k, nb.table.topology());
    want.push_back({self_, k, nb.link_cost});
  }
  for (NodeId j = 0; j < static_cast<NodeId>(num_nodes_); ++j) {
    const NodeId p = j == self_ ? graph::kInvalidNode : argmin(j);
    if (p == graph::kInvalidNode) continue;
    const auto links = topo.at(p).links_from(j);
    want.insert(want.end(), links.begin(), links.end());
  }
  if (!(LinkStateTable(std::move(want)) == merged)) {
    fail("merged view differs from the Fig. 3 merge");
  }
}

void RouterTables::save(ckpt::Writer& w) const {
  main_topology().save(w);
  last_merged().save(w);
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
  for (const Cost c : spt_.dist()) w.f64(c);  // D_j
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
  LinkStateTable main;
  LinkStateTable merged;
  main.load(r);
  merged.load(r);
  nbrs_.clear();
  std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto k = static_cast<NodeId>(r.i64());
    if (k < 0 || static_cast<std::size_t>(k) >= num_nodes_) {
      throw ckpt::Error("neighbor id outside the node range");
    }
    if (!nbrs_.empty() && nbrs_.back().first >= k) {
      throw ckpt::Error("neighbor tables out of id order");
    }
    nbrs_.emplace_back(k, Neighbor{0, NeighborTable(k, num_nodes_)});
    nbrs_.back().second.table.load(r);
  }
  n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    Neighbor* nb = find(static_cast<NodeId>(r.i64()));
    if (nb == nullptr) throw ckpt::Error("link cost for no neighbor");
    nb->link_cost = r.f64();
  }
  // The neighbor list is the keys of nbrs_, as save() writes it.
  const auto disagree = [] {
    return ckpt::Error("neighbor tables, link costs and neighbors disagree");
  };
  if (n != nbrs_.size() || r.u64() != nbrs_.size()) throw disagree();
  for (const NodeId k : neighbors()) {
    if (static_cast<NodeId>(r.i64()) != k) throw disagree();
  }
  // The own SPT over the stored merged table; the stored D_j must be its
  // distances.
  spt_.rebuild(merged);
  r.expect_size(num_nodes_, "distance vector");
  for (const Cost c : spt_.dist()) {
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
  // What the view now reads differently from the stored merged table is
  // what changed since the last MTU.
  std::vector<graph::CostedEdge> links;
  for (NodeId j = 0; j < static_cast<NodeId>(num_nodes_); ++j) row(j, links);
  pending_.clear();
  for (const LsuEntry& e :
       LinkStateTable::diff(LinkStateTable(std::move(links)), merged)) {
    pending_.push_back({e.head, e.tail,
                        e.op == LsuOp::kAddOrChange ? std::optional(e.cost)
                                                    : std::nullopt,
                        std::nullopt});
  }
  if (!(main_topology() == main)) {
    throw ckpt::Error("main table is not the merged table's tree");
  }
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
