#include "proto/tables.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <tuple>

namespace mdr::proto {

using graph::Cost;
using graph::CostedEdge;
using graph::NodeId;

namespace {

bool key_less(NodeId ah, NodeId at, NodeId bh, NodeId bt) {
  return std::tie(ah, at) < std::tie(bh, bt);
}

bool edge_less(const CostedEdge& a, const CostedEdge& b) {
  return key_less(a.from, a.to, b.from, b.to);
}

// graph::dijkstra's edge filter; NaN fails both tests.
bool usable(std::optional<Cost> c) {
  return c && *c >= 0 && *c < graph::kInfCost;
}

// Whether head -> tail joins two distinct nodes in [0, n); the tables
// ignore any other link.
bool joins_nodes(NodeId head, NodeId tail, std::size_t n) {
  const auto ok = [n](NodeId v) {
    return v >= 0 && static_cast<std::size_t>(v) < n;
  };
  return ok(head) && ok(tail) && head != tail;
}

std::vector<LsuEntry> in_range(std::span<const LsuEntry> entries,
                               std::size_t n) {
  std::vector<LsuEntry> kept;
  for (const LsuEntry& e : entries) {
    if (joins_nodes(e.head, e.tail, n)) kept.push_back(e);
  }
  return kept;
}

void check_in_range(const LinkStateTable& t, std::size_t n, const char* what) {
  for (const CostedEdge& e : t.edges()) {
    if (!joins_nodes(e.from, e.to, n)) {
      throw ckpt::Error(std::string(what) + " link outside the node range");
    }
  }
}

// Heap entries are (distance, node); std::greater pops the smallest.
using HeapEntry = std::pair<Cost, NodeId>;
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

}  // namespace

bool LinkStateTable::set(NodeId head, NodeId tail, Cost cost) {
  return apply(LsuEntry{head, tail, cost, LsuOp::kAddOrChange});
}

bool LinkStateTable::remove(NodeId head, NodeId tail) {
  return apply(LsuEntry{head, tail, graph::kInfCost, LsuOp::kDelete});
}

bool LinkStateTable::apply(const LsuEntry& entry) {
  return !apply_batch({&entry, 1}).empty();
}

std::vector<LinkStateTable::Change> LinkStateTable::apply_batch(
    std::span<const LsuEntry> entries) {
  const auto entry_less = [](const LsuEntry& a, const LsuEntry& b) {
    return key_less(a.head, a.tail, b.head, b.tail);
  };
  std::vector<LsuEntry> net(entries.begin(), entries.end());
  if (!std::is_sorted(net.begin(), net.end(), entry_less)) {
    std::stable_sort(net.begin(), net.end(), entry_less);
  }
  // Pass 1, forward: re-cost and delete present links, compacting in place
  // (w never passes r; until the first deletion nothing moves at all).
  std::vector<Change> changes;
  std::vector<CostedEdge> inserts;
  std::size_t r = 0;
  std::size_t w = 0;
  const auto keep_until = [&](std::size_t stop) {
    if (w == r) w = r = stop;
    while (r < stop) links_[w++] = links_[r++];
  };
  for (std::size_t i = 0; i < net.size(); ++i) {
    const LsuEntry& e = net[i];
    if (i + 1 < net.size() && !entry_less(e, net[i + 1])) continue;  // last wins
    const CostedEdge key{e.head, e.tail, e.cost};
    const auto stop = static_cast<std::size_t>(
        std::lower_bound(links_.begin() + static_cast<std::ptrdiff_t>(r),
                         links_.end(), key, edge_less) -
        links_.begin());
    keep_until(stop);
    std::optional<Cost> before;
    if (r < links_.size() && !edge_less(key, links_[r])) before = links_[r++].cost;
    std::optional<Cost> after;
    if (e.op == LsuOp::kAddOrChange) {
      after = e.cost;
      if (before) {
        links_[w++] = key;
      } else {
        inserts.push_back(key);
      }
    }
    if (before != after) changes.push_back({e.head, e.tail, before, after});
  }
  keep_until(links_.size());
  links_.resize(w);
  // Pass 2, backward: merge the new links in from the end.
  std::size_t i = links_.size();
  std::size_t j = inserts.size();
  links_.resize(i + j);
  for (std::size_t out = links_.size(); j > 0;) {
    const bool mine = i > 0 && edge_less(inserts[j - 1], links_[i - 1]);
    links_[--out] = mine ? links_[--i] : inserts[--j];
  }
  return changes;
}

std::optional<Cost> LinkStateTable::cost(NodeId head, NodeId tail) const {
  const CostedEdge key{head, tail, 0};
  const auto it = std::lower_bound(links_.begin(), links_.end(), key, edge_less);
  if (it == links_.end() || edge_less(key, *it)) return std::nullopt;
  return it->cost;
}

std::span<const CostedEdge> LinkStateTable::links_from(NodeId head) const {
  const auto by_head = [](const CostedEdge& e, NodeId h) { return e.from < h; };
  const auto lo =
      std::lower_bound(links_.begin(), links_.end(), head, by_head);
  const auto hi = std::lower_bound(lo, links_.end(), head + 1, by_head);
  return {lo, hi};
}

std::vector<LsuEntry> LinkStateTable::as_entries() const {
  std::vector<LsuEntry> out;
  out.reserve(links_.size());
  for (const CostedEdge& e : links_) {
    out.push_back(LsuEntry{e.from, e.to, e.cost, LsuOp::kAddOrChange});
  }
  return out;
}

std::vector<LsuEntry> LinkStateTable::diff(const LinkStateTable& before,
                                           const LinkStateTable& after) {
  std::vector<LsuEntry> edits;
  for (const CostedEdge& e : before.links_) {
    edits.push_back(LsuEntry{e.from, e.to, graph::kInfCost, LsuOp::kDelete});
  }
  const auto adds = after.as_entries();
  edits.insert(edits.end(), adds.begin(), adds.end());
  LinkStateTable table = before;
  return entries_of(table.apply_batch(edits));
}

std::vector<LsuEntry> LinkStateTable::entries_of(
    std::span<const Change> changes) {
  std::vector<LsuEntry> out;
  for (const bool adds : {true, false}) {
    for (const Change& c : changes) {
      if (c.after.has_value() != adds) continue;
      out.push_back(adds ? LsuEntry{c.head, c.tail, *c.after,
                                    LsuOp::kAddOrChange}
                         : LsuEntry{c.head, c.tail, graph::kInfCost,
                                    LsuOp::kDelete});
    }
  }
  return out;
}

void LinkStateTable::save(ckpt::Writer& w) const {
  w.u64(links_.size());
  for (const CostedEdge& e : links_) {
    w.i64(e.from);
    w.i64(e.to);
    w.f64(e.cost);
  }
}

void LinkStateTable::load(ckpt::Reader& r) {
  links_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    CostedEdge e;
    e.from = static_cast<NodeId>(r.i64());
    e.to = static_cast<NodeId>(r.i64());
    e.cost = r.f64();
    if (!links_.empty() && !edge_less(links_.back(), e)) {
      throw ckpt::Error("link-state table out of key order");
    }
    links_.push_back(e);
  }
}

// ---------------------------------------------------------------------------
// NeighborTable

NeighborTable::NeighborTable(NodeId root, std::size_t num_nodes)
    : root_(root),
      in_xor_(num_nodes, 0),
      in_count_(num_nodes, 0),
      dist_(num_nodes, graph::kInfCost) {
  assert(root >= 0 && static_cast<std::size_t>(root) < num_nodes);
  dist_[root] = 0;
}

void NeighborTable::count_in_edge(NodeId head, NodeId tail, int delta) {
  many_in_ -= in_count_[tail] > 1 ? 1 : 0;
  in_count_[tail] += delta;
  in_xor_[tail] ^= head;
  many_in_ += in_count_[tail] > 1 ? 1 : 0;
}

void NeighborTable::recount() {
  std::fill(in_xor_.begin(), in_xor_.end(), 0);
  std::fill(in_count_.begin(), in_count_.end(), 0);
  many_in_ = 0;
  for (const CostedEdge& e : topo_.edges()) {
    if (usable(e.cost)) count_in_edge(e.from, e.to, +1);
  }
}

NeighborTable::Update NeighborTable::apply(std::span<const LsuEntry> entries) {
  const auto n = static_cast<NodeId>(dist_.size());
  Update up;
  up.links = topo_.apply_batch(in_range(entries, dist_.size()));
  std::vector<NodeId> roots;  // nodes whose usable in-edge changed
  for (const auto& c : up.links) {
    const bool was = usable(c.before);
    const bool now = usable(c.after);
    if (was || now) roots.push_back(c.tail);
    if (was != now) count_in_edge(c.head, c.tail, now ? +1 : -1);
  }

  if (many_in_ > 0) {
    up.used_dijkstra = true;
    auto ref = graph::dijkstra(dist_.size(), topo_.edges(), root_).dist;
    for (NodeId v = 0; v < n; ++v) {
      if (ref[v] != dist_[v]) up.dist_changed.push_back(v);
    }
    dist_ = std::move(ref);
    return up;
  }

  // Forest: every usable link is its tail's in-edge. Cut the subtree below
  // each changed in-edge (inf), then sum each cut root's path again and
  // push the sums down. A push stops where a distance does not move, which
  // also ends it on a cycle k cannot reach.
  std::vector<std::pair<NodeId, Cost>> old;  // node, value before a write
  std::vector<NodeId> stack;
  const auto write = [&](NodeId v, Cost d) {
    old.emplace_back(v, dist_[v]);
    dist_[v] = d;
    for (stack.push_back(v); !stack.empty();) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const CostedEdge& e : topo_.links_from(u)) {
        const Cost du = dist_[u] + e.cost;
        if (e.to == root_ || !usable(e.cost) || du == dist_[e.to]) continue;
        old.emplace_back(e.to, dist_[e.to]);
        dist_[e.to] = du;
        stack.push_back(e.to);
      }
    }
  };
  for (const NodeId v : roots) {
    if (v != root_ && dist_[v] != graph::kInfCost) write(v, graph::kInfCost);
  }
  for (const NodeId v : roots) {
    if (v == root_ || in_count_[v] == 0) continue;
    const NodeId p = in_xor_[v];
    const Cost d = dist_[p] + *topo_.cost(p, v);
    if (d != dist_[v]) write(v, d);
  }
  std::stable_sort(old.begin(), old.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (std::size_t i = 0; i < old.size(); ++i) {
    const auto [v, before] = old[i];
    if ((i == 0 || old[i - 1].first != v) && before != dist_[v]) {
      up.dist_changed.push_back(v);
    }
  }
  return up;
}

void NeighborTable::load(ckpt::Reader& r) {
  topo_.load(r);
  check_in_range(topo_, dist_.size(), "neighbor table");
  recount();
  dist_ = graph::dijkstra(dist_.size(), topo_.edges(), root_).dist;
}

std::string NeighborTable::audit() const {
  NeighborTable fresh = *this;
  fresh.recount();
  if (fresh.in_xor_ != in_xor_ || fresh.in_count_ != in_count_ ||
      fresh.many_in_ != many_in_) {
    return "in-edge bookkeeping";
  }
  if (graph::dijkstra(dist_.size(), topo_.edges(), root_).dist != dist_) {
    return "distances";
  }
  return "";
}

// ---------------------------------------------------------------------------
// MergedTable

MergedTable::MergedTable(NodeId root, std::size_t num_nodes)
    : root_(root),
      dist_(num_nodes, graph::kInfCost),
      parent_(num_nodes, graph::kInvalidNode),
      recorded_(num_nodes, 0),
      in_region_(num_nodes, 0),
      cand_(num_nodes, graph::kInfCost) {
  assert(root >= 0 && static_cast<std::size_t>(root) < num_nodes);
  dist_[root] = 0;
}

std::span<const MergedTable::InEdge> MergedTable::in_edges(NodeId v) const {
  const auto lo = std::lower_bound(in_.begin(), in_.end(), InEdge{v, 0});
  const auto hi = std::lower_bound(lo, in_.end(), InEdge{v + 1, 0});
  return {lo, hi};
}

void MergedTable::index_in_edges(const std::vector<InEdge>& drops,
                                 const std::vector<InEdge>& adds) {
  // Forward: compact out the drops, all of which are present. Nothing
  // before the first one moves.
  if (!drops.empty()) {
    auto w = std::lower_bound(in_.begin(), in_.end(), drops.front());
    auto d = drops.begin();
    for (auto r = w; r != in_.end(); ++r) {
      if (d != drops.end() && *r == *d) {
        ++d;
      } else {
        *w++ = *r;
      }
    }
    in_.erase(w, in_.end());
  }
  // Backward: merge the adds in from the end.
  std::size_t i = in_.size();
  std::size_t j = adds.size();
  in_.resize(i + j);
  for (std::size_t out = in_.size(); j > 0;) {
    const bool mine = i > 0 && adds[j - 1] < in_[i - 1];
    in_[--out] = mine ? in_[--i] : adds[--j];
  }
}

NodeId MergedTable::canonical_parent(NodeId v) const {
  if (v == root_ || dist_[v] >= graph::kInfCost) return graph::kInvalidNode;
  // in_edges() ascends by head: the first tight predecessor is the
  // lowest-id one. Adding a cost >= 0 never lowers a double, so a head
  // farther than v cannot be tight and needs no cost lookup.
  for (const auto& [tail, head] : in_edges(v)) {
    if (dist_[head] <= dist_[v] &&
        dist_[head] + *topo_.cost(head, v) == dist_[v]) {
      return head;
    }
  }
  return graph::kInvalidNode;  // unreachable unless invariants are broken
}

MergedTable::Update MergedTable::apply(std::span<const LsuEntry> entries) {
  Update up;
  up.links = topo_.apply_batch(in_range(entries, dist_.size()));
  const auto usable_cost = [](std::optional<Cost> c) {
    return usable(c) ? *c : graph::kInfCost;
  };
  // The usable out-edges of u, as (tail, cost).
  const auto out_edges = [this](NodeId u, auto&& f) {
    for (const CostedEdge& e : topo_.links_from(u)) {
      if (usable(e.cost)) f(e.to, e.cost);
    }
  };

  // Classify each link by its net effect on the usable graph.
  struct Lowered {
    NodeId from, to;
    Cost cost;
  };
  std::vector<NodeId> cut_roots;      // tree edges that got worse / vanished
  std::vector<Lowered> lowered;       // edges that got better / appeared
  std::vector<NodeId> touched_tails;  // recanonicalize their parents
  std::vector<InEdge> drops;
  std::vector<InEdge> adds;
  for (const auto& c : up.links) {
    const Cost was = usable_cost(c.before);
    const Cost now = usable_cost(c.after);
    if (now == was) continue;
    if (was == graph::kInfCost) adds.emplace_back(c.tail, c.head);
    if (now == graph::kInfCost) drops.emplace_back(c.tail, c.head);
    touched_tails.push_back(c.tail);
    if (now < was) {
      lowered.push_back({c.head, c.tail, now});
    } else if (parent_[c.tail] == c.head) {
      cut_roots.push_back(c.tail);
    }
  }
  if (touched_tails.empty()) return up;
  std::sort(drops.begin(), drops.end());
  std::sort(adds.begin(), adds.end());
  index_in_edges(drops, adds);

  // (node, distance before this batch), recorded once per node on first
  // touch; dist_changed compares against these.
  std::vector<std::pair<NodeId, Cost>> old_dist;
  const auto record_old = [&](NodeId v) {
    if (recorded_[v] == 0) {
      recorded_[v] = 1;
      old_dist.emplace_back(v, dist_[v]);
    }
  };

  MinHeap heap;
  std::vector<NodeId> region;

  // Phase 1 — delete/increase repair. Cut out the subtrees hanging off the
  // worsened tree edges, then run Dijkstra restricted to that region,
  // seeded with the best entry cost over every boundary edge.
  if (!cut_roots.empty()) {
    std::vector<NodeId> stack = cut_roots;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      if (in_region_[v] != 0) continue;
      in_region_[v] = 1;
      region.push_back(v);
      out_edges(v, [&](NodeId w, Cost) {
        if (parent_[w] == v) stack.push_back(w);
      });
    }
    for (const NodeId a : region) {
      record_old(a);
      dist_[a] = graph::kInfCost;
    }
    for (const NodeId a : region) {
      for (const auto& [tail, head] : in_edges(a)) {
        if (in_region_[head] == 0 && dist_[head] < graph::kInfCost) {
          const Cost d = dist_[head] + *topo_.cost(head, a);
          if (d < cand_[a]) cand_[a] = d;
        }
      }
      if (cand_[a] < graph::kInfCost) heap.emplace(cand_[a], a);
    }
    while (!heap.empty()) {
      const auto [d, a] = heap.top();
      heap.pop();
      if (in_region_[a] == 0 || d > cand_[a]) continue;  // settled or stale
      in_region_[a] = 0;
      dist_[a] = d;
      out_edges(a, [&](NodeId w, Cost c) {
        if (in_region_[w] != 0 && d + c < cand_[w]) {
          cand_[w] = d + c;
          heap.emplace(d + c, w);
        }
      });
    }
    // Restore the scratch invariant (unreachable region members were never
    // settled, so their in_region_ byte is still set).
    for (const NodeId a : region) {
      in_region_[a] = 0;
      cand_[a] = graph::kInfCost;
    }
    // A region member can come back BELOW its old distance (the same batch
    // also lowered an edge on its new path); such nodes are a lowering
    // frontier for phase 2 — their out-neighbors outside the region may
    // improve too.
    for (std::size_t i = 0; i < region.size(); ++i) {
      const auto [a, old] = old_dist[i];  // region recorded first, in order
      if (dist_[a] < old) heap.emplace(dist_[a], a);
    }
  }

  // Phase 2 — decrease/insert repair: relax from the improved edges (and
  // any phase-1 nodes that ended up below their old distance) until the
  // lowering stops propagating.
  const auto relax = [&](NodeId v, Cost nd) {
    if (nd < dist_[v]) {
      record_old(v);
      dist_[v] = nd;
      heap.emplace(nd, v);
    }
  };
  for (const Lowered& l : lowered) {
    if (dist_[l.from] < graph::kInfCost) relax(l.to, dist_[l.from] + l.cost);
  }
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist_[v]) continue;  // stale
    out_edges(v, [&](NodeId w, Cost c) { relax(w, d + c); });
  }

  // Recanonicalize parents everywhere the choice could have moved: every
  // touched node, every tail of a changed edge, and every out-neighbor of
  // a node whose distance actually changed (it may have gained or lost a
  // tight predecessor).
  std::vector<NodeId> need_parent = std::move(touched_tails);
  for (const auto& [v, old] : old_dist) {
    recorded_[v] = 0;
    need_parent.push_back(v);
    if (dist_[v] != old) {
      up.dist_changed.push_back(v);
      out_edges(v, [&](NodeId w, Cost) { need_parent.push_back(w); });
    }
  }
  std::sort(up.dist_changed.begin(), up.dist_changed.end());
  std::sort(need_parent.begin(), need_parent.end());
  need_parent.erase(std::unique(need_parent.begin(), need_parent.end()),
                    need_parent.end());
  for (const NodeId v : need_parent) {
    const NodeId best = canonical_parent(v);
    if (best != parent_[v]) {
      up.parent_changed.emplace_back(v, parent_[v]);
      parent_[v] = best;
    }
  }
  return up;
}

void MergedTable::rebuild() {
  in_.clear();
  for (const CostedEdge& e : topo_.edges()) {
    if (usable(e.cost)) in_.emplace_back(e.to, e.from);
  }
  std::sort(in_.begin(), in_.end());
  dist_ = graph::dijkstra(dist_.size(), topo_.edges(), root_).dist;
  for (NodeId v = 0; v < static_cast<NodeId>(dist_.size()); ++v) {
    parent_[v] = canonical_parent(v);
  }
}

void MergedTable::load(ckpt::Reader& r) {
  topo_.load(r);
  check_in_range(topo_, dist_.size(), "merged table");
  rebuild();
}

std::string MergedTable::audit() const {
  MergedTable fresh = *this;
  fresh.rebuild();
  if (fresh.in_ != in_) return "in-edge index";
  const auto ref = graph::dijkstra(dist_.size(), topo_.edges(), root_);
  if (ref.dist != dist_ || ref.parent != parent_) return "tree";
  return "";
}

}  // namespace mdr::proto
