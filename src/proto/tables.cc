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

LinkStateTable::LinkStateTable(std::vector<CostedEdge> links)
    : links_(std::move(links)) {
  std::sort(links_.begin(), links_.end(), edge_less);
  assert(std::adjacent_find(links_.begin(), links_.end(),
                            [](const CostedEdge& a, const CostedEdge& b) {
                              return !edge_less(a, b);
                            }) == links_.end());
}

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

std::vector<LinkStateTable::Change> LinkStateTable::first_per_link(
    std::vector<Change> log) {
  const auto change_less = [](const Change& a, const Change& b) {
    return key_less(a.head, a.tail, b.head, b.tail);
  };
  if (!std::is_sorted(log.begin(), log.end(), change_less)) {
    std::stable_sort(log.begin(), log.end(), change_less);
  }
  log.erase(std::unique(log.begin(), log.end(),
                        [&](const Change& a, const Change& b) {
                          return !change_less(a, b);
                        }),
            log.end());
  return log;
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

namespace {

// The position of link head -> tail in `side`, sorted by key, or end().
template <class Vec>
auto find_link(Vec& side, NodeId head, NodeId tail) {
  const CostedEdge key{head, tail, 0};
  const auto it = std::lower_bound(side.begin(), side.end(), key, edge_less);
  return it != side.end() && !edge_less(key, *it) ? it : side.end();
}

template <class T>
std::size_t capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

NeighborTable::NeighborTable(NodeId root, std::size_t num_nodes)
    : root_(root),
      in_(num_nodes),
      first_child_(num_nodes, graph::kInvalidNode),
      dist_(num_nodes, graph::kInfCost) {
  assert(root >= 0 && static_cast<std::size_t>(root) < num_nodes);
  dist_[root] = 0;
}

std::optional<Cost> NeighborTable::cost(NodeId head, NodeId tail) const {
  if (in_[tail].head == head) return in_[tail].cost;
  const auto it = find_link(side_, head, tail);
  if (it == side_.end()) return std::nullopt;
  return it->cost;
}

void NeighborTable::row(NodeId head, std::vector<CostedEdge>& out) const {
  for (NodeId c = first_child_[head]; c != graph::kInvalidNode;
       c = in_[c].next_sibling) {
    out.push_back({head, c, in_[c].cost});
  }
  const auto by_head = [](const CostedEdge& e, NodeId h) { return e.from < h; };
  for (auto it = std::lower_bound(side_.begin(), side_.end(), head, by_head);
       it != side_.end() && it->from == head; ++it) {
    out.push_back(*it);
  }
}

LinkStateTable NeighborTable::topology() const {
  std::vector<CostedEdge> links = side_;
  for (NodeId v = 0; v < static_cast<NodeId>(in_.size()); ++v) {
    if (in_[v].head != graph::kInvalidNode) {
      links.push_back({in_[v].head, v, in_[v].cost});
    }
  }
  return LinkStateTable(std::move(links));
}

void NeighborTable::attach(NodeId head, NodeId tail, Cost cost) {
  in_[tail].head = head;
  in_[tail].cost = cost;
  in_[tail].next_sibling = first_child_[head];
  first_child_[head] = tail;
}

void NeighborTable::detach(NodeId tail) {
  NodeId* link = &first_child_[in_[tail].head];
  while (*link != tail) link = &in_[*link].next_sibling;
  *link = in_[tail].next_sibling;
  in_[tail].next_sibling = graph::kInvalidNode;
  in_[tail].head = graph::kInvalidNode;
  // A usable side in-edge takes the free slot, the lowest head first.
  for (auto it = side_.begin(); it != side_.end(); ++it) {
    if (it->to == tail && usable(it->cost)) {
      const CostedEdge e = *it;
      side_.erase(it);
      --side_usable_;
      attach(e.from, e.to, e.cost);
      return;
    }
  }
}

void NeighborTable::add_side(NodeId head, NodeId tail, Cost cost) {
  const CostedEdge e{head, tail, cost};
  side_.insert(std::upper_bound(side_.begin(), side_.end(), e, edge_less), e);
  if (usable(cost)) ++side_usable_;
}

void NeighborTable::set(NodeId head, NodeId tail, Cost cost) {
  if (in_[tail].head == head) {
    if (usable(cost)) {
      in_[tail].cost = cost;
      return;
    }
    detach(tail);
    add_side(head, tail, cost);
    return;
  }
  remove(head, tail);
  if (usable(cost) && in_[tail].head == graph::kInvalidNode) {
    attach(head, tail, cost);
  } else {
    add_side(head, tail, cost);
  }
}

void NeighborTable::remove(NodeId head, NodeId tail) {
  if (in_[tail].head == head) {
    detach(tail);
    return;
  }
  const auto it = find_link(side_, head, tail);
  if (it == side_.end()) return;
  if (usable(it->cost)) --side_usable_;
  side_.erase(it);
}

NeighborTable::Update NeighborTable::apply(std::span<const LsuEntry> entries) {
  // Each entry in turn, logging the link's state before it.
  std::vector<LinkStateTable::Change> log;
  log.reserve(entries.size());
  for (const LsuEntry& e : entries) {
    if (!joins_nodes(e.head, e.tail, dist_.size())) continue;
    log.push_back({e.head, e.tail, cost(e.head, e.tail), std::nullopt});
    if (e.op == LsuOp::kAddOrChange) {
      set(e.head, e.tail, e.cost);
    } else {
      remove(e.head, e.tail);
    }
  }
  // The net change of each link: its state before the first entry naming
  // it against its state now.
  Update up;
  for (auto& c : LinkStateTable::first_per_link(std::move(log))) {
    c.after = cost(c.head, c.tail);
    if (c.before != c.after) up.links.push_back(c);
  }

  if (side_usable_ > 0) {
    up.used_dijkstra = true;
    auto ref = graph::dijkstra(dist_.size(), topology().edges(), root_).dist;
    for (NodeId v = 0; v < static_cast<NodeId>(dist_.size()); ++v) {
      if (ref[v] != dist_[v]) up.dist_changed.push_back(v);
    }
    dist_ = std::move(ref);
    return up;
  }

  // Forest: each root (a node whose usable in-edge changed) takes its
  // parent's distance plus its in-edge cost, pushed down its subtree until
  // a distance does not move. Roots go ancestors first, so the parent is
  // final when read. A root whose path up ends in a cycle, or at a node
  // with no in-edge, is unreachable: inf.
  std::vector<std::pair<NodeId, Cost>> old;  // (node, distance before)
  std::vector<NodeId> stack;
  const auto write = [&](NodeId v, Cost d) {
    old.emplace_back(v, dist_[v]);
    dist_[v] = d;
    for (stack.push_back(v); !stack.empty();) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId c = first_child_[u]; c != graph::kInvalidNode;
           c = in_[c].next_sibling) {
        const Cost du = dist_[u] + in_[c].cost;
        if (c == root_ || du == dist_[c]) continue;
        old.emplace_back(c, dist_[c]);
        dist_[c] = du;
        stack.push_back(c);
      }
    }
  };
  const std::size_t n = dist_.size();
  std::vector<std::pair<std::size_t, NodeId>> roots;  // (depth, node)
  for (const auto& c : up.links) {
    const NodeId v = c.tail;
    if (v == root_ || (!usable(c.before) && !usable(c.after))) continue;
    std::size_t depth = 0;
    NodeId u = v;
    for (; u != root_ && in_[u].head != graph::kInvalidNode && depth <= n;
         ++depth) {
      u = in_[u].head;
    }
    roots.emplace_back(u == root_ ? depth : n + 1, v);
  }
  std::sort(roots.begin(), roots.end());
  for (const auto& [depth, v] : roots) {
    const Cost d =
        depth > n ? graph::kInfCost : dist_[in_[v].head] + in_[v].cost;
    if (d != dist_[v]) write(v, d);
  }
  // A node's first write holds its distance before the batch.
  std::stable_sort(old.begin(), old.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (std::size_t i = 0; i < old.size(); ++i) {
    const NodeId v = old[i].first;
    if ((i == 0 || old[i - 1].first != v) && old[i].second != dist_[v]) {
      up.dist_changed.push_back(v);
    }
  }
  return up;
}

void NeighborTable::load(ckpt::Reader& r) {
  LinkStateTable table;
  table.load(r);
  check_in_range(table, dist_.size(), "neighbor table");
  *this = NeighborTable(root_, dist_.size());
  for (const CostedEdge& e : table.edges()) set(e.from, e.to, e.cost);
  dist_ = graph::dijkstra(dist_.size(), table.edges(), root_).dist;
}

std::string NeighborTable::audit() const {
  std::size_t children = 0;
  for (NodeId u = 0; u < static_cast<NodeId>(in_.size()); ++u) {
    for (NodeId c = first_child_[u]; c != graph::kInvalidNode;
         c = in_[c].next_sibling) {
      if (in_[c].head != u || !usable(in_[c].cost)) return "forest links";
      ++children;
    }
  }
  std::size_t side_usable = 0;
  for (std::size_t i = 0; i < side_.size(); ++i) {
    const CostedEdge& e = side_[i];
    if ((i > 0 && !edge_less(side_[i - 1], e)) || in_[e.to].head == e.from) {
      return "side list";
    }
    if (usable(e.cost)) {
      ++side_usable;
      if (in_[e.to].head == graph::kInvalidNode) return "side list";
    }
  }
  const LinkStateTable table = topology();
  if (side_usable != side_usable_ || children + side_.size() != table.size()) {
    return "forest links";
  }
  if (graph::dijkstra(dist_.size(), table.edges(), root_).dist != dist_) {
    return "distances";
  }
  return "";
}

std::size_t NeighborTable::memory_bytes() const {
  return capacity_bytes(in_) + capacity_bytes(first_child_) +
         capacity_bytes(side_) + capacity_bytes(dist_);
}

// ---------------------------------------------------------------------------
// OwnSpt

OwnSpt::OwnSpt(NodeId root, std::size_t num_nodes)
    : root_(root),
      dist_(num_nodes, graph::kInfCost),
      parent_(num_nodes, graph::kInvalidNode),
      recorded_(num_nodes, 0),
      in_region_(num_nodes, 0),
      cand_(num_nodes, graph::kInfCost) {
  assert(root >= 0 && static_cast<std::size_t>(root) < num_nodes);
  dist_[root] = 0;
}

NodeId OwnSpt::canonical_parent(const View& view, NodeId v,
                                std::vector<CostedEdge>& arcs) const {
  if (v == root_ || dist_[v] >= graph::kInfCost) return graph::kInvalidNode;
  arcs.clear();
  view.into(v, arcs);
  // The lowest-id tight predecessor. Adding a cost >= 0 never lowers a
  // double, so a head farther than v cannot be tight.
  NodeId best = graph::kInvalidNode;
  for (const CostedEdge& e : arcs) {
    if (best != graph::kInvalidNode && e.from > best) continue;
    if (usable(e.cost) && dist_[e.from] <= dist_[v] &&
        dist_[e.from] + e.cost == dist_[v]) {
      best = e.from;
    }
  }
  return best;  // kInvalidNode: unreachable unless invariants are broken
}

OwnSpt::Update OwnSpt::apply(const View& view,
                             std::span<const LinkStateTable::Change> changes) {
  Update up;
  const auto usable_cost = [](std::optional<Cost> c) {
    return usable(c) ? *c : graph::kInfCost;
  };
  // The usable out-edges of u, as (tail, cost). `f` must not read arcs.
  std::vector<CostedEdge> arcs;
  const auto out_edges = [&](NodeId u, auto&& f) {
    arcs.clear();
    view.row(u, arcs);
    for (const CostedEdge& e : arcs) {
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
  for (const auto& c : changes) {
    const Cost was = usable_cost(c.before);
    const Cost now = usable_cost(c.after);
    if (now == was) continue;
    touched_tails.push_back(c.tail);
    if (now < was) {
      lowered.push_back({c.head, c.tail, now});
    } else if (parent_[c.tail] == c.head) {
      cut_roots.push_back(c.tail);
    }
  }
  if (touched_tails.empty()) return up;

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
      arcs.clear();
      view.into(a, arcs);
      for (const CostedEdge& e : arcs) {
        if (usable(e.cost) && in_region_[e.from] == 0 &&
            dist_[e.from] < graph::kInfCost) {
          const Cost d = dist_[e.from] + e.cost;
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
    const NodeId best = canonical_parent(view, v, arcs);
    if (best != parent_[v]) {
      up.parent_changed.emplace_back(v, parent_[v]);
      parent_[v] = best;
    }
  }
  return up;
}

void OwnSpt::rebuild(const LinkStateTable& table) {
  check_in_range(table, dist_.size(), "merged table");
  dist_ = graph::dijkstra(dist_.size(), table.edges(), root_).dist;
  std::fill(parent_.begin(), parent_.end(), graph::kInvalidNode);
  // Links ascend by head: the first tight one into a node is canonical.
  for (const CostedEdge& e : table.edges()) {
    const NodeId v = e.to;
    if (v == root_ || parent_[v] != graph::kInvalidNode || !usable(e.cost) ||
        dist_[v] >= graph::kInfCost) {
      continue;
    }
    if (dist_[e.from] <= dist_[v] && dist_[e.from] + e.cost == dist_[v]) {
      parent_[v] = e.from;
    }
  }
}

std::string OwnSpt::audit(const LinkStateTable& table) const {
  const auto ref = graph::dijkstra(dist_.size(), table.edges(), root_);
  return ref.dist != dist_ || ref.parent != parent_ ? "tree" : "";
}

std::size_t OwnSpt::memory_bytes() const {
  return capacity_bytes(dist_) + capacity_bytes(parent_) +
         capacity_bytes(recorded_) + capacity_bytes(in_region_) +
         capacity_bytes(cand_);
}

}  // namespace mdr::proto
