#include "proto/tables.h"

#include <algorithm>
#include <cassert>
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
  std::vector<LsuEntry> kept;
  for (const LsuEntry& e : entries) {
    if (e.head >= 0 && e.head < n && e.tail >= 0 && e.tail < n &&
        e.head != e.tail) {
      kept.push_back(e);
    }
  }
  Update up;
  up.links = topo_.apply_batch(kept);
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
  const auto n = static_cast<NodeId>(dist_.size());
  for (const CostedEdge& e : topo_.edges()) {
    if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n || e.from == e.to) {
      throw ckpt::Error("neighbor table link outside the node range");
    }
  }
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

}  // namespace mdr::proto
