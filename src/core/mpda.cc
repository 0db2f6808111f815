#include "core/mpda.h"

#include <algorithm>
#include <cassert>

namespace mdr::core {

using graph::Cost;
using graph::NodeId;
using proto::LsuMessage;

MpdaProcess::MpdaProcess(NodeId self, std::size_t num_nodes,
                         proto::LsuSink& sink, LsuPacing pacing)
    : tables_(self, num_nodes),
      sink_(&sink),
      fd_(num_nodes, graph::kInfCost),
      successors_(num_nodes),
      successor_versions_(num_nodes, 0),
      succ_dirty_(num_nodes, 0),
      pacing_(pacing) {
  fd_[self] = 0;
  assert(!pacing_.enabled ||
         (pacing_.min_interval > 0 &&
          pacing_.max_interval >= pacing_.min_interval));
}

std::size_t MpdaProcess::acks_pending() const {
  std::size_t total = 0;
  for (const auto& [k, msgs] : unacked_) total += msgs.size();
  return total;
}

void MpdaProcess::retransmit_unacked() {
  for (auto& [k, msgs] : unacked_) {
    if (!tables_.is_neighbor(k)) continue;
    std::size_t sent = 0;
    for (auto& [seq, pending] : msgs) {
      if (pending.cooldown > 0) {
        --pending.cooldown;
        continue;
      }
      // Only actual sends consume window slots: a head-of-line message in
      // deep backoff must not starve ready newer LSUs behind it. Ready
      // messages past the window keep cooldown 0 and go first next tick
      // (oldest first, so the receiver's duplicate filter stays effective).
      if (sent == kRetransmitWindow) break;
      ++sent;
      LsuMessage copy = pending.msg;
      copy.ack = false;  // a stale piggybacked ack must not be replayed
      copy.ack_seq = 0;
      send(k, copy);
      ++lsus_retransmitted_;
      ++pending.attempts;
      pending.cooldown = std::min(
          pending.attempts < 6 ? (1u << pending.attempts) - 1 : ~0u,
          kRetransmitBackoffCap - 1);
    }
  }
}

void MpdaProcess::reset() {
  tables_ = proto::RouterTables(tables_.self(), fd_.size());
  mode_ = Mode::kPassive;
  next_seq_ = 1;
  unacked_.clear();
  last_seen_seq_.clear();
  full_sync_.clear();
  pace_.clear();  // a rebooted router has no memory of past instability
  std::fill(fd_.begin(), fd_.end(), graph::kInfCost);
  fd_[tables_.self()] = 0;
  succ_all_dirty_ = true;
  for (const NodeId j : succ_dirty_list_) succ_dirty_[j] = 0;
  succ_dirty_list_.clear();
  for (std::size_t j = 0; j < successors_.size(); ++j) {
    if (!successors_[j].empty()) {
      successors_[j].clear();
      ++successor_versions_[j];
    }
  }
  // messages_sent_ and the lsus_*/acks_sent_ breakdown are measurement
  // counters, not protocol state: they keep counting across incarnations so
  // run statistics stay conserved.
}

void MpdaProcess::send(NodeId k, const LsuMessage& msg) {
  sink_->send(k, msg);
  ++messages_sent_;
}

void MpdaProcess::on_link_up(NodeId k, Cost cost) {
  // The fresh adjacency announces its own cost; a change coalesced before
  // the link went down is obsolete.
  if (auto it = pace_.find(k); it != pace_.end()) {
    it->second.has_pending = false;
    it->second.pending_up = false;
  }
  obs::SpanEpisodeGuard span_guard;
  if (spans_ != nullptr) {
    spans_->begin_local_episode(self(), span_now());
    span_guard.r = spans_;
  }
  tables_.link_up(k, cost);
  succ_all_dirty_ = true;  // the successor-set universe itself changed
  full_sync_.insert(k);  // Fig. 2 step 2: owe k the full topology table
  after_ntu({});
  // If the flood above did not run (no change to T), the new neighbor still
  // needs the full topology; send it directly. The per-sequence ack window
  // keeps this safe alongside an outstanding flood.
  if (!full_sync_.contains(k)) return;
  auto full = tables_.main_topology().as_entries();
  if (!full.empty()) {
    full_sync_.erase(k);
    LsuMessage msg{self(), /*ack=*/false, std::move(full)};
    msg.seq = next_seq_++;
    unacked_[k][msg.seq] = Pending{msg};
    send(k, msg);
    ++lsus_originated_;
    probe_.emit(obs::EventType::kLsuOriginate, k, msg.seq,
                static_cast<double>(msg.entries.size()));
    if (spans_ != nullptr) spans_->on_send(self(), k, msg.seq, span_now());
    mode_ = Mode::kActive;
  }
}

void MpdaProcess::on_link_down(NodeId k) {
  // A cost change coalesced for a link that just died must never flush —
  // and a deferred re-announcement dies with it (the whole bounce never
  // reaches the wire).
  if (auto it = pace_.find(k); it != pace_.end()) {
    it->second.has_pending = false;
    it->second.pending_up = false;
  }
  obs::SpanEpisodeGuard span_guard;
  if (spans_ != nullptr) {
    spans_->begin_local_episode(self(), span_now());
    span_guard.r = spans_;
  }
  tables_.link_down(k);
  succ_all_dirty_ = true;  // the successor-set universe itself changed
  // Paper: "When a router detects that an adjacent link failed, any pending
  // ACKs from the neighbor at the other end of the link are treated as
  // received."
  unacked_.erase(k);
  last_seen_seq_.erase(k);
  full_sync_.erase(k);
  after_ntu({});
}

void MpdaProcess::on_link_cost_change(NodeId k, Cost cost) {
  obs::SpanEpisodeGuard span_guard;
  if (spans_ != nullptr) {
    spans_->begin_local_episode(self(), span_now());
    span_guard.r = spans_;
  }
  tables_.link_cost_change(k, cost);
  after_ntu({});
}

void MpdaProcess::on_link_cost_change_at(NodeId k, Cost cost, Time now) {
  if (!pacing_.enabled) {
    on_link_cost_change(k, cost);
    return;
  }
  auto [it, inserted] = pace_.try_emplace(k, Pace{pacing_.min_interval});
  Pace& p = it->second;
  if (p.has_pending && p.pending_up) {
    // The announcement itself is still deferred (possibly past its window,
    // awaiting the next tick): the new cost just rides along with it.
    p.pending = cost;
    ++lsus_suppressed_;
    return;
  }
  if (now >= p.next_allowed) {
    // Hold-down expired. If a whole extra interval passed quietly the link
    // has calmed down: snap the backoff to its floor before originating.
    if (now - p.next_allowed >= p.interval) p.interval = pacing_.min_interval;
    p.next_allowed = now + p.interval;
    on_link_cost_change(k, cost);
  } else {
    // Inside the hold-down: coalesce — only the latest cost survives. Each
    // swallowed event is one origination flood the network never saw.
    p.pending = cost;
    p.has_pending = true;
    ++lsus_suppressed_;
  }
}

void MpdaProcess::on_link_up_at(NodeId k, Cost cost, Time now) {
  if (!pacing_.enabled) {
    on_link_up(k, cost);
    return;
  }
  auto [it, inserted] = pace_.try_emplace(k, Pace{pacing_.min_interval});
  Pace& p = it->second;
  if (now >= p.next_allowed) {
    if (now - p.next_allowed >= p.interval) p.interval = pacing_.min_interval;
    p.next_allowed = now + p.interval;
    on_link_up(k, cost);
  } else {
    // Re-announcement inside the hold-down: the link just bounced. Defer
    // the up; if the link dies again before the window closes, on_link_down
    // cancels it and the whole bounce never reached the wire.
    p.pending = cost;
    p.has_pending = true;
    p.pending_up = true;
    ++lsus_suppressed_;
  }
}

void MpdaProcess::pacing_tick(Time now) {
  if (!pacing_.enabled) return;
  for (auto& [k, p] : pace_) {
    if (now < p.next_allowed || !p.has_pending) continue;
    p.has_pending = false;
    const bool was_up = p.pending_up;
    p.pending_up = false;
    // Trickle: a window that had to coalesce means the link is unstable —
    // lengthen the next hold-down (capped). The quiet-window snap-back
    // happens in on_link_cost_change_at when the next change arrives.
    p.interval = std::min(p.interval * 2, pacing_.max_interval);
    p.next_allowed = now + p.interval;
    if (was_up) {
      on_link_up(k, p.pending);
    } else if (tables_.is_neighbor(k)) {
      on_link_cost_change(k, p.pending);
    }
  }
}

void MpdaProcess::on_lsu(const LsuMessage& msg) {
  if (!tables_.is_neighbor(msg.sender)) return;  // raced with a link_down
  probe_.emit(obs::EventType::kLsuReceive, msg.sender, msg.seq,
              static_cast<double>(msg.entries.size()));
  NtuOutcome outcome;
  obs::SpanEpisodeGuard span_guard;
  if (msg.ack) {
    const auto it = unacked_.find(msg.sender);
    if (it != unacked_.end()) {
      it->second.erase(msg.ack_seq);
      if (it->second.empty()) unacked_.erase(it);
    }
  }
  if (!msg.entries.empty()) {
    auto& last_seen = last_seen_seq_[msg.sender];
    const bool fresh = msg.seq == 0 || msg.seq > last_seen;
    if (spans_ != nullptr) {
      // The processing episode is caused by the sender's (re-)origination
      // (sender, seq) — the edge that links causal trees across hops.
      spans_->begin_lsu_episode(self(), msg.sender, msg.seq, fresh,
                                /*ack=*/false, span_now());
      span_guard.r = spans_;
    }
    if (fresh) {
      // Fresh LSU: apply. (A retransmitted duplicate is skipped but still
      // acknowledged below — its previous ack evidently went missing.)
      last_seen = std::max(last_seen, msg.seq);
      obs::ProfScope prof(prof_, obs::ProfSection::kMpdaTableUpdate);
      for (const NodeId j : tables_.apply_lsu(msg.sender, msg.entries)) {
        mark_succ_dirty(j);  // D_j,sender moved: S_j needs re-evaluation
      }
    }
    outcome.ack_to = msg.sender;  // Fig. 4 steps 7-8: must acknowledge
    outcome.ack_seq = msg.seq;
  } else if (spans_ != nullptr && msg.ack) {
    // Pure ack: attach to the tree of OUR origination it acknowledges
    // ((self, ack_seq) is the send that started the round trip).
    spans_->begin_lsu_episode(self(), self(), msg.ack_seq, /*applied=*/false,
                              /*ack=*/true, span_now());
    span_guard.r = spans_;
  }
  after_ntu(outcome);
}

void MpdaProcess::after_ntu(const NtuOutcome& outcome) {
  std::vector<proto::LsuEntry> changes;
  if (mode_ == Mode::kPassive) {
    // Fig. 4 step 2: update T and lower the feasible distances. While
    // PASSIVE every earlier MTU already took min(FD_j, D_j), so FD_j can
    // only move where D_j just did — the scan is restricted to those.
    obs::ProfScope prof(prof_, obs::ProfSection::kMpdaTableUpdate);
    changes = tables_.mtu();
    for (const NodeId j : tables_.last_mtu_dist_changed()) {
      const Cost prev = fd_[j];
      fd_[j] = std::min(fd_[j], tables_.distance(j));
      if (fd_[j] != prev) {
        mark_succ_dirty(j);
        if (probe_.enabled()) {
          probe_.emit(obs::EventType::kFdChange, j, fd_[j], prev);
        }
      }
    }
  } else if (unacked_.empty()) {
    // Fig. 4 step 3: the last ACK arrived (or the last blocking neighbor
    // failed). D before the deferred MTU is what every neighbor has
    // acknowledged; FD may rise to min(pre, post).
    obs::ProfScope prof(prof_, obs::ProfSection::kMpdaTableUpdate);
    std::vector<Cost> temp(fd_.size());
    for (std::size_t j = 0; j < temp.size(); ++j) {
      temp[j] = tables_.distance(static_cast<NodeId>(j));
    }
    mode_ = Mode::kPassive;
    changes = tables_.mtu();
    // FD may RISE here, so the passive-mode "only where D_j moved"
    // restriction does not apply: every destination is re-evaluated.
    for (std::size_t j = 0; j < fd_.size(); ++j) {
      const Cost prev = fd_[j];
      fd_[j] = std::min(temp[j], tables_.distance(static_cast<NodeId>(j)));
      if (fd_[j] != prev) {
        mark_succ_dirty(static_cast<NodeId>(j));
        if (probe_.enabled()) {
          probe_.emit(obs::EventType::kFdChange, static_cast<NodeId>(j),
                      fd_[j], prev);
        }
      }
    }
  }
  // While ACTIVE with outstanding ACKs: NTU already refreshed T_k and D_jk;
  // T, D and FD stay frozen (the deferred update).

  recompute_successors();  // Fig. 4 step 4

  if (!changes.empty()) {
    // Fig. 4 steps 5-6: flood the diff, await everyone's ACK.
    obs::ProfScope prof(prof_, obs::ProfSection::kMpdaFlood);
    mode_ = Mode::kActive;
    for (const NodeId k : tables_.neighbors()) {
      // A just-attached neighbor gets the whole table, not the diff.
      LsuMessage msg{self(), k == outcome.ack_to,
                     full_sync_.erase(k) > 0
                         ? tables_.main_topology().as_entries()
                         : changes};
      msg.ack_seq = msg.ack ? outcome.ack_seq : 0;
      msg.seq = next_seq_++;
      unacked_[k][msg.seq] = Pending{msg};
      send(k, msg);
      ++lsus_originated_;
      probe_.emit(obs::EventType::kLsuOriginate, k, msg.seq,
                  static_cast<double>(msg.entries.size()));
      if (spans_ != nullptr) spans_->on_send(self(), k, msg.seq, span_now());
    }
  } else if (outcome.ack_to != graph::kInvalidNode &&
             tables_.is_neighbor(outcome.ack_to)) {
    // Nothing to report but the received LSU must still be acknowledged.
    LsuMessage msg{self(), /*ack=*/true, {}};
    msg.ack_seq = outcome.ack_seq;
    send(outcome.ack_to, msg);
    ++acks_sent_;
  }
}

void MpdaProcess::mark_succ_dirty(NodeId j) {
  if (succ_all_dirty_) return;
  if (j < 0 || static_cast<std::size_t>(j) >= succ_dirty_.size()) return;
  if (succ_dirty_[j] == 0) {
    succ_dirty_[j] = 1;
    succ_dirty_list_.push_back(j);
  }
}

void MpdaProcess::recompute_successors() {
  obs::ProfScope prof(prof_, obs::ProfSection::kMpdaRecompute);
  // S_j can only change where an input did: some D_jk (marked from
  // apply_lsu's repair delta), FD_j (marked by the FD loops), or the
  // neighbor set itself (succ_all_dirty_). Unmarked destinations are
  // skipped — their set comparison could never differ.
  struct View {
    NodeId k;
    const std::vector<graph::Cost>* dist;
  };
  std::vector<View> views;
  views.reserve(tables_.neighbors().size());
  for (const NodeId k : tables_.neighbors()) {
    if (const auto* d = tables_.distances_via(k)) views.push_back(View{k, d});
  }
  std::vector<NodeId> next;
  const auto eval = [&](NodeId j) {
    if (j == self()) return;
    next.clear();
    for (const View& v : views) {
      // Eq. 17: neighbors strictly below the feasible distance.
      if ((*v.dist)[j] < fd_[j]) next.push_back(v.k);
    }
    if (next != successors_[j]) {
      successors_[j] = next;
      ++successor_versions_[j];
      probe_.emit(obs::EventType::kSuccessorChange, j,
                  static_cast<double>(next.size()), fd_[j]);
      if (spans_ != nullptr) spans_->on_successor_change(self(), j, span_now());
    }
  };
  if (succ_all_dirty_) {
    for (NodeId j = 0; j < static_cast<NodeId>(fd_.size()); ++j) eval(j);
    succ_all_dirty_ = false;
  } else {
    // Ascending, so probe/span emission order matches a full scan.
    std::sort(succ_dirty_list_.begin(), succ_dirty_list_.end());
    for (const NodeId j : succ_dirty_list_) eval(j);
  }
  for (const NodeId j : succ_dirty_list_) succ_dirty_[j] = 0;
  succ_dirty_list_.clear();
}

}  // namespace mdr::core
