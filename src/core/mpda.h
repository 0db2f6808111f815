// MPDA — the Multiple-path Partial-topology Dissemination Algorithm
// (paper Fig. 4), the first link-state routing algorithm that provides
// multiple paths of unequal cost to each destination that are loop-free at
// every instant.
//
// MPDA runs PDA's NTU/MTU machinery but synchronizes LSU exchanges with
// single-hop acknowledgments: a router that floods an LSU enters ACTIVE
// state and defers further main-table updates until every neighbor has
// acknowledged. Feasible distances FD_j bridge the inconsistency window:
//
//   * while PASSIVE, every MTU lowers FD_j to min(FD_j, D_j);
//   * at an ACTIVE->PASSIVE transition, FD_j := min(D_j before the deferred
//     MTU, D_j after) — the pre-MTU value is exactly what all neighbors have
//     acknowledged, so FD_j never exceeds what any neighbor believes.
//
// Successor sets S_j = { k : D_jk < FD_j } (the LFI condition, Eq. 17) are
// refreshed on every event and are loop-free at every instant
// (paper Theorem 3); distances still converge to shortest paths
// (paper Theorem 4).
//
// Transport model: the paper assumes a reliable, in-order neighbor
// protocol. MPDA here additionally sequence-numbers every entries-LSU and
// keeps a per-neighbor retransmission buffer (retransmit_unacked()), so the
// synchronization also survives transports that can lose messages — LSUs
// dropped during adjacency races (a neighbor that has not yet detected us
// ignores our LSU without acking) or silent link failures are simply
// resent; receivers filter duplicates by sequence number and re-ack.
// proto/hello.h provides the matching adjacency/failure-detection layer.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "graph/topology.h"
#include "obs/prof.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "proto/lsu.h"
#include "proto/pda.h"
#include "util/time.h"

namespace mdr::core {

/// LSU origination pacing: a per-link MinLSInterval-style hold-down with
/// Trickle-like adaptive backoff. While a link's hold-down is open,
/// back-to-back long-term cost changes for it are coalesced — only the
/// latest cost is applied (and flooded) when the window expires. A window
/// that had to coalesce doubles the next hold-down (up to `max_interval`);
/// a window that stayed quiet snaps it back to `min_interval`. Deferring
/// the *whole* cost-change event (not just its flood) is what keeps MPDA's
/// invariants intact: to the protocol a paced change is simply a cost that
/// changed a little later.
///
/// The hold-down also paces link *re-announcements* (the BGP-MRAI /
/// OSPF-MinLSInterval asymmetry): an up arriving inside the window is
/// deferred, and a down meanwhile cancels it, collapsing a whole bounce to
/// nothing on the wire. Withdrawals (on_link_down) are never paced — bad
/// news must flood immediately.
struct LsuPacing {
  bool enabled = false;
  Duration min_interval = 1.0;  ///< hold-down after an origination (s)
  Duration max_interval = 8.0;  ///< backoff ceiling while unstable (s)
};

class MpdaProcess final : public proto::RoutingProcess {
 public:
  enum class Mode { kPassive, kActive };

  MpdaProcess(graph::NodeId self, std::size_t num_nodes, proto::LsuSink& sink,
              LsuPacing pacing = {});

  // --- protocol events -----------------------------------------------------

  void on_link_up(graph::NodeId k, graph::Cost cost) override;
  void on_link_down(graph::NodeId k) override;
  void on_link_cost_change(graph::NodeId k, graph::Cost cost) override;
  void on_lsu(const proto::LsuMessage& msg) override;

  /// Clock-aware cost change: applies immediately when pacing is off or the
  /// link's hold-down has expired, otherwise coalesces into the pending slot
  /// for pacing_tick() to flush. The un-timed override above is equivalent
  /// to `now = 0` (pacing effectively bypassed), preserving every existing
  /// call site bit-for-bit.
  void on_link_cost_change_at(graph::NodeId k, graph::Cost cost, Time now);

  /// Clock-aware link up: immediate when pacing is off or the link's
  /// hold-down has expired, otherwise the announcement is deferred until
  /// pacing_tick() — and silently dropped if the link goes back down first.
  void on_link_up_at(graph::NodeId k, graph::Cost cost, Time now);

  /// Flushes expired hold-downs (flooding the coalesced cost) and performs
  /// Trickle bookkeeping: double the interval after a busy window, snap back
  /// to min_interval after a quiet one. Drive from a periodic timer of
  /// roughly `min_interval` when pacing is enabled; no-op otherwise.
  void pacing_tick(Time now);

  // --- routing state -------------------------------------------------------

  /// S_j: successor set toward `dest`, ascending neighbor ids.
  const std::vector<graph::NodeId>& successors(graph::NodeId dest) const {
    return successors_[dest];
  }

  /// Bumped whenever S_dest changes; lets the flow-allocation layer detect
  /// "successor set recomputed" (paper: re-run IH) without diffing.
  std::uint64_t successor_version(graph::NodeId dest) const {
    return successor_versions_[dest];
  }

  graph::Cost feasible_distance(graph::NodeId dest) const { return fd_[dest]; }
  graph::Cost distance(graph::NodeId dest) const {
    return tables_.distance(dest);
  }
  graph::Cost distance_via(graph::NodeId dest, graph::NodeId k) const {
    return tables_.distance_via(dest, k);
  }

  Mode mode() const { return mode_; }
  bool passive() const { return mode_ == Mode::kPassive; }

  /// Resends unacknowledged entries-LSUs (reliable flooding). Drive this
  /// from a periodic timer when the transport can lose messages (silent
  /// link failures, adjacency races); it is a no-op when nothing is
  /// outstanding. Duplicates are detected by sequence number at the
  /// receiver and re-acknowledged without reprocessing.
  ///
  /// Two throttles bound the retransmission traffic on badly lossy links:
  /// per neighbor at most `kRetransmitWindow` LSUs are resent per tick
  /// (oldest ready first — in-order resend keeps the receiver's duplicate
  /// filter effective; only actual sends consume window slots, so a
  /// head-of-line LSU in deep backoff cannot starve ready ones behind it),
  /// and each LSU backs off exponentially (resent on the 1st, 2nd, 4th,
  /// 8th, ... eligible tick after first transmission, capped at
  /// kRetransmitBackoffCap).
  void retransmit_unacked();

  /// The router crashed and rebooted: discard ALL protocol state — topology
  /// tables, feasible distances, sequence numbers, retransmission buffers,
  /// successor sets — as a real restart would. Successor versions are
  /// bumped (not zeroed) so downstream consumers observe the wipe. The host
  /// re-announces adjacencies afterwards via on_link_up().
  void reset();

  const proto::RouterTables& tables() const { return tables_; }
  graph::NodeId self() const { return tables_.self(); }

  std::size_t messages_sent() const { return messages_sent_; }
  std::size_t acks_pending() const;

  // --- control-overhead breakdown (measurement counters; like
  // messages_sent_ they survive reset() so run statistics stay conserved) --

  /// First-transmission entries-LSUs (floods + full syncs).
  std::uint64_t lsus_originated() const { return lsus_originated_; }
  /// Resends out of the retransmission buffer.
  std::uint64_t lsus_retransmitted() const { return lsus_retransmitted_; }
  /// Cost-change events coalesced away by pacing (each would have been an
  /// origination flood without the hold-down).
  std::uint64_t lsus_suppressed() const { return lsus_suppressed_; }
  /// Pure ack messages (no entries payload).
  std::uint64_t acks_sent() const { return acks_sent_; }

  const LsuPacing& pacing() const { return pacing_; }

  /// Attaches a flight-recorder probe (LSU originate/receive, FD and
  /// successor-set changes). Disabled by default; one branch per event when
  /// off, so default runs are unaffected.
  void set_probe(const obs::Probe& probe) { probe_ = probe; }

  /// Attaches the wall-clock profiler (table update / successor recompute /
  /// flood-out sections). Null (default) = off, one branch per scope.
  void set_prof(obs::Profiler* p) { prof_ = p; }

  /// Attaches the convergence span recorder; `clock` supplies sim time
  /// (EventQueue::now_ptr). Every protocol entry point then opens a
  /// processing episode and records sends / successor changes into it.
  void set_spans(obs::SpanRecorder* s, const Time* clock) {
    spans_ = s;
    span_clock_ = clock;
  }

  /// Oldest outstanding LSUs eligible for retransmission, per neighbor.
  static constexpr std::size_t kRetransmitWindow = 8;
  /// Maximum gap (in retransmit ticks) between successive resends.
  static constexpr std::uint32_t kRetransmitBackoffCap = 32;

  /// Checkpoints the complete protocol state (tables, mode, sequence
  /// numbers, retransmission buffers, FD/successor state, pacing windows and
  /// the measurement counters). Buffered LsuMessages reuse the wire codec
  /// (proto::encode/decode), so the format has one source of truth.
  void save(ckpt::Writer& w) const {
    tables_.save(w);
    w.u8(static_cast<std::uint8_t>(mode_));
    w.u32(next_seq_);
    w.u64(unacked_.size());
    for (const auto& [k, by_seq] : unacked_) {
      w.i64(k);
      w.u64(by_seq.size());
      for (const auto& [seq, pending] : by_seq) {
        w.u32(seq);
        w.bytes(proto::encode(pending.msg));
        w.u32(pending.attempts);
        w.u32(pending.cooldown);
      }
    }
    w.u64(last_seen_seq_.size());
    for (const auto& [k, seq] : last_seen_seq_) {
      w.i64(k);
      w.u32(seq);
    }
    w.u64(full_sync_.size());
    for (graph::NodeId k : full_sync_) w.i64(k);
    w.u64(fd_.size());
    for (graph::Cost c : fd_) w.f64(c);
    w.u64(successors_.size());
    for (const auto& succ : successors_) {
      w.u64(succ.size());
      for (graph::NodeId k : succ) w.i64(k);
    }
    w.u64(successor_versions_.size());
    for (std::uint64_t v : successor_versions_) w.u64(v);
    w.u64(messages_sent_);
    w.u64(pace_.size());
    for (const auto& [k, pace] : pace_) {
      w.i64(k);
      w.f64(pace.interval);
      w.f64(pace.next_allowed);
      w.b(pace.has_pending);
      w.b(pace.pending_up);
      w.f64(pace.pending);
    }
    w.u64(lsus_originated_);
    w.u64(lsus_retransmitted_);
    w.u64(lsus_suppressed_);
    w.u64(acks_sent_);
  }
  void load(ckpt::Reader& r) {
    tables_.load(r);
    mode_ = static_cast<Mode>(r.u8());
    next_seq_ = r.u32();
    unacked_.clear();
    std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto k = static_cast<graph::NodeId>(r.i64());
      auto& by_seq = unacked_[k];
      const std::uint64_t m = r.u64();
      for (std::uint64_t j = 0; j < m; ++j) {
        const std::uint32_t seq = r.u32();
        Pending& pending = by_seq[seq];
        auto msg = proto::decode(r.bytes());
        if (!msg) throw ckpt::Error("bad buffered LSU in checkpoint");
        pending.msg = std::move(*msg);
        pending.attempts = r.u32();
        pending.cooldown = r.u32();
      }
    }
    last_seen_seq_.clear();
    n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto k = static_cast<graph::NodeId>(r.i64());
      last_seen_seq_[k] = r.u32();
    }
    full_sync_.clear();
    n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      full_sync_.insert(static_cast<graph::NodeId>(r.i64()));
    }
    const std::size_t num_nodes = tables_.num_nodes();
    r.expect_size(num_nodes, "feasible-distance vector");
    for (graph::Cost& c : fd_) c = r.f64();
    r.expect_size(num_nodes, "successor sets");
    for (auto& succ : successors_) {
      // Successors are neighbors: bound the count before allocating.
      const std::uint64_t size = r.u64();
      if (size > tables_.neighbors().size()) {
        throw ckpt::Error("successor set larger than the neighbor set");
      }
      succ.resize(size);
      for (graph::NodeId& k : succ) {
        k = static_cast<graph::NodeId>(r.i64());
        if (!tables_.is_neighbor(k)) {
          throw ckpt::Error("successor that is no neighbor");
        }
      }
    }
    r.expect_size(num_nodes, "successor versions");
    for (std::uint64_t& v : successor_versions_) v = r.u64();
    messages_sent_ = r.u64();
    pace_.clear();
    n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto k = static_cast<graph::NodeId>(r.i64());
      Pace& pace = pace_[k];
      pace.interval = r.f64();
      pace.next_allowed = r.f64();
      pace.has_pending = r.b();
      pace.pending_up = r.b();
      pace.pending = r.f64();
    }
    lsus_originated_ = r.u64();
    lsus_retransmitted_ = r.u64();
    lsus_suppressed_ = r.u64();
    acks_sent_ = r.u64();
    // Successor-dirty marks are always fully consumed by the
    // recompute_successors() at the end of the event that made them, and
    // checkpoints land between events — so there is never anything to
    // restore. The loaded successor sets are consistent with the loaded
    // tables/FD by the same argument.
    succ_all_dirty_ = false;
    succ_dirty_.assign(fd_.size(), 0);
    succ_dirty_list_.clear();
  }

 private:
  struct NtuOutcome {
    graph::NodeId ack_to = graph::kInvalidNode;  // entries-LSU to acknowledge
    std::uint32_t ack_seq = 0;                   // its sequence number
  };

  /// One entry of the retransmission buffer.
  struct Pending {
    proto::LsuMessage msg;
    std::uint32_t attempts = 0;  ///< resends so far
    std::uint32_t cooldown = 0;  ///< eligible ticks to skip before resending
  };

  /// Per-link pacing state (exists only while pacing is enabled).
  struct Pace {
    Duration interval;         ///< current hold-down length
    Time next_allowed = 0;     ///< hold-down open until this instant
    bool has_pending = false;  ///< a coalesced change awaits flushing
    bool pending_up = false;   ///< the pending event is an announcement
    graph::Cost pending = 0;   ///< latest coalesced cost
  };

  // Fig. 4 steps 2-8, shared by every event type.
  void after_ntu(const NtuOutcome& outcome);
  void recompute_successors();
  void mark_succ_dirty(graph::NodeId j);
  void send(graph::NodeId k, const proto::LsuMessage& msg);
  Time span_now() const { return span_clock_ != nullptr ? *span_clock_ : 0; }

  proto::RouterTables tables_;
  proto::LsuSink* sink_;
  Mode mode_ = Mode::kPassive;
  std::uint32_t next_seq_ = 1;
  /// Entries-LSUs sent but not yet acknowledged, per neighbor and sequence
  /// number; the retransmission buffer of reliable flooding.
  std::map<graph::NodeId, std::map<std::uint32_t, Pending>> unacked_;
  /// Highest entries-LSU sequence number seen per neighbor (duplicate filter).
  std::map<graph::NodeId, std::uint32_t> last_seen_seq_;
  std::set<graph::NodeId> full_sync_;  // new neighbors owed the full topology
  std::vector<graph::Cost> fd_;
  std::vector<std::vector<graph::NodeId>> successors_;
  std::vector<std::uint64_t> successor_versions_;
  /// Destinations whose S_j inputs (D_jk, FD_j) moved since the last
  /// recompute; succ_all_dirty_ covers neighbor-set changes.
  std::vector<std::uint8_t> succ_dirty_;
  std::vector<graph::NodeId> succ_dirty_list_;
  bool succ_all_dirty_ = true;
  std::size_t messages_sent_ = 0;
  LsuPacing pacing_;
  std::map<graph::NodeId, Pace> pace_;
  std::uint64_t lsus_originated_ = 0;
  std::uint64_t lsus_retransmitted_ = 0;
  std::uint64_t lsus_suppressed_ = 0;
  std::uint64_t acks_sent_ = 0;
  obs::Probe probe_;
  obs::Profiler* prof_ = nullptr;
  obs::SpanRecorder* spans_ = nullptr;
  const Time* span_clock_ = nullptr;
};

}  // namespace mdr::core
