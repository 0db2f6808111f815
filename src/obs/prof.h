// Wall-clock profiler: sampling-free scoped timers over a fixed set of
// named subsystem sections, attributing host time (monotonic clock) to the
// event-dispatch loop, protocol phases, allocation heuristics, the link
// packet path, checkpointing and the parallel engine.
//
// Design mirrors the telemetry probes (obs/trace.h): every instrument point
// holds a raw Profiler* and takes exactly one predictable branch when
// profiling is off, so a default run stays byte-identical to the seed. Each
// Profiler instance is single-threaded (one per shard, plus one for the
// coordinator); reports are merged post-run like MetricRegistry.
//
// Two levels. A clock read costs tens of nanoseconds on virtualized hosts
// — the same order as dispatching one simulation event — so timing every
// per-event section would distort exactly the thing being measured. At the
// default level the per-event hot sections (dispatch.*, link.*) are counted
// exactly but not timed; their wall time is captured by the enclosing
// engine.busy umbrella scope, which opens once per engine slice/window.
// Everything else (protocol phases, allocation, checkpointing, build,
// report) occurs orders of magnitude less often and carries full timers.
// Deep mode (`prof deep=1`) times every section for per-event attribution
// and self-reports its larger overhead.
//
// Counts are functions of the event sequence and therefore same-seed
// deterministic; nanosecond fields are host time and vary run to run. The
// exporters keep the two segregated (docs/OBSERVABILITY.md).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mdr::obs {

/// Every profiled subsystem. Names (prof_section_name) use dotted paths so
/// the summary table and trace tracks group visually by subsystem.
enum class ProfSection : std::uint8_t {
  kDispatchCallback = 0,  ///< event core: scheduled callback records
  kDispatchTransmit,      ///< event core: link transmit-complete records
  kDispatchDeliver,       ///< event core: packet delivery records
  kDispatchSource,        ///< event core: traffic source emissions
  kDispatchTimer,         ///< event core: node protocol timers
  kMpdaDecode,            ///< LSU payload decode + validation (SimNode)
  kMpdaTableUpdate,       ///< distance-table update (apply_lsu + FD scan)
  kMpdaRecompute,         ///< successor-set recompute (Eq. 17 sweep)
  kMpdaFlood,             ///< flood-out: per-neighbor LSU (re-)origination
  kAllocIh,               ///< initial heuristic allocation (MpRouter)
  kAllocAh,               ///< adjustment heuristic allocation (MpRouter)
  kLinkEnqueue,           ///< SimLink admission + service start
  kLinkDeliver,           ///< SimLink delivery hand-up to the receiver
  kCkptSave,              ///< checkpoint serialization + atomic write
  kCkptLoad,              ///< checkpoint restore
  kEngineBusy,            ///< parallel engine: shard advancing its queue
  kEngineStall,           ///< parallel engine: parked at the window barrier
  kEngineHandoff,         ///< parallel engine: coordinator draining rings
  kSimBuild,              ///< NetworkSim::build (topology -> entities)
  kSimReport,             ///< result assembly after the run drains
};

inline constexpr std::size_t kNumProfSections = 20;

const char* prof_section_name(ProfSection s);

constexpr std::uint64_t prof_bit(ProfSection s) {
  return std::uint64_t{1} << static_cast<unsigned>(s);
}

/// All sections carry timers (deep profiling).
inline constexpr std::uint64_t kProfTimeAll =
    (std::uint64_t{1} << kNumProfSections) - 1;

/// Per-event hot path: fires once or more per simulated event, where a
/// single clock read rivals the cost of the work itself. Count-only at the
/// default level; the enclosing kEngineBusy scope carries their wall time.
inline constexpr std::uint64_t kProfHotSections =
    prof_bit(ProfSection::kDispatchCallback) |
    prof_bit(ProfSection::kDispatchTransmit) |
    prof_bit(ProfSection::kDispatchDeliver) |
    prof_bit(ProfSection::kDispatchSource) |
    prof_bit(ProfSection::kDispatchTimer) |
    prof_bit(ProfSection::kLinkEnqueue) | prof_bit(ProfSection::kLinkDeliver);

/// Default level: everything timed except the per-event hot sections.
inline constexpr std::uint64_t kProfTimeDefault =
    kProfTimeAll & ~kProfHotSections;

/// Accumulated cost of one section on one track: invocation count, wall
/// time including children (total) and excluding children (self).
struct ProfStats {
  std::uint64_t count = 0;     ///< deterministic at fixed seed
  std::uint64_t total_ns = 0;  ///< host time, varies run to run
  std::uint64_t self_ns = 0;   ///< host time, varies run to run
};

/// One single-threaded profiling context. Scopes nest: a frame stack
/// carries child time up so self = total - children without any lookups on
/// the hot path. Timed enter/exit costs two clock reads plus arithmetic; a
/// count-only hit (sections outside `timed_mask`) is one mask test and an
/// increment. The constructor calibrates the clock so the overhead can be
/// self-reported.
class Profiler {
 public:
  explicit Profiler(std::uint64_t timed_mask = kProfTimeAll);

  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Whether a scope on `s` carries timers (vs count-only).
  bool timed(ProfSection s) const {
    return (timed_mask_ >> static_cast<unsigned>(s)) & 1;
  }

  void enter(ProfSection s) {
    frames_.push_back(Frame{now_ns(), 0, s});
  }

  /// Count-only hit: records the invocation without touching the clock or
  /// the frame stack. Used for hot sections outside the timed mask.
  void count(ProfSection s) {
    ++stats_[static_cast<std::size_t>(s)].count;
    ++counted_;
  }

  void exit() {
    const Frame f = frames_.back();
    frames_.pop_back();
    const std::uint64_t elapsed = now_ns() - f.start_ns;
    ProfStats& st = stats_[static_cast<std::size_t>(f.section)];
    ++st.count;
    st.total_ns += elapsed;
    st.self_ns += elapsed >= f.child_ns ? elapsed - f.child_ns : 0;
    if (!frames_.empty()) frames_.back().child_ns += elapsed;
    ++scopes_;
  }

  const std::array<ProfStats, kNumProfSections>& sections() const {
    return stats_;
  }
  /// Total timed enter/exit pairs closed so far (drives the overhead
  /// estimate: two clock reads each).
  std::uint64_t scopes() const { return scopes_; }
  /// Total count-only hits so far.
  std::uint64_t counted() const { return counted_; }
  /// Measured cost of one steady_clock read on this host, in ns.
  double clock_cost_ns() const { return clock_cost_ns_; }

 private:
  struct Frame {
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
    ProfSection section{};
  };
  std::array<ProfStats, kNumProfSections> stats_{};
  std::vector<Frame> frames_;
  std::uint64_t timed_mask_ = kProfTimeAll;
  std::uint64_t scopes_ = 0;
  std::uint64_t counted_ = 0;
  double clock_cost_ns_ = 0;
};

/// RAII scope around one instrument point. `p == nullptr` (profiling off)
/// costs a single branch at entry and exit — the Probe fast-path contract.
/// With profiling on, sections outside the profiler's timed mask degrade to
/// an exact count with no clock reads.
class ProfScope {
 public:
  ProfScope(Profiler* p, ProfSection s) {
    if (p != nullptr) {
      if (p->timed(s)) {
        p->enter(s);
        timed_ = p;
      } else {
        p->count(s);
      }
    }
  }
  ~ProfScope() {
    if (timed_ != nullptr) timed_->exit();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* timed_ = nullptr;  ///< non-null iff enter() was called
};

/// The mergeable, exportable form of a profiling run: one Track per
/// Profiler instance ("shard0".."shardN-1", then "coord") plus
/// engine-level window statistics. Merging (across runner jobs) is
/// label-wise elementwise addition in job order, like MetricRegistry.
struct ProfReport {
  struct Track {
    std::string label;
    std::array<ProfStats, kNumProfSections> sections{};
  };
  std::vector<Track> tracks;

  // --- engine window statistics -----------------------------------------
  std::uint64_t windows = 0;  ///< barriers with at least one busy shard
  std::uint64_t window_max_busy_ns = 0;   ///< sum over windows of max busy
  std::uint64_t window_mean_busy_ns = 0;  ///< sum over windows of mean busy
  int shards = 0;  ///< max shard count across merged runs (>= 1 once run)

  // --- self-accounting --------------------------------------------------
  std::uint64_t scopes = 0;   ///< timed scope count across all tracks
  std::uint64_t counted = 0;  ///< count-only hits across all tracks
  double clock_cost_ns = 0;   ///< max calibrated clock cost
  std::uint64_t wall_ns = 0;  ///< run() wall time, summed when merged
  std::uint64_t runs = 1;     ///< merged run count

  /// Nominal cost of one count-only hit (mask test + increments); dwarfed
  /// by clock reads whenever any timed scope is on the same path.
  static constexpr double kCountCostNs = 1.5;

  /// Estimated profiler overhead: two clock reads per timed scope plus the
  /// count-only fast path.
  double overhead_est_ns() const {
    return 2.0 * clock_cost_ns * scopes + kCountCostNs * counted;
  }
  /// Per-window shard imbalance, max/mean busy (1 = perfectly balanced).
  double imbalance() const {
    return window_mean_busy_ns > 0
               ? static_cast<double>(window_max_busy_ns) /
                     static_cast<double>(window_mean_busy_ns)
               : 0.0;
  }
  /// Sum of a section's stat over every track.
  ProfStats total(ProfSection s) const;
  /// Wall-clock fraction attributed to named sections: top-level self time
  /// (self of sections that are roots of the instrumented call tree) over
  /// wall_ns. Used by the acceptance gate (>= 90% on waxman_scale).
  double attributed_fraction() const;

  /// Elementwise merge (tracks matched by label; unmatched appended in the
  /// other report's order) — deterministic for any worker count when
  /// applied in job order.
  void merge(const ProfReport& other);

  /// Appends the report as one JSON object (no trailing newline). Counts
  /// first, host-time fields grouped under "host_ns" keys so tooling can
  /// diff around them.
  void append_json(std::string& out) const;

  /// Human-readable per-section self/total table (mdrsim stderr summary).
  std::string summary_table() const;
};

}  // namespace mdr::obs
