#include "runner/experiment_runner.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include <sys/resource.h>

#include "runner/pool.h"
#include "sim/experiment.h"

namespace mdr::runner {

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index) {
  // SplitMix64 over the pair: absorb the index into the base, then run two
  // finalization rounds. Avalanches every input bit, so neighbouring job
  // indices land in unrelated regions of the seed space.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (job_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

ExperimentRunner::ExperimentRunner(Options options)
    : options_(std::move(options)) {}

namespace {

// Per-job watchdog slot. `deadline` is a steady-clock timestamp in
// milliseconds; kUnarmed means the job is not running an attempt. The
// watchdog thread only ever flips `cancel` to true; the owning job resets
// both between attempts.
struct JobWatch {
  static constexpr std::int64_t kUnarmed =
      std::numeric_limits<std::int64_t>::max();
  std::atomic<bool> cancel{false};
  std::atomic<std::int64_t> deadline_ms{kUnarmed};
};

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string marker_path(const std::string& dir, std::size_t job_index) {
  return dir + "/job" + std::to_string(job_index) + ".done";
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

}  // namespace

std::vector<sim::SimResult> ExperimentRunner::run(
    const std::vector<Job>& jobs, std::vector<JobOutcome>* outcomes_out) {
  std::vector<sim::SimResult> results(jobs.size());
  std::vector<JobOutcome> outcomes(jobs.size());

  // One watchdog thread polls every running job's deadline and cancels
  // overruns cooperatively (the sim checks SimConfig::cancel at its safe
  // boundaries). Polling at 20 ms keeps the timeout resolution far below
  // any sensible job budget without per-job timer threads.
  std::vector<std::unique_ptr<JobWatch>> watches;
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog;
  const bool timed = options_.job_timeout_s > 0;
  if (timed) {
    watches.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      watches.push_back(std::make_unique<JobWatch>());
    }
    watchdog = std::thread([&watches, &watchdog_stop] {
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        const std::int64_t now = steady_now_ms();
        for (const auto& w : watches) {
          if (now >= w->deadline_ms.load(std::memory_order_acquire)) {
            w->cancel.store(true, std::memory_order_release);
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  const auto run_fn =
      options_.run_fn
          ? options_.run_fn
          : [](const sim::ExperimentSpec& spec, const std::string& mode) {
              return sim::run_experiment(spec, mode);
            };
  const int max_attempts = std::max(1, options_.max_attempts);

  {
    Pool pool(options_.jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Job* job = &jobs[i];
      sim::SimResult* slot = &results[i];
      JobOutcome* outcome = &outcomes[i];
      JobWatch* watch = timed ? watches[i].get() : nullptr;
      const std::uint64_t seed = derive_seed(options_.base_seed, i);
      pool.submit([this, job, slot, outcome, watch, seed, i, max_attempts,
                   &run_fn] {
        // Batch resume: a marker from a previous (interrupted) batch means
        // this job already completed — skip it and leave the default
        // SimResult, which the aggregation stages ignore.
        if (!options_.result_dir.empty() &&
            file_exists(marker_path(options_.result_dir, i))) {
          outcome->status = "cached";
          return;
        }
        // Host cost of the whole job — every attempt plus backoff — billed
        // on exit whichever way the job ends.
        const auto job_start = std::chrono::steady_clock::now();
        const auto bill_host = [outcome, job_start] {
          outcome->wall_clock_s = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() -
                                      job_start)
                                      .count();
          outcome->peak_rss_bytes = peak_rss_bytes();
        };
        for (int attempt = 1; attempt <= max_attempts; ++attempt) {
          outcome->attempts = attempt;
          try {
            sim::ExperimentSpec spec = job->spec;
            spec.config.seed = seed;  // same derived seed on every attempt
            if (watch != nullptr) {
              watch->cancel.store(false, std::memory_order_release);
              watch->deadline_ms.store(
                  steady_now_ms() +
                      static_cast<std::int64_t>(options_.job_timeout_s * 1e3),
                  std::memory_order_release);
              spec.config.cancel = &watch->cancel;
            }
            *slot = run_fn(spec, job->mode);
            if (watch != nullptr) {
              watch->deadline_ms.store(JobWatch::kUnarmed,
                                       std::memory_order_release);
            }
            outcome->status = "ok";
            outcome->error.clear();
            bill_host();
            if (!options_.result_dir.empty()) {
              std::ofstream marker(marker_path(options_.result_dir, i));
              marker << "seed " << seed << "\n";
            }
            return;
          } catch (const sim::SimCancelled&) {
            outcome->status = "failed";
            std::ostringstream msg;
            msg << "wall-clock budget exceeded (" << options_.job_timeout_s
                << " s)";
            outcome->error = msg.str();
          } catch (const std::exception& e) {
            outcome->status = "failed";
            outcome->error = e.what();
          } catch (...) {
            outcome->status = "failed";
            outcome->error = "unknown error";
          }
          if (watch != nullptr) {
            watch->deadline_ms.store(JobWatch::kUnarmed,
                                     std::memory_order_release);
          }
          if (attempt < max_attempts) {
            // Exponential backoff at the same seed: transient failures
            // (disk, memory pressure) get room to clear.
            const double sleep_s =
                options_.backoff_initial_s * static_cast<double>(1 << (attempt - 1));
            std::this_thread::sleep_for(
                std::chrono::duration<double>(sleep_s));
          }
        }
        bill_host();  // all attempts failed
      });
    }
    pool.wait();
  }

  if (timed) {
    watchdog_stop.store(true, std::memory_order_release);
    watchdog.join();
  }
  if (outcomes_out != nullptr) *outcomes_out = std::move(outcomes);
  return results;
}

BatchResult ExperimentRunner::run_replicated(const sim::ExperimentSpec& spec,
                                             const std::string& mode,
                                             int replications) {
  assert(replications > 0);
  std::vector<Job> jobs(static_cast<std::size_t>(replications),
                        Job{spec, mode});
  BatchResult batch;
  batch.mode = mode;
  batch.base_seed = options_.base_seed;
  batch.jobs = options_.jobs;
  batch.runs = run(jobs, &batch.outcomes);
  batch.flows = aggregate_flows(batch.runs);
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    // Failed and cached jobs hold a default SimResult; folding their zeros
    // into the batch statistics would silently bias every aggregate.
    if (!batch.outcomes[i].ok()) continue;
    const auto& r = batch.runs[i];
    batch.avg_delay_s.add(r.avg_delay_s);
    // Deterministic merge order: job index, never completion order.
    if (r.telemetry.has_value()) batch.metrics.merge(r.telemetry->metrics);
    if (r.prof.has_value()) {
      if (batch.prof.has_value()) {
        batch.prof->merge(*r.prof);
      } else {
        batch.prof = r.prof;
      }
    }
    if (r.convergence.has_value()) {
      if (batch.convergence.has_value()) {
        batch.convergence->merge(*r.convergence);
      } else {
        batch.convergence = r.convergence;
      }
    }
  }
  return batch;
}

std::vector<FlowAggregate> aggregate_flows(
    const std::vector<sim::SimResult>& runs) {
  std::vector<FlowAggregate> out;
  // Failed/cached jobs leave a default SimResult with no flows; the first
  // populated run defines the flow set, empty runs are skipped entirely.
  const sim::SimResult* reference = nullptr;
  for (const auto& run : runs) {
    if (!run.flows.empty()) {
      reference = &run;
      break;
    }
  }
  if (reference == nullptr) return out;
  const std::size_t num_flows = reference->flows.size();
  // One reservoir of per-seed mean delays per flow.
  std::vector<Samples> reservoirs(num_flows);
  for (const auto& run : runs) {
    if (run.flows.empty()) continue;
    assert(run.flows.size() == num_flows);
    for (std::size_t f = 0; f < num_flows; ++f) {
      reservoirs[f].add(run.flows[f].mean_delay_s);
    }
  }
  out.reserve(num_flows);
  for (std::size_t f = 0; f < num_flows; ++f) {
    const auto& first = reference->flows[f];
    OnlineStats stats;
    for (const double x : reservoirs[f].values()) stats.add(x);
    FlowAggregate agg;
    agg.src = first.src;
    agg.dst = first.dst;
    agg.offered_bps = first.offered_bps;
    agg.replications = stats.count();
    agg.mean_delay_s = stats.mean();
    agg.stddev_delay_s = stats.stddev();
    agg.ci95_delay_s = ci95_halfwidth(stats);
    out.push_back(agg);
  }
  return out;
}

namespace {

// Minimal JSON string escape: node names and labels are plain identifiers,
// but a scenario path can contain anything.
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void write_results_json(std::ostream& os, const BatchResult& batch,
                        const std::string& name) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\n";
  os << "  \"name\": \"" << escape(name) << "\",\n";
  os << "  \"mode\": \"" << escape(batch.mode) << "\",\n";
  os << "  \"base_seed\": " << batch.base_seed << ",\n";
  os << "  \"jobs\": " << batch.jobs << ",\n";
  os << "  \"replications\": " << batch.runs.size() << ",\n";
  os << "  \"network\": {\n";
  os << "    \"mean_avg_delay_s\": " << batch.avg_delay_s.mean() << ",\n";
  os << "    \"stddev_avg_delay_s\": " << batch.avg_delay_s.stddev() << ",\n";
  os << "    \"ci95_avg_delay_s\": " << ci95_halfwidth(batch.avg_delay_s)
     << "\n";
  os << "  },\n";
  os << "  \"flows\": [\n";
  for (std::size_t f = 0; f < batch.flows.size(); ++f) {
    const auto& a = batch.flows[f];
    os << "    {\"src\": \"" << escape(a.src) << "\", \"dst\": \""
       << escape(a.dst) << "\", \"offered_bps\": " << a.offered_bps
       << ", \"replications\": " << a.replications
       << ", \"mean_delay_s\": " << a.mean_delay_s
       << ", \"stddev_delay_s\": " << a.stddev_delay_s
       << ", \"ci95_delay_s\": " << a.ci95_delay_s << "}"
       << (f + 1 < batch.flows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  if (batch.prof.has_value()) {
    std::string prof_json;
    batch.prof->append_json(prof_json);
    os << "  \"prof\": " << prof_json << ",\n";
  }
  if (batch.convergence.has_value()) {
    std::string conv_json;
    batch.convergence->append_json(conv_json);
    os << "  \"convergence\": " << conv_json << ",\n";
  }
  os << "  \"runs\": [\n";
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    const auto& r = batch.runs[i];
    // Batches produced before fault tolerance have no outcomes; treat every
    // row as a first-try success so the schema stays uniform.
    const JobOutcome* oc =
        i < batch.outcomes.size() ? &batch.outcomes[i] : nullptr;
    os << "    {\"seed\": " << derive_seed(batch.base_seed, i)
       << ", \"status\": \"" << escape(oc != nullptr ? oc->status : "ok")
       << "\", \"attempts\": " << (oc != nullptr ? oc->attempts : 1);
    if (oc != nullptr && !oc->error.empty()) {
      os << ", \"error\": \"" << escape(oc->error) << "\"";
    }
    os << ", \"avg_delay_s\": " << r.avg_delay_s
       << ", \"delivered\": " << r.delivered << ", \"dropped\": "
       << (r.dropped_no_route + r.dropped_ttl + r.dropped_queue +
           r.dropped_dead)
       << ", \"control_messages\": " << r.control_messages;
    os << ", \"control\": {\"messages\": " << r.control_messages
       << ", \"garbage\": " << r.control_garbage
       << ", \"dropped\": " << r.control_dropped
       << ", \"dropped_queue\": " << r.control_dropped_queue
       << ", \"dropped_wire\": " << r.control_dropped_wire
       << ", \"dropped_flush\": " << r.control_dropped_flush
       << ", \"dropped_down\": " << r.control_dropped_down
       << ", \"lsus_originated\": " << r.lsus_originated
       << ", \"lsus_retransmitted\": " << r.lsus_retransmitted
       << ", \"lsus_suppressed\": " << r.lsus_suppressed
       << ", \"acks\": " << r.acks_sent
       << ", \"damped_withdrawals\": " << r.damped_withdrawals
       << ", \"per_node\": [";
    for (std::size_t x = 0; x < r.node_control.size(); ++x) {
      const auto& nc = r.node_control[x];
      os << (x > 0 ? ", " : "") << "{\"node\": \"" << escape(nc.node)
         << "\", \"lsus_originated\": " << nc.lsus_originated
         << ", \"lsus_retransmitted\": " << nc.lsus_retransmitted
         << ", \"lsus_suppressed\": " << nc.lsus_suppressed
         << ", \"acks\": " << nc.acks
         << ", \"damped_withdrawals\": " << nc.damped_withdrawals << "}";
    }
    os << "]}";
    if (!r.shard_events.empty()) {
      os << ", \"shard_events\": [";
      for (std::size_t s = 0; s < r.shard_events.size(); ++s) {
        os << (s > 0 ? ", " : "") << r.shard_events[s];
      }
      os << "]";
    }
    if (oc != nullptr) {
      // Host-varying fields live in one FLAT object per row so diff tooling
      // (tests/mdrsim_telemetry.cmake) can strip it with a simple regex.
      os << ", \"host\": {\"wall_clock_s\": " << oc->wall_clock_s
         << ", \"peak_rss_bytes\": " << oc->peak_rss_bytes
         << ", \"table_bytes\": " << r.table_bytes << "}";
    }
    if (r.monitor.has_value()) {
      os << ", \"monitor\": " << sim::monitor_report_json(*r.monitor);
    }
    if (r.stability.has_value()) {
      os << ", \"stability\": " << sim::stability_report_json(*r.stability);
    }
    os << "}" << (i + 1 < batch.runs.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace mdr::runner
