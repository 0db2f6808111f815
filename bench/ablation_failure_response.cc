// Ablation: transient response to a link failure — MP vs SP over time.
//
// The paper argues "in the presence of link failures, MP can only perform
// better than SP, because of availability of alternate paths". This bench
// cuts the sri<->isi CAIRN backbone trunk mid-run and prints the
// network-average delay time series for MP and SP: the depth and duration
// of the disruption spike, and the steady-state delta before/after (the
// sampler's per-flow windows summed network-wide).
#include <cstdio>

#include "figure_common.h"
#include "obs/sampler.h"

int main() {
  using namespace mdr;
  const auto setup = bench::cairn_setup(1.0);  // moderate load: SP stays stable
  sim::SimConfig base;
  base.traffic_start = 3;
  base.warmup = 7;
  base.duration = 60;
  base.seed = 7;
  base.sample_interval = 2.0;
  const double t_fail = 30.0;
  const double t_heal = 50.0;
  base.link_toggles.push_back({t_fail, "sri", "isi", false});
  base.link_toggles.push_back({t_heal, "sri", "isi", true});

  auto mp_cfg = base;
  mp_cfg.mode = sim::RoutingMode::kMultipath;
  mp_cfg.tl = 10;
  mp_cfg.ts = 2;
  const auto mp = sim::run_simulation(setup.spec.topo, setup.spec.flows, mp_cfg);

  auto sp_cfg = base;
  sp_cfg.mode = sim::RoutingMode::kSinglePath;
  sp_cfg.tl = 10;
  sp_cfg.ts = 10;
  const auto sp = sim::run_simulation(setup.spec.topo, setup.spec.flows, sp_cfg);

  std::puts("== CAIRN sri<->isi trunk fails at t=30s, heals at t=50s ==");
  std::printf("%8s %14s %14s %10s %10s\n", "t (s)", "MP delay (ms)",
              "SP delay (ms)", "MP drops", "SP drops");
  const auto mp_windows = obs::network_windows(mp.telemetry->flows);
  const auto sp_windows = obs::network_windows(sp.telemetry->flows);
  for (std::size_t i = 0; i < mp_windows.size() && i < sp_windows.size();
       ++i) {
    const auto& m = mp_windows[i];
    const auto& s = sp_windows[i];
    std::printf("%8.0f %14.3f %14.3f %10llu %10llu%s\n", m.t,
                m.mean_delay_s() * 1e3, s.mean_delay_s() * 1e3,
                static_cast<unsigned long long>(m.dropped),
                static_cast<unsigned long long>(s.dropped),
                m.t > t_fail && m.t <= t_fail + 2 ? "   <- failure"
                : m.t > t_heal && m.t <= t_heal + 2 ? "   <- recovery"
                : "");
  }
  std::printf("\nwhole-run averages: MP %.3f ms, SP %.3f ms; "
              "drops MP %llu, SP %llu; TTL drops (loops) MP %llu, SP %llu\n",
              mp.avg_delay_s * 1e3, sp.avg_delay_s * 1e3,
              static_cast<unsigned long long>(mp.dropped_no_route +
                                              mp.dropped_queue),
              static_cast<unsigned long long>(sp.dropped_no_route +
                                              sp.dropped_queue),
              static_cast<unsigned long long>(mp.dropped_ttl),
              static_cast<unsigned long long>(sp.dropped_ttl));
  return 0;
}
