#include "sim/network_sim.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/lfi.h"
#include "sim/parallel_engine.h"
#include "util/log.h"

namespace mdr::sim {

using graph::LinkId;
using graph::NodeId;

namespace {

// Rebuild descriptor for the one checkpointable callback event: node
// bring-up at t=0 carries this opcode plus the node id, and make_codec()'s
// factory rebuilds an equivalent closure from it at restore time. Every
// other global activity is a coordinator pause, never a queue event.
constexpr std::uint8_t kOpNodeStart = 1;  ///< a = node id

}  // namespace

void validate_engine(const graph::Topology& topo, const SimConfig& config,
                     const EngineSpec& engine) {
  if (engine.shards < 1) {
    throw std::invalid_argument("engine needs shards >= 1 (got " +
                                std::to_string(engine.shards) + ")");
  }
  if (engine.shards > 1 && (config.trace || config.flightrec_capacity > 0)) {
    throw std::invalid_argument(
        "trace/flightrec needs shards=1 (the flight recorder is "
        "single-threaded): drop them or run with 1 shard");
  }
  if (engine.shards == 1) return;
  // A zero-delay link between two shards makes the lookahead 0: every
  // window would be empty and the coordinator would spin forever.
  const std::vector<int> shard_of = assign_shards(topo, engine.shards);
  for (LinkId id = 0; id < static_cast<LinkId>(topo.num_links()); ++id) {
    const auto& l = topo.link(id);
    if (shard_of[l.from] == shard_of[l.to] || l.attr.prop_delay_s > 0) {
      continue;
    }
    throw std::invalid_argument(
        "link " + std::string(topo.name(l.from)) + " " +
        std::string(topo.name(l.to)) +
        " has zero propagation delay and its ends sit on different shards "
        "(shards=" + std::to_string(engine.shards) +
        "): the engine's lookahead would be 0 and it could never advance; "
        "give the link prop > 0 or use shards=1");
  }
}

NetworkSim::NetworkSim(const graph::Topology& topo,
                       const std::vector<topo::FlowSpec>& flows,
                       SimConfig config, EngineSpec engine)
    : topo_(&topo),
      flow_specs_(flows),
      config_(config),
      master_rng_(config.seed),
      engine_(engine) {
  assert(config.mode != RoutingMode::kStatic || config.static_phi != nullptr);
  validate_engine(topo, config, engine);
  build();
}

void NetworkSim::build() {
  const auto n = static_cast<NodeId>(topo_->num_nodes());
  measure_start_ = config_.traffic_start + config_.warmup;
  flow_delays_.resize(flow_specs_.size());

  const auto shard_count = static_cast<std::size_t>(engine_.shards);
  shard_of_ = assign_shards(*topo_, engine_.shards);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  channels_.resize(shard_count * shard_count);
  for (std::size_t p = 0; p < shard_count; ++p) {
    for (std::size_t q = 0; q < shard_count; ++q) {
      if (p == q) continue;
      channels_[p * shard_count + q] =
          std::make_unique<HandoffChannel>(engine_.ring_capacity);
    }
  }
  // validate_engine() rejected zero-delay cross-shard links, so the
  // lookahead is positive (+infinity when every link is shard-local).
  lookahead_ = min_cross_shard_prop(*topo_, shard_of_);
  if (engine_.lookahead_override > 0) {
    lookahead_ = std::min(lookahead_, engine_.lookahead_override);
  }
  if (config_.prof) {
    // One profiler + span recorder per shard, plus one profiler for the
    // coordinator: the barrier completion hook runs on whichever worker
    // arrives last, and a dedicated instance keeps every profiler
    // single-threaded and its counts deterministic.
    const std::uint64_t timed_mask =
        config_.prof_deep ? obs::kProfTimeAll : obs::kProfTimeDefault;
    for (std::size_t s = 0; s <= shard_count; ++s) {
      profilers_.push_back(std::make_unique<obs::Profiler>(timed_mask));
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
      span_recorders_.push_back(
          std::make_unique<obs::SpanRecorder>(topo_->num_nodes()));
      shards_[s]->events.set_profiler(profilers_[s].get());
    }
    window_busy_ns_.assign(shard_count, 0);
    coord_prof_ = profilers_.back().get();
  }
  // Covers the rest of entity construction; a no-op branch when prof is off.
  obs::ProfScope build_scope(coord_prof_, obs::ProfSection::kSimBuild);

  const auto shard_index = [this](NodeId i) {
    return static_cast<std::size_t>(shard_of_[i]);
  };
  const auto queue_for = [&](NodeId i) -> EventQueue& {
    return shards_[shard_index(i)]->events;
  };

  NodeOptions node_options;
  node_options.mode = config_.mode;
  node_options.tl = config_.tl;
  node_options.ts = config_.ts;
  node_options.ah_damping = config_.ah_damping;
  node_options.mean_packet_bits = config_.mean_packet_bits;
  node_options.smoothing = config_.smoothing;
  node_options.wrr_forwarding = config_.wrr_forwarding;
  node_options.use_hello = config_.use_hello;
  node_options.hello = config_.hello;
  node_options.pacing = config_.pacing;
  node_options.damping = config_.damping;

  telemetry_enabled_ = config_.sample_interval > 0 || config_.trace ||
                       config_.flightrec_capacity > 0;
  stability_enabled_ = config_.stability.interval > 0;
  if (stability_enabled_) {
    stab_flow_delivered_.assign(flow_specs_.size(), 0);
    stab_flow_delay_sum_.assign(flow_specs_.size(), 0.0);
  }

  for (NodeId i = 0; i < n; ++i) {
    // Per-shard integer counters plus per-flow sums written only by the
    // flow's destination shard: every field has a single writer and the
    // float reduction order (flow order at merge time) is identical for
    // every shard count.
    const std::size_t s = shard_index(i);
    NodeCallbacks cb;
    cb.delivered = [this, s](const Packet& p, Duration delay) {
      ++shards_[s]->delivered;
      if (p.flow_id < 0) return;
      const auto f = static_cast<std::size_t>(p.flow_id);
      if (stability_enabled_) {
        ++stab_flow_delivered_[f];
        stab_flow_delay_sum_[f] += delay;
      }
      const bool measured = p.created >= measure_start_;
      if (telemetry_enabled_) {
        auto& acc = flow_accum_[f];
        ++acc.delivered;
        acc.delay_sum_s += delay;
        if (measured) {
          ++acc.measured_delivered;
          acc.measured_delay_sum_s += delay;
          flow_hist_[f].record(delay);
        }
      }
      if (measured) flow_delays_[f].add(delay);
    };
    if (telemetry_enabled_) {
      cb.dropped = [this, s](const Packet& p) {
        if (p.flow_id >= 0) {
          ++sflow_dropped_[s][static_cast<std::size_t>(p.flow_id)];
        }
      };
    }
    nodes_.push_back(std::make_unique<SimNode>(queue_for(i), i,
                                               topo_->num_nodes(), node_options,
                                               master_rng_.split(), cb));
  }

  // Resolve the Gilbert–Elliott assignments to directed node pairs once
  // (each duplex entry covers both directions; each gets its own chain).
  std::map<std::pair<NodeId, NodeId>, fault::GilbertParams> gilbert_by_pair;
  for (const auto& g : config_.faults.gilbert) {
    const NodeId a = topo_->find_node(g.a);
    const NodeId b = topo_->find_node(g.b);
    assert(a != graph::kInvalidNode && b != graph::kInvalidNode);
    gilbert_by_pair[{a, b}] = g.params;
    gilbert_by_pair[{b, a}] = g.params;
  }
  // Duty-cycled links with loss params carry their own Gilbert–Elliott
  // chain while awake. A link cannot carry two chains per direction; the
  // scenario parser rejects a `gilbert` + lossy `dutycycle` collision with
  // a real diagnostic before it can reach this assert.
  for (const auto& duty : config_.faults.duty_cycles) {
    if (!duty.lossy) continue;
    const NodeId a = topo_->find_node(duty.a);
    const NodeId b = topo_->find_node(duty.b);
    assert(a != graph::kInvalidNode && b != graph::kInvalidNode);
    assert(gilbert_by_pair.find({a, b}) == gilbert_by_pair.end());
    gilbert_by_pair[{a, b}] = duty.loss;
    gilbert_by_pair[{b, a}] = duty.loss;
  }

  SimLink::Options link_options;
  link_options.queue_limit_bits = config_.queue_limit_bits;
  link_options.control_queue_limit_bits = config_.control_queue_limit_bits;
  link_options.loss_rate = config_.link_loss_rate;
  link_options.corrupt_rate = config_.faults.chaos.corrupt_rate;
  link_options.duplicate_rate = config_.faults.chaos.duplicate_rate;
  link_options.reorder_rate = config_.faults.chaos.reorder_rate;
  link_holds_.resize(topo_->num_links());
  for (LinkId id = 0; id < static_cast<LinkId>(topo_->num_links()); ++id) {
    const auto& l = topo_->link(id);
    SimNode* to = nodes_[l.to].get();
    auto options = link_options;
    if (const auto it = gilbert_by_pair.find({l.from, l.to});
        it != gilbert_by_pair.end()) {
      options.gilbert = it->second;
    }
    links_.push_back(std::make_unique<SimLink>(
        queue_for(l.from), l.attr, config_.estimator, config_.mean_packet_bits,
        [to](Packet p) { to->receive(std::move(p)); }, options,
        master_rng_.split()));
    // The transmitter (and its estimators and RNG) belongs to the FROM
    // shard; deliveries execute on the TO shard — directly into its queue
    // when both endpoints share a shard, through the handoff ring
    // otherwise.
    const std::size_t from_shard = shard_index(l.from);
    const std::size_t to_shard = shard_index(l.to);
    const bool local = from_shard == to_shard;
    links_.back()->use_keyed_wire(
        id, local ? &shards_[to_shard]->events : nullptr,
        local ? nullptr
              : channels_[from_shard * shard_count + to_shard].get());
    nodes_[l.from]->attach_link(l.to, links_.back().get());
  }

  if (config_.prof) {
    // Every instrument is owned by the shard whose thread executes it: a
    // node's protocol work runs on its own shard, a link's transmitter on
    // the FROM shard and its delivery hand-up on the TO shard.
    const auto prof_for = [&](NodeId i) {
      return profilers_[shard_index(i)].get();
    };
    for (NodeId i = 0; i < n; ++i) {
      nodes_[i]->set_prof(prof_for(i));
      nodes_[i]->set_spans(span_recorders_[shard_index(i)].get());
    }
    for (LinkId id = 0; id < static_cast<LinkId>(topo_->num_links()); ++id) {
      const auto& l = topo_->link(id);
      links_[id]->set_prof(prof_for(l.from), prof_for(l.to));
    }
  }

  if (telemetry_enabled_) {
    telemetry_.sample_interval = config_.sample_interval;
    if (config_.trace || config_.flightrec_capacity > 0) {
      // validate_engine() allows the recorder only at one shard, so shard
      // 0's clock is the simulation clock — and it equals the pause instant
      // whenever pause handlers (crashes, monitor sweeps) record events.
      const std::size_t ring =
          config_.flightrec_capacity > 0 ? config_.flightrec_capacity : 256;
      recorder_ = std::make_unique<obs::FlightRecorder>(
          topo_->num_nodes(), ring, /*keep_all=*/config_.trace,
          &telemetry_.metrics);
      const Time* clock = shards_[0]->events.now_ptr();
      for (NodeId i = 0; i < n; ++i) {
        nodes_[i]->set_probe(obs::Probe{recorder_.get(), i, clock});
      }
      // A link's drop events are stamped with the RECEIVING node: control
      // sheds at the ingress of the far end, which is where the overload is.
      for (LinkId id = 0; id < static_cast<LinkId>(topo_->num_links()); ++id) {
        links_[id]->set_probe(
            obs::Probe{recorder_.get(), topo_->link(id).to, clock});
      }
    }
    flow_accum_.resize(flow_specs_.size());
    flow_hist_.resize(flow_specs_.size());
    sflow_dropped_.assign(shard_count,
                          std::vector<std::uint64_t>(flow_specs_.size(), 0));
    if (config_.sample_interval > 0) {
      sampler_ = std::make_unique<obs::TimeSeriesSampler>(
          config_.sample_interval, topo_->num_links(), flow_specs_.size(),
          &telemetry_);
    }
  }

  if (config_.mode == RoutingMode::kStatic) {
    const auto& phi = *config_.static_phi;
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        if (i == j) continue;
        const auto values = phi.at(i, j);
        const auto out = topo_->out_links(i);
        std::vector<core::ForwardingChoice> choices;
        for (std::size_t x = 0; x < out.size(); ++x) {
          if (values[x] > 0) {
            choices.push_back(
                core::ForwardingChoice{topo_->link(out[x]).to, values[x]});
          }
        }
        nodes_[i]->set_static_choices(j, std::move(choices));
      }
    }
  }

  // Protocol bring-up at t=0 (random per-node order falls out of per-node
  // timer phases; link_up processing itself is instantaneous and local).
  for (NodeId i = 0; i < n; ++i) {
    SimNode* node = nodes_[i].get();
    queue_for(i).schedule_at(0, [node] { node->start(); }, kOpNodeStart,
                             static_cast<std::uint64_t>(i));
  }

  // Traffic sources.
  const Time stop = measure_start_ + config_.duration;
  for (std::size_t f = 0; f < flow_specs_.size(); ++f) {
    const auto& spec = flow_specs_[f];
    FlowShape shape;
    shape.src = topo_->find_node(spec.src);
    shape.dst = topo_->find_node(spec.dst);
    assert(shape.src != graph::kInvalidNode);
    assert(shape.dst != graph::kInvalidNode);
    shape.flow_id = static_cast<int>(f);
    shape.rate_bps = spec.rate_bps;
    shape.mean_packet_bits = config_.mean_packet_bits;
    SimNode* src_node = nodes_[shape.src].get();
    EventQueue& src_queue = queue_for(shape.src);
    const std::function<void(Packet)> inject =
        [this, s = shard_index(shape.src), src_node](Packet p) {
          ++shards_[s]->injected;  // conservation ledger, per-shard half
          src_node->receive(std::move(p));
        };
    // Rate modulation (diurnal curve, flash crowds): the inner source runs
    // at the profile's peak rate and the wrapper thins emissions back down
    // to rate * multiplier(t). Episodes apply only to flows aimed at the
    // hotspot. When no profile is active the build is byte-for-byte the
    // seed path (same RNG split order, no wrapper).
    RateProfile profile;
    profile.period_s = config_.traffic.diurnal_period_s;
    profile.amplitude = config_.traffic.diurnal_amplitude;
    profile.phase_s = config_.traffic.diurnal_phase_s;
    for (const auto& fc : config_.traffic.flash_crowds) {
      if (topo_->find_node(fc.dst) != shape.dst) continue;
      profile.episodes.push_back(
          RateProfile::Episode{fc.start, fc.ramp_s, fc.hold_s, fc.peak});
    }
    std::unique_ptr<ModulatedSource> modulated;
    InjectFn sink = inject;
    if (profile.active()) {
      modulated = std::make_unique<ModulatedSource>(
          src_queue, profile, master_rng_.split(), inject);
      sink = modulated->gate();
      shape.rate_bps = spec.rate_bps * profile.peak();
    }
    std::unique_ptr<TrafficSource> source;
    switch (config_.traffic.model) {
      case TrafficModel::kOnOff:
        source = std::make_unique<OnOffSource>(
            src_queue, shape, config_.traffic.burstiness, master_rng_.split(),
            sink);
        break;
      case TrafficModel::kParetoOnOff:
        source = std::make_unique<ParetoOnOffSource>(
            src_queue, shape, config_.traffic.pareto, master_rng_.split(),
            sink);
        break;
      case TrafficModel::kPoisson:
        source = std::make_unique<PoissonSource>(src_queue, shape,
                                                 master_rng_.split(), sink);
        break;
      case TrafficModel::kAdversarial:
        source = std::make_unique<AdversarialSource>(
            src_queue, shape, config_.traffic.adversarial,
            master_rng_.split(), sink);
        break;
    }
    if (modulated != nullptr) {
      modulated->adopt(std::move(source));
      sources_.push_back(std::move(modulated));
    } else {
      sources_.push_back(std::move(source));
    }
    sources_.back()->run(config_.traffic_start, stop);
  }

  if (config_.monitor_interval > 0) {
    MonitorHooks hooks;
    hooks.node_alive = [this](NodeId i) { return nodes_[i]->alive(); };
    hooks.link_up = [this](LinkId id) { return links_[id]->up(); };
    hooks.forwarding = [this](NodeId x, NodeId dest) {
      return nodes_[x]->forwarding(dest);
    };
    hooks.accounting = [this] { return accounting_snapshot(); };
    hooks.control_dropped = [this](LinkId id) {
      return links_[id]->control_dropped_queue();
    };
    hooks.adjacent = [this](NodeId x, NodeId neighbor) {
      return nodes_[x]->adjacent_to(neighbor);
    };
    if (recorder_ != nullptr) {
      // Dump the flight recorder the moment an invariant incident opens —
      // bounded so a persistently broken run cannot grow without limit.
      hooks.anomaly = [this](const char* kind, Time at) {
        constexpr std::size_t kMaxDumps = 16;
        if (telemetry_.flight_dumps.size() >= kMaxDumps) return;
        telemetry_.flight_dumps.push_back(
            obs::FlightDump{at, std::string(kind), recorder_->dump()});
      };
    }
    MonitorOptions monitor_options;
    monitor_options.control_drop_budget = config_.monitor_control_drop_budget;
    monitor_ = std::make_unique<InvariantMonitor>(*topo_, std::move(hooks),
                                                  monitor_options);
  }

  if (stability_enabled_) {
    double total_capacity_bps = 0;
    for (LinkId id = 0; id < static_cast<LinkId>(topo_->num_links()); ++id) {
      total_capacity_bps += topo_->link(id).attr.capacity_bps;
    }
    stability_ =
        std::make_unique<StabilityMonitor>(config_.stability,
                                           total_capacity_bps);
  }

  build_pause_plan();
}

std::uint64_t NetworkSim::injected_total() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->injected;
  return total;
}

std::uint64_t NetworkSim::delivered_total() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->delivered;
  return total;
}

AccountingSnapshot NetworkSim::accounting_snapshot() const {
  AccountingSnapshot s;
  s.injected = injected_total();
  s.delivered = delivered_total();
  for (const auto& node : nodes_) {
    s.dropped +=
        node->drops_no_route() + node->drops_ttl() + node->drops_dead();
  }
  for (const auto& link : links_) {
    s.dropped += link->data_dropped();
    s.queued += link->queued_data_packets();
    s.in_flight += link->in_flight_data_packets();
  }
  return s;
}

EventQueueCodec NetworkSim::make_codec() {
  EventQueueCodec c;
  auto link_idx = std::make_shared<
      std::unordered_map<const SimLink*, std::uint64_t>>();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    (*link_idx)[links_[i].get()] = i;
  }
  auto node_idx = std::make_shared<
      std::unordered_map<const SimNode*, std::uint64_t>>();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    (*node_idx)[nodes_[i].get()] = i;
  }
  // kSourceEmit events always target the innermost concrete source (a
  // ModulatedSource wrapper never schedules queue events of its own).
  auto concrete = std::make_shared<std::vector<TrafficSource*>>();
  auto source_idx = std::make_shared<
      std::unordered_map<const TrafficSource*, std::uint64_t>>();
  for (std::size_t f = 0; f < sources_.size(); ++f) {
    TrafficSource* s = sources_[f].get();
    if (auto* m = dynamic_cast<ModulatedSource*>(s)) s = m->inner();
    concrete->push_back(s);
    (*source_idx)[s] = f;
  }
  c.link_index = [link_idx](const SimLink* l) {
    const auto it = link_idx->find(l);
    if (it == link_idx->end()) {
      throw ckpt::Error("unknown link in pending event");
    }
    return it->second;
  };
  c.link_at = [this](std::uint64_t i) {
    if (i >= links_.size()) {
      throw ckpt::Error("link index out of range in checkpoint");
    }
    return links_[i].get();
  };
  c.node_index = [node_idx](const SimNode* n) {
    const auto it = node_idx->find(n);
    if (it == node_idx->end()) {
      throw ckpt::Error("unknown node in pending event");
    }
    return it->second;
  };
  c.node_at = [this](std::uint64_t i) {
    if (i >= nodes_.size()) {
      throw ckpt::Error("node index out of range in checkpoint");
    }
    return nodes_[i].get();
  };
  c.source_index = [source_idx](const TrafficSource* s) {
    const auto it = source_idx->find(s);
    if (it == source_idx->end()) {
      throw ckpt::Error("unknown traffic source in pending event");
    }
    return it->second;
  };
  c.source_at = [concrete](std::uint64_t i) {
    if (i >= concrete->size()) {
      throw ckpt::Error("source index out of range in checkpoint");
    }
    return (*concrete)[i];
  };
  c.make_callback = [this](std::uint8_t tag, std::uint64_t a,
                           double) -> std::function<void()> {
    if (tag != kOpNodeStart) return nullptr;  // EventQueue::load reports it
    if (a >= nodes_.size()) {
      throw ckpt::Error("node-start descriptor out of range");
    }
    SimNode* node = nodes_[a].get();
    return [node] { node->start(); };
  };
  return c;
}

void NetworkSim::save_checkpoint(const std::string& path) {
  // Save runs on the coordinator (a pause handler), so it bills to the
  // coordinator profiler.
  obs::ProfScope prof_scope(coord_prof_, obs::ProfSection::kCkptSave);
  const auto wall_start = std::chrono::steady_clock::now();
  ckpt::Writer w;
  w.mark(0x51);
  w.u64(config_.seed);
  w.i64(engine_.shards);
  w.u64(nodes_.size());
  w.u64(links_.size());
  w.u64(sources_.size());
  // Resume cursor: where the window loop picks back up.
  w.u64(ckpt_pause_idx_);
  w.f64(ckpt_clock_);
  w.b(ckpt_tie_done_);
  master_rng_.save(w);
  const EventQueueCodec codec = make_codec();
  // Window barrier: the channels were drained before any pause ran, so the
  // complete pending-event state lives in the shard queues.
  for (const auto& shard : shards_) shard->events.save(w, codec);
  w.mark(0x52);
  for (const auto& node : nodes_) node->save(w);
  for (const auto& link : links_) link->save(w);
  for (const auto& source : sources_) source->save(w);
  w.mark(0x53);
  for (const auto& samples : flow_delays_) samples.save(w);
  w.u64(lfi_checks_);
  w.u64(lfi_violations_);
  for (const auto& hold : link_holds_) {
    w.b(hold.admin_down);
    w.b(hold.flap_down);
    w.b(hold.duty_down);
  }
  w.b(monitor_ != nullptr);
  if (monitor_ != nullptr) monitor_->save(w);
  w.b(stability_ != nullptr);
  if (stability_ != nullptr) stability_->save(w);
  for (std::uint64_t v : stab_flow_delivered_) w.u64(v);
  for (double v : stab_flow_delay_sum_) w.f64(v);
  w.mark(0x54);
  if (telemetry_enabled_) {
    telemetry_.save(w);
    for (const auto& acc : flow_accum_) {
      w.u64(acc.delivered);
      w.f64(acc.delay_sum_s);
      w.u64(acc.measured_delivered);
      w.f64(acc.measured_delay_sum_s);
    }
    for (const auto& per_shard : sflow_dropped_) {
      for (std::uint64_t v : per_shard) w.u64(v);
    }
    for (const auto& h : flow_hist_) h.save(w);
    w.b(recorder_ != nullptr);
    if (recorder_ != nullptr) recorder_->save(w);
    w.b(sampler_ != nullptr);
    if (sampler_ != nullptr) sampler_->save(w);
  }
  w.mark(0x55);
  for (const auto& shard : shards_) {
    w.u64(shard->injected);
    w.u64(shard->delivered);
  }
  w.write_file(path);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  // Informational cost line on stderr — NOT the metrics registry, so
  // telemetry output stays byte-identical with checkpointing on or off.
  std::fprintf(stderr, "[ckpt] save path=%s bytes=%zu ms=%.2f t=%.17g\n",
               path.c_str(), w.payload().size(), ms, global_now_);
}

void NetworkSim::restore_checkpoint(const std::string& path) {
  obs::ProfScope prof_scope(coord_prof_, obs::ProfSection::kCkptLoad);
  const auto wall_start = std::chrono::steady_clock::now();
  ckpt::Reader r = ckpt::Reader::from_file(path);
  r.expect_mark(0x51);
  if (r.u64() != config_.seed) {
    throw ckpt::Error("checkpoint seed does not match this configuration");
  }
  if (r.i64() != engine_.shards) {
    throw ckpt::Error(
        "checkpoint shard count does not match (resume requires the same "
        "engine shard count)");
  }
  const std::uint64_t n_nodes = r.u64();
  const std::uint64_t n_links = r.u64();
  const std::uint64_t n_sources = r.u64();
  if (n_nodes != nodes_.size() || n_links != links_.size() ||
      n_sources != sources_.size()) {
    throw ckpt::Error(
        "checkpoint topology does not match this configuration");
  }
  ckpt_pause_idx_ = r.u64();
  ckpt_clock_ = r.f64();
  ckpt_tie_done_ = r.b();
  if (ckpt_pause_idx_ > pauses_.size()) {
    throw ckpt::Error("checkpoint pause cursor out of range");
  }
  global_now_ = ckpt_clock_;
  master_rng_.load(r);
  const EventQueueCodec codec = make_codec();
  for (auto& shard : shards_) shard->events.load(r, codec);
  r.expect_mark(0x52);
  for (auto& node : nodes_) node->load(r);
  // SimLink::load restores up_ and the failure epoch directly — deriving
  // them from link_holds_ via apply_link_state() would bump epochs and
  // orphan restored in-flight events.
  for (auto& link : links_) link->load(r);
  for (auto& source : sources_) source->load(r);
  r.expect_mark(0x53);
  for (auto& samples : flow_delays_) samples.load(r);
  lfi_checks_ = r.u64();
  lfi_violations_ = r.u64();
  for (auto& hold : link_holds_) {
    hold.admin_down = r.b();
    hold.flap_down = r.b();
    hold.duty_down = r.b();
  }
  if (r.b() != (monitor_ != nullptr)) {
    throw ckpt::Error("checkpoint monitor mode mismatch");
  }
  if (monitor_ != nullptr) monitor_->load(r);
  if (r.b() != (stability_ != nullptr)) {
    throw ckpt::Error("checkpoint stability-monitor mode mismatch");
  }
  if (stability_ != nullptr) stability_->load(r);
  for (auto& v : stab_flow_delivered_) v = r.u64();
  for (auto& v : stab_flow_delay_sum_) v = r.f64();
  r.expect_mark(0x54);
  if (telemetry_enabled_) {
    telemetry_.load(r);
    for (auto& acc : flow_accum_) {
      acc.delivered = r.u64();
      acc.delay_sum_s = r.f64();
      acc.measured_delivered = r.u64();
      acc.measured_delay_sum_s = r.f64();
    }
    for (auto& per_shard : sflow_dropped_) {
      for (auto& v : per_shard) v = r.u64();
    }
    for (auto& h : flow_hist_) h.load(r);
    if (r.b() != (recorder_ != nullptr)) {
      throw ckpt::Error("checkpoint flight-recorder mode mismatch");
    }
    if (recorder_ != nullptr) recorder_->load(r);
    if (r.b() != (sampler_ != nullptr)) {
      throw ckpt::Error("checkpoint sampler mode mismatch");
    }
    if (sampler_ != nullptr) sampler_->load(r);
  }
  r.expect_mark(0x55);
  for (auto& shard : shards_) {
    shard->injected = r.u64();
    shard->delivered = r.u64();
  }
  r.expect_end();
  resumed_ = true;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  std::fprintf(stderr, "[ckpt] load path=%s ms=%.2f t=%.17g\n", path.c_str(),
               ms, global_now_);
}

std::optional<obs::Telemetry> NetworkSim::take_partial_telemetry() {
  if (!telemetry_enabled_) return std::nullopt;
  if (sampler_ != nullptr) take_samples(global_now_);
  if (recorder_ != nullptr) telemetry_.trace = recorder_->take_trace();
  return std::move(telemetry_);
}

void NetworkSim::apply_link_state(LinkId id) {
  const auto& l = topo_->link(id);
  const bool up = !link_holds_[id].admin_down && !link_holds_[id].flap_down &&
                  !link_holds_[id].duty_down && nodes_[l.from]->alive() &&
                  nodes_[l.to]->alive();
  links_[id]->set_up(up);
}

void NetworkSim::apply_incident_links(NodeId node) {
  for (LinkId id = 0; id < static_cast<LinkId>(topo_->num_links()); ++id) {
    const auto& l = topo_->link(id);
    if (l.from == node || l.to == node) apply_link_state(id);
  }
}

void NetworkSim::flap_duplex(NodeId a, NodeId b, bool down) {
  const LinkId ab = topo_->find_link(a, b);
  const LinkId ba = topo_->find_link(b, a);
  assert(ab != graph::kInvalidLink && ba != graph::kInvalidLink);
  link_holds_[ab].flap_down = down;
  link_holds_[ba].flap_down = down;
  apply_link_state(ab);
  apply_link_state(ba);
  // Silent by definition: only hello dead intervals notice the outage.
}

void NetworkSim::duty_duplex(NodeId a, NodeId b, bool down) {
  const LinkId ab = topo_->find_link(a, b);
  const LinkId ba = topo_->find_link(b, a);
  assert(ab != graph::kInvalidLink && ba != graph::kInvalidLink);
  link_holds_[ab].duty_down = down;
  link_holds_[ba].duty_down = down;
  apply_link_state(ab);
  apply_link_state(ba);
  // Silent, like flaps: a sleeping radio sends no teardown message.
}

void NetworkSim::crash_node(NodeId node) {
  if (!nodes_[node]->alive()) return;
  nodes_[node]->crash();
  apply_incident_links(node);  // its links drop, silently
  if (monitor_ != nullptr) monitor_->on_crash(node, global_now_);
}

void NetworkSim::recover_node(NodeId node) {
  if (nodes_[node]->alive()) return;
  nodes_[node]->recover();
  apply_incident_links(node);  // links return (unless still held down)
  if (monitor_ != nullptr) monitor_->on_recover(node, global_now_);
}

void NetworkSim::stability_record(Time now) {
  // Backlog in LinkId order, delivery sums in flow order: the same float
  // additions in the same order for every shard count.
  double queued_bits = 0;
  for (const auto& link : links_) queued_bits += link->queued_bits();
  std::uint64_t delivered = 0;
  double delay_sum = 0;
  for (std::size_t f = 0; f < stab_flow_delivered_.size(); ++f) {
    delivered += stab_flow_delivered_[f];
    delay_sum += stab_flow_delay_sum_[f];
  }
  stability_->record(now, queued_bits, delivered, delay_sum);
  if (sampler_ != nullptr) {
    const StabilityTick& tick = stability_->last();
    telemetry_.stability.push_back(
        obs::StabilitySample{tick.t, tick.queued_bits, tick.slope_bps,
                             tick.window_delay_s, tick.margin});
  }
}

std::uint64_t NetworkSim::source_emitted(std::size_t flow) const {
  return sources_[flow]->emitted();
}

void NetworkSim::take_samples(Time now) {
  // A read-only walk over existing counters: no randomness is drawn and no
  // protocol state is touched, so sampling never perturbs packet flows.
  for (LinkId id = 0; id < static_cast<LinkId>(links_.size()); ++id) {
    const auto& link = *links_[id];
    obs::TimeSeriesSampler::LinkCumulative c;
    c.busy_time = link.busy_time();
    c.queue_bits = link.queued_bits();
    c.queue_packets = link.queued_data_packets();
    c.data_bits = link.data_bits();
    c.control_bits = link.control_bits();
    c.drops = link.drops();
    sampler_->record_link(now, static_cast<std::uint32_t>(id), c);
  }
  for (std::size_t f = 0; f < flow_specs_.size(); ++f) {
    const auto& acc = flow_accum_[f];
    obs::TimeSeriesSampler::FlowCumulative c;
    c.injected = source_emitted(f);
    c.delivered = acc.delivered;
    c.delay_sum_s = acc.delay_sum_s;
    c.measured_delivered = acc.measured_delivered;
    c.measured_delay_sum_s = acc.measured_delay_sum_s;
    // Node-level drops land in the dropping shard's per-flow counter; their
    // sum is the shard-count-invariant cumulative figure.
    for (const auto& per_shard : sflow_dropped_) c.dropped += per_shard[f];
    sampler_->record_flow(now, static_cast<int>(f), c);
  }
  const auto n = static_cast<NodeId>(topo_->num_nodes());
  if (config_.mode != RoutingMode::kStatic) {
    for (NodeId j = 0; j < n; ++j) {
      obs::TimeSeriesSampler::DestCumulative c;
      double succ_sum = 0;
      double entropy_sum = 0;
      std::uint64_t entries = 0;
      for (NodeId i = 0; i < n; ++i) {
        if (i == j) continue;
        const auto* router = nodes_[i]->router();
        // Versions are monotonic (bumped, never zeroed, across crashes), so
        // summing over every router — dead ones included — keeps the
        // cumulative churn feed monotonic too.
        c.successor_versions += router->mpda().successor_version(j);
        if (!nodes_[i]->alive()) continue;
        const auto choices = router->forwarding(j);
        if (choices.empty()) continue;
        ++entries;
        succ_sum += static_cast<double>(choices.size());
        double h = 0;
        for (const auto& choice : choices) {
          if (choice.weight > 0) h -= choice.weight * std::log2(choice.weight);
        }
        entropy_sum += h;
      }
      if (entries > 0) {
        c.mean_successors = succ_sum / static_cast<double>(entries);
        c.mean_entropy_bits = entropy_sum / static_cast<double>(entries);
      }
      sampler_->record_dest(now, j, c);
    }
  }
  obs::TimeSeriesSampler::ControlCumulative c;
  for (const auto& node : nodes_) {
    c.hellos += node->hellos_sent();
    if (node->router() == nullptr) continue;
    const auto& mpda = node->router()->mpda();
    c.lsus_originated += mpda.lsus_originated();
    c.lsus_retransmitted += mpda.lsus_retransmitted();
    c.lsus_suppressed += mpda.lsus_suppressed();
    c.acks += mpda.acks_sent();
  }
  for (const auto& link : links_) {
    c.control_bits += link->control_bits();
    c.control_dropped += link->control_dropped();
  }
  sampler_->record_control(now, c);
}

void NetworkSim::lfi_sweep(Time now) {
  const auto n = static_cast<NodeId>(topo_->num_nodes());
  ++lfi_checks_;
  for (NodeId j = 0; j < n; ++j) {
    core::LfiSnapshot snap;
    snap.feasible_distance.resize(topo_->num_nodes());
    snap.successors.resize(topo_->num_nodes());
    for (NodeId i = 0; i < n; ++i) {
      const auto& mpda = nodes_[i]->router()->mpda();
      snap.feasible_distance[i] = mpda.feasible_distance(j);
      if (i != j) snap.successors[i] = mpda.successors(j);
    }
    if (!core::feasible_distances_decrease(snap) ||
        !core::successor_graph_loop_free(snap)) {
      ++lfi_violations_;
      MDR_LOG_WARN("LFI violated for destination %d at t=%.6f", j, now);
    }
  }
}

void NetworkSim::toggle_duplex(NodeId a, NodeId b, bool up, bool silent) {
  const LinkId ab = topo_->find_link(a, b);
  const LinkId ba = topo_->find_link(b, a);
  assert(ab != graph::kInvalidLink && ba != graph::kInvalidLink);
  link_holds_[ab].admin_down = !up;
  link_holds_[ba].admin_down = !up;
  apply_link_state(ab);
  apply_link_state(ba);
  if (silent) return;  // nobody is told; hello timeouts must catch it
  if (up) {
    nodes_[a]->neighbor_link_restored(b);
    nodes_[b]->neighbor_link_restored(a);
  } else {
    nodes_[a]->neighbor_link_failed(b);
    nodes_[b]->neighbor_link_failed(a);
  }
}

void NetworkSim::build_pause_plan() {
  const Time sim_end = measure_start_ + config_.duration;
  const Time horizon = sim_end + 0.5;  // matches run()'s drain horizon
  // Rank 0: admin link toggles, in plan order.
  for (const auto& toggle : config_.link_toggles) {
    const NodeId a = topo_->find_node(toggle.a);
    const NodeId b = topo_->find_node(toggle.b);
    assert(a != graph::kInvalidNode && b != graph::kInvalidNode);
    pauses_.push_back(
        Pause{toggle.at, 0,
              [this, a, b, up = toggle.up, silent = toggle.silent] {
                toggle_duplex(a, b, up, silent);
              }});
  }
  const auto& plan = config_.faults;
  // Rank 1: flap schedule. Each period starts up; the link goes down after
  // the duty fraction and returns at the period boundary. Only whole cycles
  // are scheduled, so a flapped link always ends the run up.
  for (const auto& flap : plan.flaps) {
    const NodeId a = topo_->find_node(flap.a);
    const NodeId b = topo_->find_node(flap.b);
    assert(a != graph::kInvalidNode && b != graph::kInvalidNode);
    assert(flap.period > 0 && flap.duty > 0 && flap.duty < 1);
    const Time stop = std::min(flap.stop, sim_end);
    for (Time t = flap.start; t + flap.period <= stop + 1e-9;
         t += flap.period) {
      pauses_.push_back(Pause{t + flap.duty * flap.period, 1, [this, a, b] {
                                flap_duplex(a, b, /*down=*/true);
                              }});
      pauses_.push_back(Pause{t + flap.period, 1, [this, a, b] {
                                flap_duplex(a, b, /*down=*/false);
                              }});
    }
  }
  // Rank 2: duty-cycle schedule (the expansion in fault/duty_cycle.h).
  for (const auto& duty : plan.duty_cycles) {
    const NodeId a = topo_->find_node(duty.a);
    const NodeId b = topo_->find_node(duty.b);
    assert(a != graph::kInvalidNode && b != graph::kInvalidNode);
    for (const auto& edge : fault::duty_cycle_edges(duty, sim_end)) {
      pauses_.push_back(Pause{edge.at, 2, [this, a, b, down = edge.down] {
                                duty_duplex(a, b, down);
                              }});
    }
  }
  // Ranks 3/4: crashes strictly before recoveries at an equal instant.
  for (const auto& ev : plan.crashes) {
    const NodeId x = topo_->find_node(ev.node);
    assert(x != graph::kInvalidNode);
    pauses_.push_back(Pause{ev.at, 3, [this, x] { crash_node(x); }});
  }
  for (const auto& ev : plan.recoveries) {
    const NodeId x = topo_->find_node(ev.node);
    assert(x != graph::kInvalidNode);
    pauses_.push_back(Pause{ev.at, 4, [this, x] { recover_node(x); }});
  }
  // Ranks 5-8: the periodic observers. First tick one interval in, last
  // tick at or before the drain horizon.
  if (monitor_ != nullptr) {
    for (Time t = config_.monitor_interval; t <= horizon;
         t += config_.monitor_interval) {
      pauses_.push_back(Pause{t, 5, [this, t] { monitor_->check(t); }});
    }
  }
  if (config_.lfi_check_interval > 0 && config_.mode != RoutingMode::kStatic) {
    for (Time t = config_.lfi_check_interval; t <= horizon;
         t += config_.lfi_check_interval) {
      pauses_.push_back(Pause{t, 6, [this, t] { lfi_sweep(t); }});
    }
  }
  if (sampler_ != nullptr) {
    for (Time t = config_.sample_interval; t <= horizon;
         t += config_.sample_interval) {
      pauses_.push_back(Pause{t, 7, [this, t] { take_samples(t); }});
    }
  }
  if (stability_ != nullptr) {
    // Observation starts one interval after traffic does: the monitor's
    // baseline must measure loaded steady state, not the silent
    // convergence phase.
    for (Time t = config_.traffic_start + config_.stability.interval;
         t <= horizon; t += config_.stability.interval) {
      pauses_.push_back(Pause{t, 8, [this, t] { stability_record(t); }});
    }
  }
  // Rank 9: checkpoint pauses, strictly after every same-instant activity
  // so the snapshot captures the instant's full effects. Placeholders only —
  // the handlers bind after the sort, because each must know its own pause
  // index to record the resume cursor.
  if (config_.checkpoint_interval > 0 && !config_.checkpoint_path.empty()) {
    for (Time t = config_.checkpoint_interval; t <= horizon;
         t += config_.checkpoint_interval) {
      pauses_.push_back(Pause{t, 9, nullptr});
    }
  }
  // Nothing past the drain horizon can execute; dropping it lets the
  // window loop stop exactly there.
  std::erase_if(pauses_, [horizon](const Pause& p) { return p.at > horizon; });
  std::stable_sort(pauses_.begin(), pauses_.end(),
                   [](const Pause& x, const Pause& y) {
                     return x.at != y.at ? x.at < y.at : x.rank < y.rank;
                   });
  // Bind the checkpoint placeholders: each records exactly where the window
  // loop resumes — clock at its own pause time, the instant's inclusive tie
  // run done, every pause up to and including itself executed.
  for (std::size_t i = 0; i < pauses_.size(); ++i) {
    if (pauses_[i].fn) continue;
    pauses_[i].fn = [this, t = pauses_[i].at, next = i + 1] {
      ckpt_pause_idx_ = next;
      ckpt_clock_ = t;
      ckpt_tie_done_ = true;
      save_checkpoint(config_.checkpoint_path);
    };
  }
}

void NetworkSim::drain_channels() {
  const auto num_shards = static_cast<std::size_t>(engine_.shards);
  for (std::size_t q = 0; q < num_shards; ++q) {
    EventQueue& dst = shards_[q]->events;
    for (std::size_t p = 0; p < num_shards; ++p) {
      if (p == q) continue;
      channels_[p * num_shards + q]->drain([&dst](HandoffItem&& item) {
        dst.schedule_delivery_keyed(item.deliver_at, item.link, item.epoch,
                                    std::move(item.packet), item.key);
      });
    }
  }
}

void NetworkSim::run_parallel_loop() {
  const int num_shards = engine_.shards;
  const Time horizon = measure_start_ + config_.duration + 0.5;
  const Time inf = std::numeric_limits<Time>::infinity();

  // Window protocol: workers advance their shard strictly below the window
  // end W (run_until_strict), so a cross-shard delivery produced mid-window
  // can land exactly at W and still be pending when it is drained at the
  // barrier. W = min(next pause, earliest pending event + lookahead); at a
  // pause time T, a single INCLUSIVE run executes the events at exactly T
  // before the pause handlers observe the network.
  enum class Cmd { kWindow, kTie, kDone };
  struct Control {
    Cmd cmd = Cmd::kWindow;
    Time cmd_time = 0;
    std::size_t pause_idx = 0;
    Time clock = 0;  ///< every shard's clock once the pending command ran
    bool tie_done = false;
  };
  Control ctl;
  if (resumed_) {
    // Replay the Control state the checkpoint recorded; the first barrier
    // completion then sizes the next window from exactly the saved
    // decision point.
    ctl.pause_idx = ckpt_pause_idx_;
    ctl.clock = ckpt_clock_;
    ctl.tie_done = ckpt_tie_done_;
    global_now_ = ckpt_clock_;
  }

  const auto next_target = [&]() -> Time {
    return ctl.pause_idx < pauses_.size()
               ? std::min(pauses_[ctl.pause_idx].at, horizon)
               : horizon;
  };
  const auto min_next_event = [&](Time bound) -> Time {
    Time t = inf;
    for (auto& shard : shards_) {
      t = std::min(t, shard->events.next_event_before(bound));
    }
    return t;
  };

  // The whole coordinator runs inside the barrier completion hook: the last
  // arriving worker executes it while every other worker is parked, so no
  // state below needs atomics — the barrier's generation release/acquire
  // publishes it.
  const auto completion = [&] {
    if (coord_prof_ != nullptr) {
      // Fold the window that just ended into the imbalance sums. Every
      // worker is parked, so the slots are quiescent; all-idle windows
      // (pure clock advancement) are skipped.
      std::uint64_t max_busy = 0, sum_busy = 0;
      for (std::uint64_t& busy : window_busy_ns_) {
        max_busy = std::max(max_busy, busy);
        sum_busy += busy;
        busy = 0;
      }
      if (max_busy > 0) {
        ++prof_windows_;
        prof_window_max_busy_ns_ += max_busy;
        prof_window_mean_busy_ns_ += sum_busy / window_busy_ns_.size();
      }
    }
    {
      obs::ProfScope handoff(coord_prof_, obs::ProfSection::kEngineHandoff);
      drain_channels();
    }
    // A barrier with drained channels is a valid snapshot instant: every
    // worker is parked and ctl holds the complete resume cursor.
    if (config_.cancel != nullptr &&
        config_.cancel->load(std::memory_order_relaxed)) {
      stop_reason_ = StopReason::kCancelled;
      ctl.cmd = Cmd::kDone;
      return;
    }
    if (config_.interrupt != nullptr &&
        config_.interrupt->load(std::memory_order_relaxed)) {
      if (!config_.checkpoint_path.empty()) {
        ckpt_pause_idx_ = ctl.pause_idx;
        ckpt_clock_ = ctl.clock;
        ckpt_tie_done_ = ctl.tie_done;
        save_checkpoint(config_.checkpoint_path);
      }
      stop_reason_ = StopReason::kInterrupted;
      ctl.cmd = Cmd::kDone;
      return;
    }
    for (;;) {
      const Time target = next_target();
      if (ctl.clock < target) {
        // Advance: run strictly below W. A window bounded by lookahead can
        // never cut in front of a cross-shard packet (deliver >= t_min +
        // lookahead >= W); one bounded by the target stops for the pause.
        const Time t_min = min_next_event(target);
        Time w = target;
        if (t_min + lookahead_ < target) w = t_min + lookahead_;
        ctl.cmd = Cmd::kWindow;
        ctl.cmd_time = w;
        ctl.clock = w;
        ctl.tie_done = false;
        global_now_ = w;
        return;
      }
      // clock == target: finish the instant (inclusive tie run) first.
      if (!ctl.tie_done) {
        ctl.tie_done = true;
        if (min_next_event(target) <= target) {
          ctl.cmd = Cmd::kTie;
          ctl.cmd_time = target;
          global_now_ = target;
          return;
        }
      }
      if (ctl.pause_idx < pauses_.size() &&
          pauses_[ctl.pause_idx].at <= target) {
        // Execute every pause due at this instant, in (rank, plan) order.
        // Handlers only schedule into the future (positive service times and
        // timer phases), so the tie run needs no repeat.
        global_now_ = target;
        while (ctl.pause_idx < pauses_.size() &&
               pauses_[ctl.pause_idx].at == target) {
          pauses_[ctl.pause_idx].fn();
          ++ctl.pause_idx;
        }
        continue;  // the target moved; size the next window
      }
      assert(ctl.clock >= horizon);
      ctl.cmd = Cmd::kDone;
      return;
    }
  };

  WindowBarrier barrier(num_shards, completion);
  const auto worker = [&](int s) {
    // Log lines from shard events are stamped with the coordinator clock
    // (within one lookahead of the shard clock mid-window).
    const ScopedLogClock log_clock(&global_now_);
    EventQueue& queue = shards_[static_cast<std::size_t>(s)]->events;
    obs::Profiler* prof =
        profilers_.empty() ? nullptr
                           : profilers_[static_cast<std::size_t>(s)].get();
    for (;;) {
      {
        // Stall = parked at the barrier. The last arriver's stall also
        // covers the completion hook it executes; the hook's own work bills
        // to the separate coordinator profiler.
        obs::ProfScope stall(prof, obs::ProfSection::kEngineStall);
        barrier.arrive_and_wait();
      }
      if (ctl.cmd == Cmd::kDone) break;
      const std::uint64_t busy_start =
          prof != nullptr ? obs::Profiler::now_ns() : 0;
      {
        obs::ProfScope busy(prof, obs::ProfSection::kEngineBusy);
        if (ctl.cmd == Cmd::kWindow) {
          queue.run_until_strict(ctl.cmd_time);
        } else {
          queue.run_until(ctl.cmd_time);
        }
      }
      if (prof != nullptr) {
        window_busy_ns_[static_cast<std::size_t>(s)] +=
            obs::Profiler::now_ns() - busy_start;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_shards) - 1);
  for (int s = 1; s < num_shards; ++s) threads.emplace_back(worker, s);
  worker(0);  // the calling thread drives shard 0
  for (auto& t : threads) t.join();
  if (stop_reason_ == StopReason::kCancelled) throw SimCancelled();
  if (stop_reason_ == StopReason::kInterrupted) {
    throw SimInterrupted(take_partial_telemetry());
  }
  global_now_ = horizon;
}

SimResult NetworkSim::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  if (!config_.resume_from.empty()) restore_checkpoint(config_.resume_from);
  run_parallel_loop();
  // Sources never schedule past their stop time, so after the drain only
  // protocol events (timers, retransmissions) may remain pending.
  for ([[maybe_unused]] const auto& shard : shards_) {
    assert(shard->events.pending_source_events() == 0);
  }
  // Tail window (sums reconcile).
  if (sampler_ != nullptr) take_samples(global_now_);

  // Result assembly is a profiled section of its own; enter/exit is manual
  // (not a ProfScope) so the section is closed before make_prof_report
  // snapshots the tracks below.
  if (coord_prof_ != nullptr) coord_prof_->enter(obs::ProfSection::kSimReport);
  SimResult result;
  for (const auto& shard : shards_) {
    result.shard_events.push_back(shard->events.processed());
    result.events_processed += shard->events.processed();
  }
  result.lfi_checks = lfi_checks_;
  result.lfi_violations = lfi_violations_;
  double delay_weighted = 0;
  for (std::size_t f = 0; f < flow_specs_.size(); ++f) {
    const auto& spec = flow_specs_[f];
    const auto& samples = flow_delays_[f];
    FlowResult fr;
    fr.flow_id = static_cast<int>(f);
    fr.src = spec.src;
    fr.dst = spec.dst;
    fr.offered_bps = spec.rate_bps;
    fr.delivered = samples.count();
    if (!samples.empty()) {
      fr.mean_delay_s = samples.mean();
      fr.p95_delay_s = samples.percentile(0.95);
      OnlineStats s;
      for (double d : samples.values()) s.add(d);
      fr.stddev_delay_s = s.stddev();
      delay_weighted += samples.mean() * static_cast<double>(samples.count());
      result.delivered += samples.count();
    }
    result.flows.push_back(fr);
  }
  result.avg_delay_s =
      result.delivered > 0
          ? delay_weighted / static_cast<double>(result.delivered)
          : 0;
  for (const auto& node : nodes_) {
    result.dropped_no_route += node->drops_no_route();
    result.dropped_ttl += node->drops_ttl();
    result.dropped_dead += node->drops_dead();
    result.control_garbage += node->control_garbage();
    result.control_messages += node->control_messages_sent();
    if (node->router() == nullptr) continue;  // static: no control plane
    const auto& mpda = node->router()->mpda();
    NodeControlStats stats;
    stats.node = std::string(topo_->name(node->id()));
    stats.lsus_originated = mpda.lsus_originated();
    stats.lsus_retransmitted = mpda.lsus_retransmitted();
    stats.lsus_suppressed = mpda.lsus_suppressed();
    stats.acks = mpda.acks_sent();
    stats.damped_withdrawals = node->damped_withdrawals();
    result.lsus_originated += stats.lsus_originated;
    result.lsus_retransmitted += stats.lsus_retransmitted;
    result.lsus_suppressed += stats.lsus_suppressed;
    result.acks_sent += stats.acks;
    result.damped_withdrawals += stats.damped_withdrawals;
    result.table_bytes += mpda.tables().memory_bytes();
    result.node_control.push_back(std::move(stats));
  }
  if (monitor_ != nullptr) result.monitor = monitor_->report();
  if (stability_ != nullptr) result.stability = stability_->report();
  for (LinkId id = 0; id < static_cast<LinkId>(links_.size()); ++id) {
    const auto& link = *links_[id];
    result.dropped_queue += link.drops();
    result.control_bits += link.control_bits();
    result.control_dropped += link.control_dropped();
    result.control_dropped_queue += link.control_dropped_queue();
    result.control_dropped_wire += link.control_dropped_wire();
    result.control_dropped_flush += link.control_dropped_flush();
    result.control_dropped_down += link.control_dropped_down();
    const auto& l = topo_->link(id);
    result.links.push_back(LinkLoad{
        std::string(topo_->name(l.from)), std::string(topo_->name(l.to)),
        link.data_bits(), link.control_bits(),
        link.utilization_estimate(global_now_)});
  }
  if (telemetry_enabled_) {
    if (recorder_ != nullptr) telemetry_.trace = recorder_->take_trace();
    auto& m = telemetry_.metrics;
    // The per-flow histograms (single writer each) merge in flow order: the
    // same bucket additions for every shard count.
    auto& h = m.histogram("flow_delay_s");
    for (const auto& fh : flow_hist_) h.merge(fh);
    m.counter("packets.injected") += injected_total();
    m.counter("packets.delivered") += delivered_total();
    m.counter("packets.delivered_measured") += result.delivered;
    m.counter("packets.dropped_no_route") += result.dropped_no_route;
    m.counter("packets.dropped_ttl") += result.dropped_ttl;
    m.counter("packets.dropped_dead") += result.dropped_dead;
    m.counter("packets.dropped_queue") += result.dropped_queue;
    m.counter("control.messages") += result.control_messages;
    m.counter("control.lsus_originated") += result.lsus_originated;
    m.counter("control.lsus_retransmitted") += result.lsus_retransmitted;
    m.counter("control.lsus_suppressed") += result.lsus_suppressed;
    m.counter("control.acks") += result.acks_sent;
    m.counter("control.dropped") += result.control_dropped;
    m.gauge("delay.avg_s") = result.avg_delay_s;
    m.gauge("control.bits") = result.control_bits;
    result.telemetry = std::move(telemetry_);
  }
  if (coord_prof_ != nullptr) coord_prof_->exit();
  if (config_.prof) {
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    result.prof = make_prof_report(wall_ns);
    std::vector<const obs::SpanRecorder*> recorders;
    recorders.reserve(span_recorders_.size());
    for (const auto& r : span_recorders_) recorders.push_back(r.get());
    result.convergence = obs::assemble_spans(recorders);
  }
  return result;
}

obs::ProfReport NetworkSim::make_prof_report(std::uint64_t wall_ns) const {
  obs::ProfReport report;
  for (std::size_t s = 0; s < profilers_.size(); ++s) {
    obs::ProfReport::Track track;
    track.label = s + 1 < profilers_.size() ? "shard" + std::to_string(s)
                                            : std::string("coord");
    track.sections = profilers_[s]->sections();
    report.scopes += profilers_[s]->scopes();
    report.counted += profilers_[s]->counted();
    report.clock_cost_ns =
        std::max(report.clock_cost_ns, profilers_[s]->clock_cost_ns());
    report.tracks.push_back(std::move(track));
  }
  report.windows = prof_windows_;
  report.window_max_busy_ns = prof_window_max_busy_ns_;
  report.window_mean_busy_ns = prof_window_mean_busy_ns_;
  report.shards = engine_.shards;
  report.wall_ns = wall_ns;
  return report;
}

SimResult run_simulation(const graph::Topology& topo,
                         const std::vector<topo::FlowSpec>& flows,
                         const SimConfig& config, const EngineSpec& engine) {
  NetworkSim sim(topo, flows, config, engine);
  return sim.run();
}

}  // namespace mdr::sim
