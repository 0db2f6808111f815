// ExperimentSpec: one value describing a complete experiment — the network,
// the offered traffic, and how to run/measure it. Everywhere a
// (topology, flows, config) triple used to travel as three positional
// arguments now takes one of these; the parallel runner's job type embeds
// one per replication.
#pragma once

#include <vector>

#include "graph/topology.h"
#include "sim/network_sim.h"
#include "topo/flows.h"

namespace mdr::sim {

struct ExperimentSpec {
  graph::Topology topo;
  std::vector<topo::FlowSpec> flows;
  SimConfig config;
  /// Shard count and window knobs (EngineSpec; default: 1 shard). Scenario
  /// files set it with the `engine` directive, mdrsim with --shards.
  EngineSpec engine;
};

}  // namespace mdr::sim
