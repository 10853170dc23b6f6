// Workload inputs, generated in-process from the run's seed: the same seed
// always yields the same graphs, network seeds and request lines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "mwc/api.h"

namespace perfbench {

// One cycle::solve() call of the exact-apsp or approx-table1 workload.
struct SolveInput {
  std::string label;  // the algorithm solve() is expected to dispatch to
  mwc::graph::Graph graph;
  std::uint64_t net_seed = 1;
  mwc::cycle::SolveMode mode = mwc::cycle::SolveMode::kExact;
};

// exact-apsp: one weighted undirected random_connected graph, m = 3n.
std::vector<SolveInput> exact_apsp_inputs(std::uint64_t seed);
// approx-table1: one graph per approximate Table 1 class.
std::vector<SolveInput> approx_table1_inputs(std::uint64_t seed);

struct StreamRequest {
  std::string line;  // the JSONL request as a client would send it
  int graph = 0;     // index into RequestStream::graphs
  bool repeat = false;    // same solve identity as an earlier request
  bool faulted = false;   // carries drop, dup or corrupt faults
  bool budgeted = false;  // carries a round budget
};

struct RequestStream {
  std::vector<mwc::graph::Graph> graphs;
  std::vector<StreamRequest> requests;
};

// service-mix: `count` requests over graphs of all four classes with
// n in [24, 64]; about 25% repeat an earlier identity, 30% carry faults and
// 10% carry round budgets. `mode` is never set (the service default, auto).
RequestStream service_mix_stream(std::uint64_t seed, int count);

}  // namespace perfbench
