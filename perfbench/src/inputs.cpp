#include "inputs.h"

#include <utility>

#include "graph/generators.h"
#include "support/rng.h"

namespace perfbench {

using mwc::cycle::SolveMode;
using mwc::graph::Graph;
using mwc::graph::WeightRange;
using mwc::support::Rng;

namespace {

// Sizes: an exact-apsp solve takes about 1.3 s, so that a 30 s run holds
// some 20 of them (single solves on a shared VM vary by +-10%, and larger n
// left too few samples for a steady median); each approx-table1 class
// takes about 1-3 s.
constexpr int kExactNodes = 384;
constexpr int kBottleneckNodes = 512;
constexpr int kChordsNodes = 1024;
constexpr int kWeightedNodes = 256;

std::uint64_t derive_seed(Rng& rng) { return rng.next_below(1u << 30) + 1; }

}  // namespace

std::vector<SolveInput> exact_apsp_inputs(std::uint64_t seed) {
  Rng rng = Rng(seed).fork(1);
  std::vector<SolveInput> out(1);
  out[0].label = "exact";
  out[0].graph = mwc::graph::random_connected(kExactNodes, 3 * kExactNodes,
                                              WeightRange{1, 10}, rng);
  out[0].net_seed = derive_seed(rng);
  out[0].mode = SolveMode::kExact;
  return out;
}

std::vector<SolveInput> approx_table1_inputs(std::uint64_t seed) {
  Rng rng = Rng(seed).fork(2);
  std::vector<SolveInput> out;
  // The network seed drives the algorithms' random sampling, which moves
  // the directed-2approx round count by +-30% and its spill pool with it.
  // It is fixed per class so that --seed varies the graphs only and the
  // spread between seeds stays below the metrics' bounds.
  auto add = [&](const char* label, Graph g) {
    SolveInput in;
    in.label = label;
    in.graph = std::move(g);
    in.net_seed = out.size() + 1;
    in.mode = SolveMode::kApprox;
    out.push_back(std::move(in));
  };
  add("directed-2approx",
      mwc::graph::bottleneck_digraph(kBottleneckNodes, kBottleneckNodes / 32, rng));
  add("girth-approx", mwc::graph::cycle_with_chords(
                          kChordsNodes, kChordsNodes / 16, WeightRange{1, 1}, rng));
  add("weighted-undirected",
      mwc::graph::random_connected(kWeightedNodes, 3 * kWeightedNodes,
                                   WeightRange{1, 100}, rng));
  add("weighted-directed",
      mwc::graph::random_strongly_connected(kWeightedNodes, 3 * kWeightedNodes,
                                            WeightRange{1, 100}, rng));
  return out;
}

namespace {

// Everything of a request line after its id: the solve identity.
std::string request_body(const Graph& g, std::uint64_t seed,
                         const std::string& extra) {
  std::string s = "\"graph\":{\"directed\":";
  s += g.is_directed() ? "true" : "false";
  s += ",\"n\":" + std::to_string(g.node_count()) + ",\"edges\":[";
  bool first = true;
  for (const mwc::graph::Edge& e : g.edges()) {
    if (!first) s += ',';
    first = false;
    s += '[' + std::to_string(e.from) + ',' + std::to_string(e.to) + ',' +
         std::to_string(e.w) + ']';
  }
  s += "]},\"seed\":" + std::to_string(seed) + extra + "}";
  return s;
}

}  // namespace

RequestStream service_mix_stream(std::uint64_t seed, int count) {
  Rng rng = Rng(seed).fork(3);
  RequestStream out;
  struct Identity {
    std::string body;
    StreamRequest proto;
  };
  std::vector<Identity> identities;
  // The mix is stratified so that seeds differ in graphs and order but not
  // in shares. Every block of 40 requests holds 30 fresh identities (9
  // faulted: 3 each of drop, dup, corrupt; 3 budgeted; 18 plain) and 10
  // repeats of earlier identities in the same proportions (3 faulted, 1
  // budgeted, 6 plain): 25% repeats, 30% faulted, 10% budgeted.
  enum Kind { kDrop, kDup, kCorrupt, kBudget, kPlain };
  struct Slot {
    Kind kind;
    bool repeat;
  };
  std::vector<Slot> block;
  for (auto [slot, times] :
       {std::pair{Slot{kDrop, false}, 3}, {Slot{kDup, false}, 3},
        {Slot{kCorrupt, false}, 3}, {Slot{kBudget, false}, 3},
        {Slot{kPlain, false}, 18}, {Slot{kDrop, true}, 1}, {Slot{kDup, true}, 1},
        {Slot{kCorrupt, true}, 1}, {Slot{kBudget, true}, 1}, {Slot{kPlain, true}, 6}}) {
    block.insert(block.end(), static_cast<std::size_t>(times), slot);
  }
  std::vector<std::vector<int>> by_kind(5);  // identity indices per kind
  std::vector<Slot> order;
  for (int i = 0; i < count; ++i) {
    if (order.empty()) {
      order = block;
      rng.shuffle(order);
    }
    const auto [kind, repeat] = order.back();
    order.pop_back();
    const std::string id = "{\"id\":\"r" + std::to_string(i) + "\",";
    const std::vector<int>& twins = by_kind[kind];
    if (repeat && !twins.empty()) {
      const Identity& twin =
          identities[static_cast<std::size_t>(twins[rng.next_below(twins.size())])];
      StreamRequest rq = twin.proto;
      rq.line = id + twin.body;
      rq.repeat = true;
      out.requests.push_back(std::move(rq));
      continue;
    }
    // Fresh identities cycle through the four graph classes and, coprime to
    // that, through n = 24..64; only the graphs themselves are random.
    const int fresh = static_cast<int>(identities.size());
    const int cls = fresh % 4;
    const int n = 24 + (fresh * 17) % 41;
    const WeightRange w = cls % 2 == 0 ? WeightRange{1, 1} : WeightRange{1, 9};
    Graph g = cls < 2 ? mwc::graph::random_connected(n, 2 * n, w, rng)
                      : mwc::graph::random_strongly_connected(n, 2 * n, w, rng);
    StreamRequest rq;
    rq.graph = static_cast<int>(out.graphs.size());
    std::string extra;
    if (kind == kDrop) extra = ",\"faults\":{\"drop_prob\":0.1}";
    if (kind == kDup) extra = ",\"faults\":{\"dup_prob\":0.1}";
    if (kind == kCorrupt) extra = ",\"faults\":{\"corrupt_prob\":0.03}";
    if (kind == kBudget) {
      extra = ",\"budget\":{\"max_rounds\":" + std::to_string(rng.next_in(20, 60)) + "}";
    }
    rq.faulted = kind == kDrop || kind == kDup || kind == kCorrupt;
    rq.budgeted = kind == kBudget;
    Identity ident{request_body(g, derive_seed(rng), extra), rq};
    rq.line = id + ident.body;
    by_kind[kind].push_back(static_cast<int>(identities.size()));
    out.graphs.push_back(std::move(g));
    out.requests.push_back(std::move(rq));
    identities.push_back(std::move(ident));
  }
  return out;
}

}  // namespace perfbench
