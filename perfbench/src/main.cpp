// The repository benchmark program. One invocation runs one workload:
//
//   perfbench --workload <exact-apsp|approx-table1|service-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// It generates the workload's inputs from the seed, times calls into the
// library's public functions for about --seconds, checks every answer
// against the sequential oracle outside the timed region, and prints one
// JSON result object as the last line of stdout. --trace 0 reports the
// end-to-end metrics with no observer attached; --trace 1 is the separate
// traced run: spans around every call into a layer plus the library's own
// metrics and congestion observers, reported as per-layer metrics. See
// README.md for the metric definitions.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "congest/bfs_tree.h"
#include "congest/convergecast.h"
#include "congest/metrics.h"
#include "congest/multi_bfs.h"
#include "congest/neighbor_exchange.h"
#include "congest/network.h"
#include "congest/runner.h"
#include "graph/sequential.h"
#include "inputs.h"
#include "mwc/api.h"
#include "mwc/directed_mwc.h"
#include "mwc/exact.h"
#include "mwc/girth_approx.h"
#include "mwc/service.h"
#include "mwc/weighted_mwc.h"
#include "mwc/witness.h"
#include "oracle_check.h"
#include "spans.h"
#include "stats.h"
#include "support/json.h"

namespace perfbench {
namespace {

using mwc::congest::Network;
using mwc::graph::Weight;
using Clock = std::chrono::steady_clock;

// Untimed set-ups per run before the first pass, so that setup_s is a
// median over several samples even when only a few passes fit.
constexpr int kSetupReps = 15;
// Requests per service-mix pass.
constexpr int kStreamRequests = 2000;
constexpr int kServiceClients = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Returns freed heap to the kernel, then resets the resident-set high-water
// mark to the current RSS, so that the next peak_rss_mb() covers one timed
// pass and not what earlier passes left in the allocator. Where the kernel
// refuses the reset, the high-water mark keeps growing across passes.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- results ---------------------------------------------------------------

struct MetricRow {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count / definition, for the human table
};

class Results {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    rows_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  // Counters read by key from the library's artifacts: absent stays absent.
  void add_opt(std::string name, const std::optional<double>& v,
               std::string unit, std::string note = "") {
    if (v.has_value()) add(std::move(name), *v, std::move(unit), std::move(note));
  }
  const std::vector<MetricRow>& rows() const { return rows_; }

 private:
  std::vector<MetricRow> rows_;
};

// The correctness gate's tally.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // unsound or missing answers, broken invariants
  std::uint64_t certified = 0;
  double ratio_max = 1.0;

  void check(const Answer& a, Weight oracle, const std::string& what) {
    ++attempted;
    double ratio = 1.0;
    const Verdict v = classify(a, oracle, &ratio);
    if (v == Verdict::kCertifiedSound) {
      ++certified;
      ratio_max = std::max(ratio_max, ratio);
    }
    if (v == Verdict::kUnsound || v == Verdict::kMissing) {
      fail(what + ": " + to_string(v) + " (value " + std::to_string(a.value) +
           ", bracket [" + std::to_string(a.lower) + ", " +
           std::to_string(a.upper) + "], oracle " + std::to_string(oracle) + ")");
    }
  }
  // A broken invariant outside the answers themselves.
  void fail(const std::string& why) {
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  }
};

Answer answer_of(const mwc::cycle::MwcReport& r) {
  Answer a;
  a.present = true;
  a.certified = r.certified();
  a.guarantee = r.guarantee;
  a.value = r.result.value;
  a.lower = r.lower_bound;
  a.upper = r.upper_bound;
  return a;
}

// End-to-end metrics shared by all workloads. `latencies_s` are per-request
// (per solve() call, or per service request) times.
void add_end_to_end(Results& out, const std::vector<double>& setup_s,
                    const std::vector<double>& pass_wall,
                    const std::vector<double>& pass_cpu,
                    const std::vector<double>& latencies_s,
                    std::uint64_t requests, double rss_mb, double sim_rounds,
                    double sim_words, const Gate& gate) {
  const std::string passes = "median of " + std::to_string(pass_wall.size()) + " passes";
  out.add("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " set-ups");
  out.add("wall_s", median(pass_wall), "s", passes);
  out.add("cpu_s", median(pass_cpu), "s", passes);
  out.add("peak_rss_mb", rss_mb, "MB", "median per-pass VmHWM; " + passes);
  out.add("sim_rounds", sim_rounds, "rounds", "per pass");
  out.add("sim_words", sim_words, "words", "per pass");
  const double attempts = static_cast<double>(std::max<std::uint64_t>(gate.attempted, 1));
  out.add("sound_frac", 1.0 - static_cast<double>(gate.failed) / attempts, "ratio",
          "error_rate = 1 - sound_frac; " + std::to_string(gate.attempted) + " answers");
  out.add("certified_frac", static_cast<double>(gate.certified) / attempts, "ratio");
  out.add("approx_ratio_max", gate.ratio_max, "ratio", "over certified answers");
  std::vector<double> ms(latencies_s.size());
  std::transform(latencies_s.begin(), latencies_s.end(), ms.begin(),
                 [](double s) { return 1e3 * s; });
  const Percentile p50 = percentile(ms, 0.5);
  const Percentile tail = highest_supported_percentile(ms, 0.99);
  char note[96];
  std::snprintf(note, sizeof(note), "p%g of %zu requests, %zu beyond", 100 * tail.q,
                tail.samples, tail.beyond);
  out.add("request_p50_ms", p50.value, "ms",
          "p50 of " + std::to_string(p50.samples) + " requests");
  out.add("request_p99_ms", tail.value, "ms", note);
  double wall_total = 0;
  for (double w : pass_wall) wall_total += w;
  out.add("requests_per_s", wall_total > 0 ? static_cast<double>(requests) / wall_total : 0,
          "1/s", std::to_string(requests) + " requests");
}

// ---- library counters, read by key -----------------------------------------

std::optional<double> json_number(const mwc::support::JsonValue* obj,
                                  std::string_view key) {
  if (obj == nullptr) return std::nullopt;
  const mwc::support::JsonValue* v = obj->find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->number;
}

// Engine side-channel counters of a network, when the engine still exposes
// them (absent members yield absent keys, not a build failure).
template <class Net>
std::map<std::string, double> frontier_counters(const Net& net) {
  std::map<std::string, double> out;
  if constexpr (requires { net.frontier_total(); }) {
    const auto& f = net.frontier_total();
    if constexpr (requires { f.scheduled_rounds; }) out["scheduled_rounds"] = f.scheduled_rounds;
    if constexpr (requires { f.dense_rounds; }) out["dense_rounds"] = f.dense_rounds;
    if constexpr (requires { f.sparse_rounds; }) out["sparse_rounds"] = f.sparse_rounds;
    if constexpr (requires { f.frontier_nodes; }) out["frontier_nodes"] = f.frontier_nodes;
    if constexpr (requires { f.active_dirs; }) out["active_dirs"] = f.active_dirs;
    if constexpr (requires { f.fast_words; }) out["fast_words"] = f.fast_words;
    if constexpr (requires { f.multi_words; }) out["multi_words"] = f.multi_words;
  }
  return out;
}

// Layer counters of one observed solve, accumulated over a pass's inputs.
struct ObservedCounters {
  std::map<std::string, double> sums;   // summed over inputs
  std::map<std::string, double> peaks;  // max over inputs
  // "<top-level phase token>.{rounds,words,max_queue_words}"
  std::map<std::string, double> phases;
  bool parsed = true;

  void add_peak(const std::string& k, std::optional<double> v) {
    if (v.has_value()) peaks[k] = std::max(peaks[k], *v);
  }
};

// "distance exchange" -> "distance_exchange": a metric-name-safe token.
std::string metric_token(std::string_view s) {
  std::string out;
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    out += std::isalnum(u) != 0 ? static_cast<char>(std::tolower(u)) : '_';
  }
  return out.empty() ? "root" : out;
}

void observe(const mwc::cycle::MwcReport& report, const Network& net,
             ObservedCounters& acc) {
  mwc::support::JsonValue doc;
  if (!mwc::support::parse_json(report.metrics.to_json(), doc)) {
    acc.parsed = false;
    return;
  }
  const mwc::support::JsonValue* total = doc.find("total");
  acc.add_peak("engine.peak_queue_words", json_number(total, "max_queue_words"));
  const mwc::support::JsonValue* cong = doc.find("congestion");
  acc.add_peak("frontier.overflow_peak_entries", json_number(cong, "overflow_peak_entries"));
  acc.add_peak("frontier.spill_peak_slots", json_number(cong, "spill_peak_slots"));
  for (const auto& [k, v] : frontier_counters(net)) acc.sums["frontier." + k] += v;
  if (const mwc::support::JsonValue* phases = doc.find("phases");
      phases != nullptr && phases->is_array()) {
    for (const mwc::support::JsonValue& ph : phases->items) {
      const std::string_view path = ph.string_or("phase", "");
      const std::string top = metric_token(path.substr(0, path.find('/')));
      if (auto r = json_number(&ph, "rounds")) acc.phases[top + ".rounds"] += *r;
      if (auto w = json_number(&ph, "words")) acc.phases[top + ".words"] += *w;
      if (auto q = json_number(&ph, "max_queue_words")) {
        double& slot = acc.phases[top + ".max_queue_words"];
        slot = std::max(slot, *q);
      }
    }
  }
}

// ---- exact-stage replay ----------------------------------------------------

// The exact algorithm's three distributed stages, called through the public
// primitives with the parameters exact_mwc_impl uses. Returns per-stage
// {rounds, words} deltas of the network's counters.
struct StageCost {
  std::uint64_t rounds = 0;
  std::uint64_t words = 0;
};

std::uint64_t pack_exchange_entry(mwc::graph::NodeId source, Weight d, bool parent) {
  return (static_cast<std::uint64_t>(parent) << 60) |
         (static_cast<std::uint64_t>(source) << 36) | static_cast<std::uint64_t>(d);
}

std::map<std::string, StageCost> run_exact_stages(Network& net, SpanRecorder* rec,
                                                  int parent, std::uint64_t request) {
  namespace cg = mwc::congest;
  const int n = net.n();
  std::map<std::string, StageCost> cost;
  auto delta = [&](const cg::NetworkStats& before) {
    const cg::NetworkStats after = net.stats();
    return StageCost{after.rounds - before.rounds, after.words - before.words};
  };

  cg::NetworkStats before = net.stats();
  cg::MultiBfsParams params;
  params.sources.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) params.sources[static_cast<std::size_t>(v)] = v;
  params.mode = net.problem_graph().is_unit_weight() ? cg::DelayMode::kUnitDelay
                                                    : cg::DelayMode::kImmediate;
  std::vector<Weight> dist;
  std::vector<mwc::graph::NodeId> par;
  {
    ScopedSpan s(rec, "exact.apsp", parent, request);
    cg::MultiBfs bfs(net, std::move(params));
    cg::run_protocol_result(net, bfs);
    dist.assign(bfs.dist_matrix().begin(), bfs.dist_matrix().end());
    par.assign(bfs.parent_matrix().begin(), bfs.parent_matrix().end());
  }
  cost["apsp"] = delta(before);

  before = net.stats();
  {
    ScopedSpan s(rec, "exact.exchange", parent, request);
    auto at = [&](int v, int w) {
      return static_cast<std::size_t>(v) * static_cast<std::size_t>(n) +
             static_cast<std::size_t>(w);
    };
    cg::neighbor_exchange(net, [&](mwc::graph::NodeId v, mwc::graph::NodeId u) {
      std::vector<cg::Word> words;
      words.reserve(static_cast<std::size_t>(n));
      for (int w = 0; w < n; ++w) {
        if (dist[at(v, w)] == mwc::graph::kInfWeight) continue;
        words.push_back(pack_exchange_entry(w, dist[at(v, w)], par[at(v, w)] == u));
      }
      return words;
    });
  }
  cost["distance exchange"] = delta(before);

  before = net.stats();
  {
    ScopedSpan s(rec, "exact.aggregate", parent, request);
    const cg::BfsTreeResult tree = cg::build_bfs_tree(net, 0);
    // The values do not change the cost; the solve aggregates per-node minima.
    const std::vector<Weight> values(static_cast<std::size_t>(n), 1);
    cg::convergecast(net, tree, values, cg::AggregateOp::kMin);
  }
  cost["aggregate min"] = delta(before);
  return cost;
}

// ---- solve workloads (exact-apsp, approx-table1) ---------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

using InputsFn = std::vector<SolveInput> (*)(std::uint64_t);

struct SetUp {
  std::vector<SolveInput> inputs;
  std::vector<std::unique_ptr<Network>> nets;
  double seconds = 0;  // input generation + Network construction
};

SetUp set_up(InputsFn make, std::uint64_t seed) {
  SetUp s;
  const Clock::time_point t0 = Clock::now();
  s.inputs = make(seed);
  for (const SolveInput& in : s.inputs) {
    s.nets.push_back(std::make_unique<Network>(in.graph, in.net_seed));
  }
  s.seconds = seconds_since(t0);
  return s;
}

mwc::cycle::SolveOptions solve_options(const SolveInput& in) {
  mwc::cycle::SolveOptions o;
  o.mode = in.mode;
  return o;
}

std::vector<Weight> oracles(const std::vector<SolveInput>& inputs,
                            SpanRecorder* rec, std::uint64_t request) {
  std::vector<Weight> out;
  for (const SolveInput& in : inputs) {
    ScopedSpan s(rec, "graph.oracle", -1, request);
    out.push_back(mwc::graph::seq::mwc(in.graph));
  }
  return out;
}

void timed_solve_run(const Args& args, InputsFn make, Results& out, Gate& gate) {
  std::vector<double> setup_s;
  std::vector<SolveInput> inputs;
  for (int i = 0; i < kSetupReps; ++i) {
    SetUp s = set_up(make, args.seed);
    setup_s.push_back(s.seconds);
    inputs = std::move(s.inputs);
  }
  const std::vector<Weight> truth = oracles(inputs, nullptr, 0);
  std::vector<double> pass_wall, pass_cpu, pass_rss, latencies, rounds, words;
  const Clock::time_point start = Clock::now();
  do {
    SetUp s = set_up(make, args.seed);
    setup_s.push_back(s.seconds);
    std::vector<mwc::cycle::MwcReport> pass;
    reset_peak_rss();
    const double c0 = cpu_seconds();
    const Clock::time_point w0 = Clock::now();
    for (std::size_t i = 0; i < s.inputs.size(); ++i) {
      const Clock::time_point l0 = Clock::now();
      pass.push_back(mwc::cycle::solve(*s.nets[i], solve_options(s.inputs[i])));
      latencies.push_back(seconds_since(l0));
    }
    pass_wall.push_back(seconds_since(w0));
    pass_cpu.push_back(cpu_seconds() - c0);
    pass_rss.push_back(peak_rss_mb());
    double r = 0, w = 0;
    for (std::size_t i = 0; i < s.inputs.size(); ++i) {
      r += static_cast<double>(s.nets[i]->stats().rounds);
      w += static_cast<double>(s.nets[i]->stats().words);
      if (pass[i].algorithm != s.inputs[i].label) {
        gate.fail(s.inputs[i].label + " dispatched to " + pass[i].algorithm);
      }
      gate.check(answer_of(pass[i]), truth[i], s.inputs[i].label);
    }
    if (!rounds.empty() && (r != rounds[0] || w != words[0])) {
      gate.fail("pass " + std::to_string(rounds.size()) +
                " simulated a different execution");
    }
    rounds.push_back(r);
    words.push_back(w);
  } while (seconds_since(start) + pass_wall.back() <= args.seconds);
  add_end_to_end(out, setup_s, pass_wall, pass_cpu, latencies, latencies.size(),
                 median(pass_rss), median(rounds), median(words), gate);
}

mwc::cycle::MwcResult run_algorithm(const SolveInput& in, Network& net) {
  namespace cy = mwc::cycle;
  if (in.label == "exact") return cy::detail::exact_mwc_impl(net);
  if (in.label == "girth-approx") return cy::girth_approx(net);
  if (in.label == "directed-2approx") return cy::directed_mwc_2approx(net);
  cy::WeightedMwcParams params;
  params.epsilon = solve_options(in).epsilon;
  if (in.label == "weighted-undirected") return cy::undirected_weighted_mwc(net, params);
  if (in.label == "weighted-directed") return cy::directed_weighted_mwc(net, params);
  throw std::runtime_error("no algorithm for " + in.label);
}

// Median over requests of a span name's per-request summed duration.
double per_request_median(const std::vector<Span>& spans, const std::string& name) {
  std::map<std::uint64_t, double> per;
  for (const Span& s : spans) {
    if (s.name == name) per[s.request] += s.end - s.start;
  }
  std::vector<double> v;
  for (const auto& [req, d] : per) v.push_back(d);
  return median(v);
}

// Every per-layer metric name but the phase ones; a workload reports 0 for
// a layer it does not exercise.
const char* const kLayerMetrics[][2] = {
    {"graph.generate_s", "s"},
    {"network.build_s", "s"},
    {"graph.oracle_s", "s"},
    {"engine.words_per_cpu_s", "words/s"},
    {"exact.apsp_s", "s"},
    {"exact.exchange_s", "s"},
    {"exact.aggregate_s", "s"},
    {"engine.peak_queue_words", "words"},
    {"frontier.overflow_peak_entries", "count"},
    {"frontier.spill_peak_slots", "count"},
    {"frontier.multi_word_share", "ratio"},
    {"frontier.dense_rounds", "rounds"},
    {"frontier.sparse_rounds", "rounds"},
    {"frontier.nodes_per_round", "count"},
    {"frontier.dirs_per_round", "count"},
    {"algo.exact_s", "s"},
    {"algo.girth_approx_s", "s"},
    {"algo.directed_2approx_s", "s"},
    {"algo.weighted_undirected_s", "s"},
    {"algo.weighted_directed_s", "s"},
    {"api.certify_s", "s"},
    {"witness.validate_s", "s"},
    {"service.parse_ms", "ms"},
    {"service.execute_ms", "ms"},
    {"service.serialize_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.attempts_per_request", "count"},
    {"service.fallbacks", "count"},
    {"arq.retx_words", "words"},
    {"arq.checksum_rejects", "count"},
    {"arq.useful_word_ratio", "ratio"},
    {"governor.budget_stops", "count"},
    {"observe.overhead_frac", "ratio"},
};

// Top-level metrics phases the workloads' solves open (exact-apsp: apsp,
// distance exchange, aggregate min; approx-table1: the rest). A phase not
// listed here, e.g. after a rename, is folded into "other".
const char* const kPhases[] = {
    "apsp", "distance_exchange", "aggregate_min", "sample_skeleton",
    "pairwise_broadcast", "long_cycles", "short_cycles", "sample_bfs",
    "sample_exchange", "scaling_ladder", "source_detection",
    "detection_exchange", "other",
};

// Emits the layer metrics in kLayerMetrics order (0 where `layer` has no
// entry), then rounds/words/max_queue_words of every kPhases entry.
void add_layers(Results& out, const std::map<std::string, std::optional<double>>& layer,
                const std::map<std::string, double>& phases) {
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = layer.find(name);
    if (it == layer.end()) {
      out.add(name, 0, unit, "not exercised by this workload");
    } else {
      out.add_opt(name, it->second, unit);
    }
  }
  std::map<std::string, double> known;
  for (const auto& [key, v] : phases) {
    const std::size_t dot = key.rfind('.');
    const std::string phase = key.substr(0, dot);
    const bool listed = std::find(std::begin(kPhases), std::end(kPhases), phase) !=
                        std::end(kPhases);
    double& slot = known[(listed ? phase : "other") + key.substr(dot)];
    slot = key.ends_with(".max_queue_words") ? std::max(slot, v) : slot + v;
  }
  for (const char* phase : kPhases) {
    for (const char* field : {"rounds", "words", "max_queue_words"}) {
      const std::string key = std::string(phase) + "." + field;
      const std::string unit = field == std::string("rounds") ? "rounds" : "words";
      out.add("phase." + key, known[key], unit);
    }
  }
}

std::string algo_span(const std::string& label) {
  return "algo." + metric_token(label);
}

void traced_solve_run(const Args& args, InputsFn make, SpanRecorder& rec,
                      Results& out, Gate& gate) {
  const Clock::time_point start = Clock::now();
  double solve_cpu = 0, solve_words = 0;
  ObservedCounters counters;
  std::vector<SolveInput> inputs;
  std::uint64_t pass = 0;
  double last_pass = 0;
  do {
    const Clock::time_point p0 = Clock::now();
    ScopedSpan pass_span(&rec, "pass", -1, pass);
    const int ps = pass_span.id();
    {
      ScopedSpan s(&rec, "graph.generate", ps, pass);
      inputs = make(args.seed);
    }
    std::vector<std::unique_ptr<Network>> nets;
    {
      ScopedSpan s(&rec, "network.build", ps, pass);
      for (const SolveInput& in : inputs) {
        nets.push_back(std::make_unique<Network>(in.graph, in.net_seed));
      }
    }
    std::vector<mwc::cycle::MwcReport> plain;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const SolveInput& in = inputs[i];
      const double c0 = cpu_seconds();
      {
        ScopedSpan s(&rec, "api.solve", ps, pass);
        plain.push_back(mwc::cycle::solve(*nets[i], solve_options(in)));
      }
      solve_cpu += cpu_seconds() - c0;
      solve_words += static_cast<double>(nets[i]->stats().words);
      {
        ScopedSpan s(&rec, "witness.validate", ps, pass);
        Weight total = 0;
        if (!plain.back().result.witness.empty() &&
            !mwc::cycle::detail::validate_cycle(in.graph, plain.back().result.witness,
                                                &total)) {
          gate.fail(in.label + ": witness does not validate");
        }
      }

      std::unique_ptr<Network> observed_net, algo_net, stage_net;
      {
        ScopedSpan s(&rec, "network.build_extra", ps, pass);
        observed_net = std::make_unique<Network>(in.graph, in.net_seed);
        algo_net = std::make_unique<Network>(in.graph, in.net_seed);
        if (in.label == "exact") stage_net = std::make_unique<Network>(in.graph, in.net_seed);
      }
      mwc::cycle::SolveOptions obs = solve_options(in);
      obs.collect_metrics = true;
      obs.congestion.enabled = true;
      mwc::cycle::MwcReport observed;
      {
        ScopedSpan s(&rec, "api.solve_observed", ps, pass);
        observed = mwc::cycle::solve(*observed_net, obs);
      }
      if (pass == 0) observe(observed, *observed_net, counters);
      if (observed.result.value != plain.back().result.value ||
          observed_net->stats() != nets[i]->stats()) {
        gate.fail(in.label + ": observers changed the simulated execution");
      }
      {
        ScopedSpan s(&rec, algo_span(in.label), ps, pass);
        run_algorithm(in, *algo_net);
      }
      if (stage_net != nullptr) {
        ScopedSpan stages(&rec, "exact.stages", ps, pass);
        const auto cost = run_exact_stages(*stage_net, &rec, stages.id(), pass);
        for (const auto& [phase, c] : cost) {
          std::uint64_t r = 0, w = 0;
          for (const auto& ph : observed.metrics.phases) {
            if (ph.path.substr(0, ph.path.find('/')) == phase) {
              r += ph.rounds;
              w += ph.words;
            }
          }
          if (r != c.rounds || w != c.words) {
            gate.fail("exact stage '" + phase + "' costs " + std::to_string(c.rounds) +
                      " rounds / " + std::to_string(c.words) + " words, solve phase " +
                      std::to_string(r) + " / " + std::to_string(w));
          }
        }
      }
    }
    pass_span.close();
    if (pass == 0) {
      const std::vector<Weight> truth = oracles(inputs, &rec, pass);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        gate.check(answer_of(plain[i]), truth[i], inputs[i].label);
      }
    }
    ++pass;
    last_pass = seconds_since(p0);
  } while (seconds_since(start) + last_pass <= args.seconds);

  const std::vector<Span> spans = rec.spans();
  std::map<std::string, std::optional<double>> layer;
  layer["graph.generate_s"] = per_request_median(spans, "graph.generate");
  layer["network.build_s"] = per_request_median(spans, "network.build");
  layer["graph.oracle_s"] = per_request_median(spans, "graph.oracle");
  layer["engine.words_per_cpu_s"] = solve_cpu > 0 ? solve_words / solve_cpu : 0;
  double algo_total = 0;
  for (const SolveInput& in : inputs) {
    const double t = per_request_median(spans, algo_span(in.label));
    layer[algo_span(in.label) + "_s"] = t;
    algo_total += t;
  }
  const double solve_s = per_request_median(spans, "api.solve");
  layer["api.certify_s"] = solve_s - algo_total;
  layer["witness.validate_s"] = per_request_median(spans, "witness.validate");
  if (inputs.front().label == "exact") {
    layer["exact.apsp_s"] = per_request_median(spans, "exact.apsp");
    layer["exact.exchange_s"] = per_request_median(spans, "exact.exchange");
    layer["exact.aggregate_s"] = per_request_median(spans, "exact.aggregate");
  }
  layer["observe.overhead_frac"] =
      solve_s > 0 ? per_request_median(spans, "api.solve_observed") / solve_s - 1 : 0;
  if (!counters.parsed) gate.fail("metrics snapshot JSON did not parse");
  // Counters the library no longer exposes stay absent (nullopt).
  const auto find = [](const std::map<std::string, double>& m,
                       const std::string& k) -> std::optional<double> {
    auto it = m.find(k);
    if (it == m.end()) return std::nullopt;
    return it->second;
  };
  for (const char* k : {"engine.peak_queue_words", "frontier.overflow_peak_entries",
                        "frontier.spill_peak_slots"}) {
    layer[k] = find(counters.peaks, k);
  }
  const auto sum = [&](const char* k) { return find(counters.sums, k); };
  const auto ratio = [](std::optional<double> a, std::optional<double> b)
      -> std::optional<double> {
    if (!a || !b) return std::nullopt;
    return *b > 0 ? *a / *b : 0;
  };
  layer["frontier.dense_rounds"] = sum("frontier.dense_rounds");
  layer["frontier.sparse_rounds"] = sum("frontier.sparse_rounds");
  layer["frontier.nodes_per_round"] =
      ratio(sum("frontier.frontier_nodes"), sum("frontier.scheduled_rounds"));
  layer["frontier.dirs_per_round"] =
      ratio(sum("frontier.active_dirs"), sum("frontier.scheduled_rounds"));
  const auto fast = sum("frontier.fast_words");
  const auto multi = sum("frontier.multi_words");
  layer["frontier.multi_word_share"] =
      fast && multi ? ratio(multi, *fast + *multi) : std::nullopt;
  add_layers(out, layer, counters.phases);
}

// ---- service-mix -----------------------------------------------------------

// What the gate needs from one response, kept instead of the response.
struct ResponseRecord {
  bool seen = false;
  bool id_ok = false;
  bool serialized = false;
  Answer answer;
  std::uint64_t rounds = 0;
  std::uint64_t words = 0;
  std::uint64_t retx_words = 0;
  std::uint64_t checksum_rejects = 0;
  std::size_t attempts = 0;
  bool budget_stop = false;
};

struct ServicePass {
  std::vector<ResponseRecord> records;
  std::vector<double> latencies;
  double wall = 0;
  double cpu = 0;
  mwc::service::SolveService::Stats stats;
};

ServicePass service_pass(const RequestStream& stream, SpanRecorder* rec) {
  namespace sv = mwc::service;
  ServicePass out;
  const std::size_t count = stream.requests.size();
  out.records.resize(count);
  out.latencies.assign(count, 0);
  sv::SolveService service;
  std::atomic<std::size_t> next{0};
  auto client = [&](int c) {
    ScopedSpan client_span(rec, "service.client", -1, static_cast<std::uint64_t>(c));
    for (std::size_t i = next++; i < count; i = next++) {
      const StreamRequest& rq = stream.requests[i];
      const Clock::time_point t0 = Clock::now();
      ScopedSpan req_span(rec, "service.request", client_span.id(), i);
      sv::ServiceRequest request;
      std::string error;
      bool parsed = false;
      {
        ScopedSpan s(rec, "service.parse", req_span.id(), i);
        parsed = sv::parse_request(rq.line, request, &error);
      }
      sv::ServiceResponse resp;
      if (parsed) {
        ScopedSpan s(rec, "service.execute", req_span.id(), i);
        resp = service.execute(request);
      }
      std::string wire;
      {
        ScopedSpan s(rec, "service.serialize", req_span.id(), i);
        if (parsed) wire = resp.to_jsonl();
      }
      req_span.close();
      out.latencies[i] = seconds_since(t0);
      // Each index is claimed once, so a record is written by one client.
      ResponseRecord& r = out.records[i];
      r.seen = true;
      std::string expected_id = "r";
      expected_id += std::to_string(i);
      r.id_ok = parsed && resp.id == expected_id;
      r.serialized = !wire.empty();
      r.answer.present = parsed && resp.admission == sv::Admission::kAdmitted;
      r.answer.certified = resp.certified();
      r.answer.clean = !rq.faulted && !rq.budgeted;
      r.answer.guarantee = resp.guarantee;
      r.answer.value = resp.value;
      r.answer.lower = resp.lower_bound;
      r.answer.upper = resp.upper_bound;
      r.rounds = resp.rounds;
      r.words = resp.words;
      r.retx_words = resp.ledger.retransmitted_words;
      r.checksum_rejects = resp.ledger.checksum_rejects;
      r.attempts = resp.attempts.size();
      r.budget_stop = resp.stop == mwc::congest::StopReason::kRoundBudget;
    }
  };
  const double c0 = cpu_seconds();
  const Clock::time_point w0 = Clock::now();
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kServiceClients; ++c) clients.emplace_back(client, c);
  }
  out.wall = seconds_since(w0);
  out.cpu = cpu_seconds() - c0;
  out.stats = service.stats();
  return out;
}

void check_service_pass(const ServicePass& p, const RequestStream& stream,
                        const std::vector<Weight>& truth, Gate& gate) {
  for (std::size_t i = 0; i < p.records.size(); ++i) {
    const ResponseRecord& r = p.records[i];
    const std::string what = "request r" + std::to_string(i);
    if (!r.seen || !r.id_ok || !r.serialized) {
      gate.check(Answer{}, 0, what);  // counts as missing
      continue;
    }
    gate.check(r.answer, truth[static_cast<std::size_t>(stream.requests[i].graph)], what);
  }
}

double sum_records(const ServicePass& p, std::uint64_t ResponseRecord::*field) {
  double s = 0;
  for (const ResponseRecord& r : p.records) s += static_cast<double>(r.*field);
  return s;
}

std::vector<Weight> stream_oracles(const RequestStream& stream, SpanRecorder* rec) {
  ScopedSpan s(rec, "graph.oracle");
  std::vector<Weight> truth;
  for (const auto& g : stream.graphs) truth.push_back(mwc::graph::seq::mwc(g));
  return truth;
}

void timed_service_run(const Args& args, Results& out, Gate& gate) {
  std::vector<double> setup_s;
  RequestStream stream;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    stream = service_mix_stream(args.seed, kStreamRequests);
    setup_s.push_back(seconds_since(t0));
  }
  const std::vector<Weight> truth = stream_oracles(stream, nullptr);
  std::vector<double> pass_wall, pass_cpu, pass_rss, latencies, rounds, words;
  const Clock::time_point start = Clock::now();
  do {
    reset_peak_rss();
    const ServicePass p = service_pass(stream, nullptr);
    pass_rss.push_back(peak_rss_mb());
    pass_wall.push_back(p.wall);
    pass_cpu.push_back(p.cpu);
    latencies.insert(latencies.end(), p.latencies.begin(), p.latencies.end());
    rounds.push_back(sum_records(p, &ResponseRecord::rounds));
    words.push_back(sum_records(p, &ResponseRecord::words));
    check_service_pass(p, stream, truth, gate);
  } while (seconds_since(start) + pass_wall.back() <= args.seconds);
  add_end_to_end(out, setup_s, pass_wall, pass_cpu, latencies, latencies.size(),
                 median(pass_rss), median(rounds), median(words), gate);
}

void traced_service_run(const Args& args, SpanRecorder& rec, Results& out, Gate& gate) {
  RequestStream stream;
  {
    ScopedSpan s(&rec, "graph.generate");
    stream = service_mix_stream(args.seed, kStreamRequests);
  }
  {
    // The service builds one Network per solve attempt; this is that
    // layer's cost for the stream's graphs, measured from outside.
    ScopedSpan s(&rec, "network.build");
    for (const auto& g : stream.graphs) Network net(g, 1);
  }
  const std::vector<Weight> truth = stream_oracles(stream, &rec);
  // Untraced and traced passes alternate; the ratio of their median wall
  // times is the span recorder's overhead.
  std::vector<double> plain_wall, traced_wall;
  std::vector<ServicePass> traced;
  const Clock::time_point start = Clock::now();
  do {
    const ServicePass plain = service_pass(stream, nullptr);
    check_service_pass(plain, stream, truth, gate);
    plain_wall.push_back(plain.wall);
    traced.push_back(service_pass(stream, &rec));
    check_service_pass(traced.back(), stream, truth, gate);
    traced_wall.push_back(traced.back().wall);
  } while (seconds_since(start) + plain_wall.back() + traced_wall.back() <= args.seconds);

  const ServicePass& p = traced.front();
  const std::vector<Span> spans = rec.spans();
  const auto ms = [&](const char* name) {
    std::vector<double> d;
    for (const Span& s : spans) {
      if (s.name == name) d.push_back(1e3 * (s.end - s.start));
    }
    return median(d);
  };
  std::map<std::string, std::optional<double>> layer;
  layer["graph.generate_s"] = per_request_median(spans, "graph.generate");
  layer["network.build_s"] = per_request_median(spans, "network.build");
  layer["graph.oracle_s"] = per_request_median(spans, "graph.oracle");
  layer["service.parse_ms"] = ms("service.parse");
  layer["service.execute_ms"] = ms("service.execute");
  layer["service.serialize_ms"] = ms("service.serialize");
  const double lookups = static_cast<double>(p.stats.cache_hits + p.stats.cache_misses);
  layer["service.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(p.stats.cache_hits) / lookups : 0;
  double attempts = 0;
  double stops = 0;
  for (const ResponseRecord& r : p.records) {
    attempts += static_cast<double>(r.attempts);
    stops += r.budget_stop ? 1 : 0;
  }
  layer["service.attempts_per_request"] = attempts / static_cast<double>(p.records.size());
  layer["service.fallbacks"] = static_cast<double>(p.stats.fallbacks);
  const double retx = sum_records(p, &ResponseRecord::retx_words);
  const double words = sum_records(p, &ResponseRecord::words);
  layer["arq.retx_words"] = retx;
  layer["arq.checksum_rejects"] = sum_records(p, &ResponseRecord::checksum_rejects);
  layer["arq.useful_word_ratio"] = words > 0 ? 1 - retx / words : 0;
  layer["governor.budget_stops"] = stops;
  layer["observe.overhead_frac"] = median(traced_wall) / median(plain_wall) - 1;
  add_layers(out, layer, {});
}

// ---- output ----------------------------------------------------------------

std::string json_number_text(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string context_json(const Args& args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"hardware_threads\": %u, \"nproc\": %ld, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\"}",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  return buf;
}

std::string result_json(const Results& res, const Gate& gate) {
  std::string metrics;
  for (const MetricRow& r : res.rows()) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + r.name + "\": {\"value\": " + json_number_text(r.value) +
               ", \"unit\": \"" + r.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (gate.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(gate.attempted, 1)) +
         ", \"failed\": " + std::to_string(gate.failed) + ", \"metrics\": {" + metrics +
         "}}";
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a.seconds > 0;
}

int run(const Args& args) {
  Results res;
  Gate gate;
  SpanRecorder rec;
  InputsFn make = nullptr;
  if (args.workload == "exact-apsp") make = exact_apsp_inputs;
  if (args.workload == "approx-table1") make = approx_table1_inputs;
  if (make == nullptr && args.workload != "service-mix") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (make != nullptr) {
    args.trace ? traced_solve_run(args, make, rec, res, gate)
               : timed_solve_run(args, make, res, gate);
  } else {
    args.trace ? traced_service_run(args, rec, res, gate)
               : timed_service_run(args, res, gate);
  }

  const std::string context = context_json(args);
  for (const MetricRow& r : res.rows()) {
    std::printf("%-36s %14.6g %-8s %s\n", r.name.c_str(), r.value, r.unit.c_str(),
                r.note.c_str());
  }
  if (!args.trace) {
    // Printed for readers; published as sound_frac = 1 - error_rate.
    std::printf("%-36s %14.6g %-8s %s\n", "error_rate",
                static_cast<double>(gate.failed) /
                    static_cast<double>(std::max<std::uint64_t>(gate.attempted, 1)),
                "ratio", "unsound or missing answers / attempts (not in the JSON)");
  }
  if (args.trace) {
    std::printf("%-36s %10s %10s %8s\n", "span", "total_s", "self_s", "count");
    for (const auto& [name, lt] : by_name(rec.spans())) {
      std::printf("%-36s %10.4f %10.4f %8zu\n", name.c_str(), lt.total_s, lt.self_s,
                  lt.count);
    }
  }
  std::printf("context %s\n", context.c_str());
  const std::string result = result_json(res, gate);
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + (args.trace ? "-trace" : "");
    std::ofstream(stem + ".json") << "{\"context\": " << context
                                  << ", \"result\": " << result << "}\n";
    if (args.trace) std::ofstream(stem + "-spans.jsonl") << spans_jsonl(rec.spans());
  }
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <exact-apsp|approx-table1|service-mix> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
