// Unit tests of the benchmark's own logic: percentiles, span self time, the
// oracle gate's classification, and per-seed determinism of the inputs.
#include <gtest/gtest.h>

#include <vector>

#include "inputs.h"
#include "oracle_check.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using mwc::graph::kInfWeight;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankAndCountBeyond) {
  const Percentile p = percentile(one_to(100), 0.9);
  EXPECT_EQ(p.value, 90);
  EXPECT_EQ(p.samples, 100u);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_EQ(percentile(one_to(100), 0.5).value, 50);
  EXPECT_EQ(median(one_to(4)), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Percentile, PicksHighestWithTenBeyond) {
  // 1000 samples: p99 has 10 beyond, p99.9 only 1.
  Percentile p = highest_supported_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(p.q, 0.99);
  EXPECT_EQ(p.value, 990);
  EXPECT_EQ(p.beyond, 10u);
  // 999 samples: p99 has 9 beyond, so p90 it is.
  p = highest_supported_percentile(one_to(999));
  EXPECT_DOUBLE_EQ(p.q, 0.9);
  EXPECT_EQ(p.beyond, 99u);
  // 20000 samples, capped at p99.
  p = highest_supported_percentile(one_to(20000), 0.99);
  EXPECT_DOUBLE_EQ(p.q, 0.99);
  EXPECT_EQ(p.beyond, 200u);
  // Too few samples for any tail: the median, with what lies beyond it.
  p = highest_supported_percentile(one_to(12));
  EXPECT_DOUBLE_EQ(p.q, 0.5);
  EXPECT_EQ(p.value, 6);
  EXPECT_EQ(p.beyond, 6u);
  EXPECT_EQ(p.samples, 12u);
}

Span span(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsCoveredChildIntervals) {
  const std::vector<Span> spans = {
      span("root", 0, 10, -1),
      span("a", 1, 4, 0),
      span("b", 3, 6, 0),    // overlaps a: union [1, 6]
      span("c", 8, 12, 0),   // clipped to [8, 10]
      span("leaf", 1, 2, 1),
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 5 - 2);
  EXPECT_DOUBLE_EQ(self[1], 3 - 1);
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[3], 4);
  EXPECT_DOUBLE_EQ(self[4], 1);
  const auto named = by_name(spans);
  EXPECT_DOUBLE_EQ(named.at("root").self_s, 3);
  EXPECT_EQ(named.at("a").count, 1u);
}

TEST(Spans, RecorderKeepsParentAndRequest) {
  SpanRecorder rec;
  {
    ScopedSpan outer(&rec, "outer", -1, 7);
    ScopedSpan inner(&rec, "inner", outer.id(), 7);
  }
  ScopedSpan off(nullptr, "ignored");
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
}

Answer answer(bool certified, double guarantee, long long value, long long lo,
              long long hi, bool clean = true) {
  Answer a;
  a.present = true;
  a.certified = certified;
  a.guarantee = guarantee;
  a.value = value;
  a.lower = lo;
  a.upper = hi;
  a.clean = clean;
  return a;
}

TEST(OracleCheck, Classification) {
  double ratio = 0;
  EXPECT_EQ(classify(Answer{}, 5), Verdict::kMissing);
  // Exact: must equal the oracle.
  EXPECT_EQ(classify(answer(true, 1.0, 5, 5, 5), 5, &ratio), Verdict::kCertifiedSound);
  EXPECT_EQ(ratio, 1.0);
  EXPECT_EQ(classify(answer(true, 1.0, 6, 6, 6), 5), Verdict::kUnsound);
  // Approximate: oracle <= value <= guarantee * oracle.
  EXPECT_EQ(classify(answer(true, 2.0, 10, 5, 10), 5, &ratio), Verdict::kCertifiedSound);
  EXPECT_EQ(ratio, 2.0);
  EXPECT_EQ(classify(answer(true, 2.0, 11, 6, 11), 5), Verdict::kUnsound);
  EXPECT_EQ(classify(answer(true, 2.5, 4, 2, 4), 5), Verdict::kUnsound);
  // Degraded clean answers are still held to the guarantee.
  EXPECT_EQ(classify(answer(false, 2.5, 12, 3, 12), 5), Verdict::kSoundUncertified);
  EXPECT_EQ(classify(answer(false, 2.5, 13, 3, 13), 5), Verdict::kUnsound);
  // Faulted or budgeted: only the bracket and value >= oracle bind.
  EXPECT_EQ(classify(answer(false, 1.0, 40, 3, 40, false), 5),
            Verdict::kSoundUncertified);
  EXPECT_EQ(classify(answer(false, 1.0, kInfWeight, 3, kInfWeight, false), 5),
            Verdict::kSoundUncertified);
  // Brackets must contain the oracle.
  EXPECT_EQ(classify(answer(false, 1.0, kInfWeight, 6, kInfWeight, false), 5),
            Verdict::kUnsound);
  EXPECT_EQ(classify(answer(false, 1.0, 4, 3, 4, false), 5), Verdict::kUnsound);
  // A certified "no cycle" on an acyclic graph.
  EXPECT_EQ(classify(answer(true, 1.0, kInfWeight, kInfWeight, kInfWeight), kInfWeight),
            Verdict::kCertifiedSound);
}

bool same_graph(const mwc::graph::Graph& a, const mwc::graph::Graph& b) {
  if (a.node_count() != b.node_count() || a.is_directed() != b.is_directed() ||
      a.edge_count() != b.edge_count()) {
    return false;
  }
  for (int e = 0; e < a.edge_count(); ++e) {
    const auto& x = a.edge(e);
    const auto& y = b.edge(e);
    if (x.from != y.from || x.to != y.to || x.w != y.w) return false;
  }
  return true;
}

TEST(Inputs, SolveInputsAreAFunctionOfTheSeed) {
  for (auto make : {exact_apsp_inputs, approx_table1_inputs}) {
    const auto a = make(11);
    const auto b = make(11);
    const auto c = make(12);
    ASSERT_EQ(a.size(), b.size());
    bool any_differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(same_graph(a[i].graph, b[i].graph));
      EXPECT_EQ(a[i].net_seed, b[i].net_seed);
      EXPECT_EQ(a[i].label, b[i].label);
      any_differs = any_differs || !same_graph(a[i].graph, c[i].graph) ||
                    a[i].net_seed != c[i].net_seed;
    }
    EXPECT_TRUE(any_differs);
  }
  const auto table1 = approx_table1_inputs(3);
  ASSERT_EQ(table1.size(), 4u);
  EXPECT_TRUE(table1[0].graph.is_directed() && table1[0].graph.is_unit_weight());
  EXPECT_TRUE(!table1[1].graph.is_directed() && table1[1].graph.is_unit_weight());
  EXPECT_TRUE(!table1[2].graph.is_directed() && !table1[2].graph.is_unit_weight());
  EXPECT_TRUE(table1[3].graph.is_directed() && !table1[3].graph.is_unit_weight());
}

TEST(Inputs, RequestStreamIsAFunctionOfTheSeedWithTheStatedMix) {
  const RequestStream a = service_mix_stream(5, 1000);
  const RequestStream b = service_mix_stream(5, 1000);
  const RequestStream c = service_mix_stream(6, 1000);
  ASSERT_EQ(a.requests.size(), 1000u);
  ASSERT_EQ(b.requests.size(), 1000u);
  int repeats = 0, faulted = 0, budgeted = 0, differ = 0;
  bool classes[2][2] = {};
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].line, b.requests[i].line);
    differ += a.requests[i].line != c.requests[i].line;
    repeats += a.requests[i].repeat;
    faulted += a.requests[i].faulted;
    budgeted += a.requests[i].budgeted;
    EXPECT_EQ(a.requests[i].line.find("\"mode\""), std::string::npos);
  }
  for (const auto& g : a.graphs) {
    EXPECT_GE(g.node_count(), 24);
    EXPECT_LE(g.node_count(), 64);
    classes[g.is_directed()][g.is_unit_weight()] = true;
  }
  EXPECT_TRUE(classes[0][0] && classes[0][1] && classes[1][0] && classes[1][1]);
  EXPECT_GT(differ, 900);
  // Stratified: exact shares, except that a repeat slot drawn before any
  // identity of its kind exists becomes a fresh request.
  EXPECT_NEAR(repeats / 1000.0, 0.25, 0.01);
  EXPECT_LE(repeats, 250);
  EXPECT_EQ(faulted, 300);
  EXPECT_EQ(budgeted, 100);
}

}  // namespace
}  // namespace perfbench
