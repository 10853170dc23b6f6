// The benchmark's correctness gate: every timed answer is compared with the
// sequential oracle (graph::seq::mwc) outside the timed region.
#pragma once

#include "graph/graph.h"

namespace perfbench {

// What an answer claims, independent of whether it came from cycle::solve
// or from a SolveService response.
struct Answer {
  bool present = false;    // false: no answer arrived for the attempt
  bool certified = false;  // certified or approx_certified
  // Run without injected faults or budgets: the guarantee then binds every
  // finite value, certified or not.
  bool clean = true;
  double guarantee = 1.0;  // 1 = exact
  mwc::graph::Weight value = mwc::graph::kInfWeight;
  mwc::graph::Weight lower = 0;
  mwc::graph::Weight upper = mwc::graph::kInfWeight;
};

enum class Verdict {
  kCertifiedSound,    // certified, and the claim holds
  kSoundUncertified,  // degraded/failed/bracket-only, but nothing false
  kUnsound,           // some claim contradicts the oracle
  kMissing,           // no answer
};

const char* to_string(Verdict v);

// Rules: the bracket lower <= oracle <= upper must hold; a finite value is
// a real cycle's weight, so value >= oracle; a certified exact answer
// equals the oracle; a certified approximate answer, or any finite answer
// of a clean run, satisfies value <= guarantee * oracle. `ratio` receives
// value / oracle for certified-sound answers (1 when both are infinite).
Verdict classify(const Answer& a, mwc::graph::Weight oracle,
                 double* ratio = nullptr);

}  // namespace perfbench
