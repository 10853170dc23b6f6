#include "oracle_check.h"

namespace perfbench {

using mwc::graph::kInfWeight;
using mwc::graph::Weight;

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kCertifiedSound: return "certified_sound";
    case Verdict::kSoundUncertified: return "sound_uncertified";
    case Verdict::kUnsound: return "unsound";
    case Verdict::kMissing: return "missing";
  }
  return "unknown";
}

Verdict classify(const Answer& a, Weight oracle, double* ratio) {
  if (!a.present) return Verdict::kMissing;
  if (a.lower > oracle || oracle > a.upper) return Verdict::kUnsound;
  if (a.value != kInfWeight && a.value < oracle) return Verdict::kUnsound;
  const bool within_guarantee =
      a.value == oracle ||
      (a.value != kInfWeight && oracle != kInfWeight &&
       static_cast<double>(a.value) <=
           a.guarantee * static_cast<double>(oracle) + 1e-9);
  if (a.certified) {
    const bool exact = a.guarantee == 1.0;
    if (exact ? a.value != oracle : !within_guarantee) return Verdict::kUnsound;
    if (ratio != nullptr) {
      *ratio = oracle == kInfWeight ? 1.0
                                    : static_cast<double>(a.value) /
                                          static_cast<double>(oracle);
    }
    return Verdict::kCertifiedSound;
  }
  if (a.clean && a.value != kInfWeight && !within_guarantee) {
    return Verdict::kUnsound;
  }
  return Verdict::kSoundUncertified;
}

}  // namespace perfbench
