#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.q = q;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const double exact_rank = q * static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact_rank - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  return p;
}

Percentile highest_supported_percentile(const std::vector<double>& values,
                                        double max_q, std::size_t min_beyond) {
  for (double q : {0.999, 0.99, 0.9}) {
    if (q > max_q + 1e-12) continue;
    Percentile p = percentile(values, q);
    if (p.beyond >= min_beyond) return p;
  }
  return percentile(values, 0.5);
}

}  // namespace perfbench
