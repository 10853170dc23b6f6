// Order statistics for the benchmark's timing samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Median of `values` (mean of the two middle samples for even counts);
// 0 for an empty vector.
double median(std::vector<double> values);

// A tail percentile together with the evidence behind it.
struct Percentile {
  double q = 0;             // the percentile reported, in (0, 1]
  double value = 0;         // its nearest-rank sample
  std::size_t samples = 0;  // sample count
  std::size_t beyond = 0;   // samples ranked strictly above it
};

// Nearest-rank percentile q of `values` (q in (0, 1]).
Percentile percentile(std::vector<double> values, double q);

// The highest of p90, p99 and p99.9, capped at `max_q`, that has at least
// `min_beyond` samples beyond it. With fewer samples than that the median
// is reported (its `beyond` shows how little a tail would rest on); the
// sample maximum would jump whenever the sample count crossed a threshold.
Percentile highest_supported_percentile(const std::vector<double>& values,
                                        double max_q = 0.999,
                                        std::size_t min_beyond = 10);

}  // namespace perfbench
