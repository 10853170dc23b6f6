#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::open(std::string_view name, int parent,
                       std::uint64_t request) {
  Span s;
  s.name.assign(name);
  s.parent = parent;
  s.request = request;
  s.start = now();
  s.end = s.start;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 0 && id < static_cast<int>(spans_.size())) {
    spans_[static_cast<std::size_t>(id)].end = t;
  }
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.parent >= static_cast<int>(spans.size())) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, spans[i].end - spans[i].start - covered);
  }
  return self;
}

std::map<std::string, LayerTimes> by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerTimes> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTimes& lt = out[spans[i].name];
    ++lt.count;
    lt.total_s += spans[i].end - spans[i].start;
    lt.self_s += self[i];
  }
  return out;
}

std::string spans_jsonl(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::string out;
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
                  "\"request\": %llu, \"self\": %.9f}\n",
                  s.start, s.end, s.parent,
                  static_cast<unsigned long long>(s.request), self[i]);
    // Span names are the benchmark's own identifiers: no escaping needed.
    out += "{\"id\": " + std::to_string(i) + ", \"name\": \"" + s.name + buf;
  }
  return out;
}

}  // namespace perfbench
