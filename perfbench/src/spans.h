// Spans for the traced run: the benchmark brackets each call it makes into a
// library layer with a named span. Spans stay in memory and are written out
// once, when the run ends; a layer's self time is its span's duration minus
// the part of that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0;  // seconds since the recorder's epoch
  double end = 0;
  int parent = -1;   // index of the enclosing span, -1 for a root
  std::uint64_t request = 0;
};

// Thread-safe in-memory span store (the service workload records from two
// client threads).
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  int open(std::string_view name, int parent, std::uint64_t request);
  void close(int id);
  std::vector<Span> spans() const;

 private:
  double now() const;

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a null recorder makes it a no-op, which is how the timed
// (untraced) runs use the same code paths.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view name, int parent = -1,
             std::uint64_t request = 0)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, parent, request) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { close(); }

  int id() const { return id_; }
  void close() {
    if (rec_ != nullptr) rec_->close(id_);
    rec_ = nullptr;
  }

 private:
  SpanRecorder* rec_;
  int id_;
};

// self[i] = duration of spans[i] minus the union of its children's
// intervals clipped to it (children may overlap one another).
std::vector<double> self_times(const std::vector<Span>& spans);

struct LayerTimes {
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
};

// Per span name: span count plus summed total and self time.
std::map<std::string, LayerTimes> by_name(const std::vector<Span>& spans);

// One JSON object per span: name, start, end, parent, request, self.
std::string spans_jsonl(const std::vector<Span>& spans);

}  // namespace perfbench
