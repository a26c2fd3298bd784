#pragma once
// In-memory span recorder for the traced run. Spans are opened around the
// benchmark's own calls into each library layer; nothing inside the
// library is instrumented. A span's parent is the span open when it began,
// so a layer's self time is its duration minus that of its children.

#include <string>
#include <utility>
#include <vector>

#include "cpu_clock.h"

namespace suitebench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string instance;
    int parent = -1;
    double start = 0.0;  ///< CPU seconds since the tracer was created
    double end = 0.0;
  };

  int begin(std::string name, std::string instance) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), std::move(instance), parent, now(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() {
    spans_.clear();
    open_.clear();
  }

 private:
  [[nodiscard]] double now() const { return origin_.seconds(); }

  CpuTimer origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Closes its span on scope exit, exceptions included.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string instance)
      : tracer_(tracer), id_(tracer.begin(std::move(name), std::move(instance))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace suitebench
