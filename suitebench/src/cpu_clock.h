#pragma once
// CPU-time stopwatch for the benchmark's timings. Every workload solves on
// one thread, so the process's CPU time is its wall time minus the time the
// core was taken away from it: by other processes, and on a virtual machine
// by the host (steal time). Leaving that out keeps the figures steady on a
// shared machine; the wall time is recorded next to it.

#include <time.h>

namespace suitebench {

/// CPU seconds used so far by every thread of this process.
inline double process_cpu_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Starts on construction, like symcolor::Timer.
class CpuTimer {
 public:
  CpuTimer() noexcept : start_(process_cpu_seconds()) {}
  [[nodiscard]] double seconds() const noexcept {
    return process_cpu_seconds() - start_;
  }

 private:
  double start_;
};

}  // namespace suitebench
