#pragma once
// Hardware event counts for the calling process, through
// perf_event_open(2): user-space instructions retired. Unlike time, the
// count does not move with memory layout (stack offset, heap placement,
// code alignment), so it tells a change that does less work from one
// that only lands differently in memory.
//
// The counter is unavailable where the kernel refuses the event: no PMU
// (many virtual machines), a seccomp filter, perf_event_paranoid 3, or a
// platform other than Linux. Callers then leave the reading out, and
// error() says why.

#include <cstdint>

namespace symcolor {

/// User-space instructions retired by the calling thread and the threads
/// it starts afterwards, counted from construction.
class InstructionCounter {
 public:
  InstructionCounter();
  ~InstructionCounter();
  InstructionCounter(const InstructionCounter&) = delete;
  InstructionCounter& operator=(const InstructionCounter&) = delete;

  /// False when perf_event_open failed.
  [[nodiscard]] bool available() const noexcept { return fd_ >= 0; }
  /// The errno of the failed perf_event_open (ENOSYS off Linux); 0 when
  /// available. ENOENT: the kernel has no such hardware event (no PMU).
  [[nodiscard]] int error() const noexcept { return error_; }
  /// Instructions since construction; -1 when unavailable.
  [[nodiscard]] std::int64_t read() const;

 private:
  int fd_ = -1;
  int error_ = 0;
};

}  // namespace symcolor
