#include "util/perf_counters.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#endif

#include <cerrno>

namespace symcolor {

#if defined(__linux__)

InstructionCounter::InstructionCounter() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 1;
  // pid 0, cpu -1: this thread (and, inherited, its later threads) on any
  // CPU. The counter starts enabled.
  fd_ = static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, -1, PERF_FLAG_FD_CLOEXEC));
  if (fd_ < 0) {
    error_ = errno;
    fd_ = -1;
  }
}

InstructionCounter::~InstructionCounter() {
  if (fd_ >= 0) close(fd_);
}

std::int64_t InstructionCounter::read() const {
  std::uint64_t count = 0;
  if (fd_ < 0 || ::read(fd_, &count, sizeof(count)) != sizeof(count)) {
    return -1;
  }
  return static_cast<std::int64_t>(count);
}

#else

InstructionCounter::InstructionCounter() : error_(ENOSYS) {}
InstructionCounter::~InstructionCounter() = default;
std::int64_t InstructionCounter::read() const { return -1; }

#endif

}  // namespace symcolor
