// A page of 64-bit counters in a file mapped shared, so that the load
// generator can read a running gateway's counters at phase boundaries.
// Slot names are listed once, here, and read by name from trace.py.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>

namespace perfbench {

// X-macro so trace.py can be kept in step by reading this list.
#define PB_TRACE_SLOTS(X)                                              \
  X(monitor_datagrams) X(monitor_handler_ns) X(session_datagrams)     \
  X(session_handler_ns) X(tasks) X(task_ns) X(udp_sends) X(tcp_sends) \
  X(sessions_opened) X(http_fetches) X(http_fetch_ns)                 \
  X(own_endpoints) X(cache_hits) X(cache_misses) X(cache_replays)     \
  X(dir_answered) X(dir_bridged) X(dir_answer_replays)

enum Slot : int {
#define PB_ENUM(name) k_##name,
  PB_TRACE_SLOTS(PB_ENUM)
#undef PB_ENUM
  kSlotCount
};

class CounterPage {
 public:
  /// Maps `path` (created if missing); with a null path the counters live
  /// in process memory only.
  explicit CounterPage(const char* path) {
    if (path != nullptr) {
      int fd = ::open(path, O_RDWR | O_CREAT | O_CLOEXEC, 0644);
      if (fd >= 0) {
        if (::ftruncate(fd, sizeof(local_)) == 0) {
          void* p = ::mmap(nullptr, sizeof(local_), PROT_READ | PROT_WRITE,
                           MAP_SHARED, fd, 0);
          if (p != MAP_FAILED) slots_ = static_cast<std::uint64_t*>(p);
        }
        ::close(fd);
      }
    }
  }
  ~CounterPage() {
    if (slots_ != local_) ::munmap(slots_, sizeof(local_));
  }
  CounterPage(const CounterPage&) = delete;
  CounterPage& operator=(const CounterPage&) = delete;

  void add(Slot slot, std::uint64_t v) {
    std::atomic_ref<std::uint64_t>(slots_[slot]).fetch_add(
        v, std::memory_order_relaxed);
  }
  void set(Slot slot, std::uint64_t v) {
    std::atomic_ref<std::uint64_t>(slots_[slot]).store(
        v, std::memory_order_relaxed);
  }

 private:
  alignas(64) std::uint64_t local_[kSlotCount] = {};
  std::uint64_t* slots_ = local_;
};

}  // namespace perfbench
