/* Syscall and allocation counting shim, preloaded into indissd.
 *
 * Counts (and, for syscalls, times) the calls the live backend makes into
 * the kernel, plus every malloc/calloc/realloc of the whole process. The
 * counters live in a file named by PB_SHIM_FILE, mapped shared, so that the
 * load generator can read them at phase boundaries while the daemon runs.
 * The slot order is the one perfbench/trace.py reads (SHIM_SLOTS).
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <stdint.h>
#include <stdlib.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

enum {
  kRecvmsg, kSendto, kEpollWait, kEpollWakeups, kTimerfdArms, kSyscallNs,
  kEpollNs, kConnects, kMallocs, kMallocBytes, kSends, kRecvs, kSlots
};

static uint64_t fallback[kSlots];
static uint64_t* counters = fallback;

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);

static ssize_t (*real_recvmsg)(int, struct msghdr*, int);
static ssize_t (*real_sendto)(int, const void*, size_t, int,
                              const struct sockaddr*, socklen_t);
static ssize_t (*real_send)(int, const void*, size_t, int);
static ssize_t (*real_recv)(int, void*, size_t, int);
static int (*real_epoll_wait)(int, struct epoll_event*, int, int);
static int (*real_timerfd_settime)(int, int, const struct itimerspec*,
                                   struct itimerspec*);
static int (*real_connect)(int, const struct sockaddr*, socklen_t);

static inline uint64_t now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (uint64_t)ts.tv_sec * 1000000000ull + (uint64_t)ts.tv_nsec;
}

static inline void add(int slot, uint64_t v) {
  __atomic_fetch_add(&counters[slot], v, __ATOMIC_RELAXED);
}

__attribute__((constructor)) static void shim_init(void) {
  real_recvmsg = dlsym(RTLD_NEXT, "recvmsg");
  real_sendto = dlsym(RTLD_NEXT, "sendto");
  real_send = dlsym(RTLD_NEXT, "send");
  real_recv = dlsym(RTLD_NEXT, "recv");
  real_epoll_wait = dlsym(RTLD_NEXT, "epoll_wait");
  real_timerfd_settime = dlsym(RTLD_NEXT, "timerfd_settime");
  real_connect = dlsym(RTLD_NEXT, "connect");
  const char* path = getenv("PB_SHIM_FILE");
  if (path == NULL) return;
  int fd = open(path, O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return;
  if (ftruncate(fd, sizeof(fallback)) == 0) {
    void* p = mmap(NULL, sizeof(fallback), PROT_READ | PROT_WRITE,
                   MAP_SHARED, fd, 0);
    if (p != MAP_FAILED) counters = p;
  }
  close(fd);
}

void* malloc(size_t n) {
  add(kMallocs, 1);
  add(kMallocBytes, n);
  return __libc_malloc(n);
}

void* calloc(size_t n, size_t size) {
  add(kMallocs, 1);
  add(kMallocBytes, n * size);
  return __libc_calloc(n, size);
}

void* realloc(void* p, size_t n) {
  add(kMallocs, 1);
  add(kMallocBytes, n);
  return __libc_realloc(p, n);
}

#define TIMED(slot, call)          \
  uint64_t t0 = now_ns();          \
  __typeof__(call) r = call;       \
  add(kSyscallNs, now_ns() - t0);  \
  add(slot, 1);                    \
  return r

ssize_t recvmsg(int fd, struct msghdr* msg, int flags) {
  TIMED(kRecvmsg, real_recvmsg(fd, msg, flags));
}

ssize_t sendto(int fd, const void* buf, size_t len, int flags,
               const struct sockaddr* to, socklen_t tolen) {
  TIMED(kSendto, real_sendto(fd, buf, len, flags, to, tolen));
}

ssize_t send(int fd, const void* buf, size_t len, int flags) {
  TIMED(kSends, real_send(fd, buf, len, flags));
}

ssize_t recv(int fd, void* buf, size_t len, int flags) {
  TIMED(kRecvs, real_recv(fd, buf, len, flags));
}

int timerfd_settime(int fd, int flags, const struct itimerspec* value,
                    struct itimerspec* old) {
  TIMED(kTimerfdArms, real_timerfd_settime(fd, flags, value, old));
}

int connect(int fd, const struct sockaddr* addr, socklen_t len) {
  TIMED(kConnects, real_connect(fd, addr, len));
}

int epoll_wait(int epfd, struct epoll_event* events, int max, int timeout) {
  uint64_t t0 = now_ns();
  int n = real_epoll_wait(epfd, events, max, timeout);
  add(kEpollNs, now_ns() - t0);
  add(kEpollWait, 1);
  if (n > 0) add(kEpollWakeups, 1);
  return n;
}
