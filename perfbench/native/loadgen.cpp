// pb_loadgen: the closed-loop load generator — the native clients and the
// native services of each SDP, driving a running gateway over loopback.
//
//   pb_loadgen --workload lookup|churn|directory --seed N --inflight K
//              --ops N [--gw-pid P]
//              [--page FILE:SLOTS]... [--samples FILE] [--oplog FILE]
//              [--frames FILE] [--fresh-sockets 0|1]
//
// One thread, one epoll reactor. Each workload owns its fleet (the native
// services the gateway bridges to) and one client slot per operation in
// flight; an operation is timed from the client's first send to the moment
// its answer has been checked with the codecs of wire.hpp. The run is:
// codec self-check, fleet set-up and warm-up, a quiesced boundary (gateway
// CPU and counter pages read), the measured phase — `--ops` operations,
// rounded up to whole rounds of the workload's operation mix — and a second
// quiesced boundary. One JSON object on stdout reports it.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "wire.hpp"

namespace {

using pbwire::Bytes;

constexpr std::uint64_t kMs = 1000000;
constexpr std::uint64_t kOpTimeoutNs = 2000 * kMs;
constexpr std::uint64_t kRetransmitNs = 250 * kMs;
constexpr int kWarmupRounds = 4;
// churn's fleet: above the translation cache's 256 entries on each of the
// gateway's two shards, so the cache cannot hold it.
constexpr std::uint64_t kChurnResident = 600;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "pb_loadgen: %s: %s\n", what.c_str(),
               std::strerror(errno));
  std::exit(1);
}

// --- Reactor -------------------------------------------------------------------

class Reactor {
 public:
  using Handler = std::function<void(std::uint32_t)>;

  Reactor() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epfd_ < 0) die("epoll_create1");
  }
  ~Reactor() { ::close(epfd_); }
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void watch(int fd, std::uint32_t events, Handler h) {
    handlers_[fd] = std::make_shared<Handler>(std::move(h));
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) die("epoll_ctl add");
  }
  void modify(int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0) die("epoll_ctl mod");
  }
  void unwatch(int fd) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    handlers_.erase(fd);
  }

  std::uint64_t later(std::uint64_t delay_ns, std::function<void()> cb) {
    std::uint64_t id = next_id_++;
    timers_.emplace(id, std::move(cb));
    heap_.emplace(now_ns() + delay_ns, id);
    return id;
  }
  void cancel(std::uint64_t id) { timers_.erase(id); }

  /// Runs until done(); exits the process when deadline_ns passes first.
  void run_until(const std::function<bool()>& done, std::uint64_t deadline_ns) {
    epoll_event events[64];
    while (!done()) {
      std::uint64_t now = now_ns();
      if (now > deadline_ns) {
        errno = ETIMEDOUT;
        die("run deadline passed");
      }
      std::uint64_t wake = deadline_ns;
      while (!heap_.empty() && !timers_.count(heap_.top().second)) heap_.pop();
      if (!heap_.empty()) wake = std::min(wake, heap_.top().first);
      int timeout_ms = wake <= now ? 0
                                   : static_cast<int>((wake - now + kMs - 1) /
                                                      kMs);
      int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
      for (int i = 0; i < n; ++i) {
        auto it = handlers_.find(events[i].data.fd);
        if (it == handlers_.end()) continue;
        std::shared_ptr<Handler> h = it->second;  // may unwatch itself
        (*h)(events[i].events);
      }
      now = now_ns();
      while (!heap_.empty() && heap_.top().first <= now) {
        std::uint64_t id = heap_.top().second;
        heap_.pop();
        auto it = timers_.find(id);
        if (it == timers_.end()) continue;
        auto cb = std::move(it->second);
        timers_.erase(it);
        cb();
      }
    }
  }

  void pause(std::uint64_t ns, std::uint64_t deadline_ns) {
    bool woke = false;
    later(ns, [&woke] { woke = true; });
    run_until([&woke] { return woke; }, deadline_ns);
  }

 private:
  int epfd_;
  std::unordered_map<int, std::shared_ptr<Handler>> handlers_;
  using Entry = std::pair<std::uint64_t, std::uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_map<std::uint64_t, std::function<void()>> timers_;
  std::uint64_t next_id_ = 1;
};

// --- Sockets -------------------------------------------------------------------

sockaddr_in addr(const char* ip, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, ip, &sa.sin_addr);
  return sa;
}

void mcast_egress(int fd) {
  in_addr lo{};
  lo.s_addr = htonl(INADDR_LOOPBACK);
  int ttl = 1;
  int loop = 1;
  ::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_IF, &lo, sizeof(lo));
  ::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof(ttl));
  ::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof(loop));
}

std::uint16_t bound_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
  return ntohs(sa.sin_port);
}

int udp_socket() {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket");
  int buf = 1 << 21;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  sockaddr_in sa = addr("0.0.0.0", 0);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    die("bind");
  }
  mcast_egress(fd);
  return fd;
}

/// A socket on a well-known SDP port, shared with the gateway's own (which
/// sets SO_REUSEPORT too), joined to the group on lo.
int group_listener(const char* group, std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket");
  int one = 1;
  int buf = 1 << 22;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  sockaddr_in sa = addr("0.0.0.0", port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    die("bind well-known port");
  }
  ip_mreqn m{};
  ::inet_pton(AF_INET, group, &m.imr_multiaddr);
  m.imr_address.s_addr = htonl(INADDR_LOOPBACK);
  if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &m, sizeof(m)) != 0) {
    die("IP_ADD_MEMBERSHIP");
  }
  mcast_egress(fd);
  return fd;
}

void send_to(int fd, const void* data, std::size_t n, const sockaddr_in& to) {
  if (::sendto(fd, data, n, 0, reinterpret_cast<const sockaddr*>(&to),
               sizeof(to)) < 0) {
    die("sendto");
  }
}
void send_to(int fd, const Bytes& b, const sockaddr_in& to) {
  send_to(fd, b.data(), b.size(), to);
}
void send_to(int fd, const std::string& s, const sockaddr_in& to) {
  send_to(fd, s.data(), s.size(), to);
}

/// Every datagram queued on a non-blocking socket.
template <typename F>
void drain(int fd, F&& on_datagram) {
  static std::uint8_t buf[65536];
  while (true) {
    sockaddr_in src{};
    socklen_t len = sizeof(src);
    ssize_t n = ::recvfrom(fd, buf, sizeof(buf), 0,
                           reinterpret_cast<sockaddr*>(&src), &len);
    if (n < 0) return;
    on_datagram(buf, static_cast<std::size_t>(n), src);
  }
}

std::string_view view(const std::uint8_t* p, std::size_t n) {
  return {reinterpret_cast<const char*>(p), n};
}

class HttpServer {
 public:
  explicit HttpServer(Reactor& r) : r_(r) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa = addr("127.0.0.1", 0);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(fd_, 256) != 0) {
      die("http listen");
    }
    port_ = bound_port(fd_);
    r_.watch(fd_, EPOLLIN, [this](std::uint32_t) { accept_all(); });
  }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  std::uint16_t port() const { return port_; }
  std::map<std::string, std::string> routes;

 private:
  void accept_all() {
    while (true) {
      int c = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (c < 0) return;
      auto buf = std::make_shared<std::string>();
      r_.watch(c, EPOLLIN, [this, c, buf](std::uint32_t) {
        char tmp[4096];
        ssize_t n = ::recv(c, tmp, sizeof(tmp), 0);
        if (n < 0 && errno == EAGAIN) return;
        if (n > 0) buf->append(tmp, static_cast<std::size_t>(n));
        auto end = buf->find("\r\n\r\n");
        if (n > 0 && end == std::string::npos) return;
        if (end != std::string::npos) {
          auto sp1 = buf->find(' ');
          auto sp2 = buf->find(' ', sp1 + 1);
          auto it = routes.find(buf->substr(sp1 + 1, sp2 - sp1 - 1));
          if (it != routes.end()) {
            std::string resp = pbwire::http_ok(it->second);
            ::send(c, resp.data(), resp.size(), MSG_NOSIGNAL);
          }
        }
        r_.unwatch(c);
        ::close(c);
      });
    }
  }

  Reactor& r_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Non-blocking GET of one http://127.0.0.1:port/path URL.
class HttpFetch {
 public:
  using Done = std::function<void(std::optional<std::string>, std::string)>;

  HttpFetch(Reactor& r, const std::string& url, Done done)
      : r_(r), done_(std::move(done)) {
    std::string_view rest(url);
    if (rest.substr(0, 7) != "http://") {
      fail_later("not an http URL: " + url);
      return;
    }
    rest.remove_prefix(7);
    auto slash = rest.find('/');
    std::string_view hostport = rest.substr(0, slash);
    std::string path(slash == std::string_view::npos ? "/" : rest.substr(slash));
    auto colon = hostport.find(':');
    std::string host(hostport.substr(0, colon));
    auto port = static_cast<std::uint16_t>(
        colon == std::string_view::npos
            ? 80
            : std::stoul(std::string(hostport.substr(colon + 1))));
    request_ = pbwire::http_get(path, hostport);
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in sa = addr(host.c_str(), port);
    ::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    port_ = bound_port(fd_);
    r_.watch(fd_, EPOLLOUT, [this](std::uint32_t ev) { on_event(ev); });
  }
  ~HttpFetch() { close_fd(); }
  HttpFetch(const HttpFetch&) = delete;
  HttpFetch& operator=(const HttpFetch&) = delete;

  std::uint16_t local_port() const { return port_; }

 private:
  void on_event(std::uint32_t ev) {
    if (!sent_) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0 || (ev & (EPOLLERR | EPOLLHUP))) {
        return finish(std::nullopt, "connect failed");
      }
      ::send(fd_, request_.data(), request_.size(), MSG_NOSIGNAL);
      sent_ = true;
      r_.modify(fd_, EPOLLIN);
      return;
    }
    char tmp[8192];
    ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n < 0 && errno == EAGAIN) return;
    if (n > 0) buf_.append(tmp, static_cast<std::size_t>(n));
    try {
      if (auto body = pbwire::http_body(buf_)) return finish(body, "");
    } catch (const std::exception& e) {
      return finish(std::nullopt, e.what());
    }
    if (n <= 0) finish(std::nullopt, "connection closed before the body");
  }
  void fail_later(std::string err) {
    r_.later(0, [this, err] { finish(std::nullopt, err); });
  }
  void close_fd() {
    if (fd_ < 0) return;
    r_.unwatch(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  /// The callback may destroy this object: nothing touches a member after.
  void finish(std::optional<std::string> body, std::string err) {
    close_fd();
    Done done = std::move(done_);
    if (done) done(std::move(body), std::move(err));
  }

  Reactor& r_;
  Done done_;
  std::string request_;
  std::string buf_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  bool sent_ = false;
};

// --- Workloads and the closed loop ------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Operations in one round of the mix; phases end on whole rounds.
  virtual int round() const = 0;
  virtual void start(int slot, std::uint64_t seq) = 0;
  virtual void abandon(int /*slot*/) {}
  /// Which latency class an operation belongs to (lookup's two directions).
  virtual int kind(std::uint64_t /*seq*/) const { return 0; }
  virtual std::vector<std::string> kind_names() const { return {"all"}; }

  /// Set by the closed loop: completes the operation in flight on a slot.
  std::function<void(int, bool)> finish;
  /// slot -> what ties the gateway's spans to its operation: "p:" and the
  /// client ports, or "t:" and the device identity.
  std::vector<std::string> keys;
  std::vector<std::string> errors;
  std::map<std::string, std::vector<std::string>> captured;  // kind -> frames
  std::uint64_t retransmits = 0;
  /// Latency classes that end before the operation does (ns samples).
  std::map<std::string, std::vector<std::uint64_t>> extra;

  void error(const std::string& e) {
    if (errors.size() < 20) errors.push_back(e);
  }
  void capture(const std::string& kind, std::string_view frame) {
    auto& list = captured[kind];
    if (list.size() < 16) list.emplace_back(frame);
  }
};

struct Phase {
  std::vector<std::uint64_t> samples;
  std::vector<std::vector<std::uint64_t>> by_kind;
  std::uint64_t launched = 0;
  std::uint64_t failed = 0;
};

struct OpRecord {
  std::uint64_t t0, t1;
  std::string key;
};

class ClosedLoop {
 public:
  ClosedLoop(Reactor& r, int inflight) : r_(r), slots_(inflight) {}

  std::uint64_t seq = 0;
  std::vector<OpRecord>* oplog = nullptr;

  /// Launches operations until `count` is reached, rounded up to whole
  /// rounds, then drains what is in flight.
  Phase run(Workload& wl, std::uint64_t count, std::uint64_t deadline) {
    Phase ph;
    ph.by_kind.resize(wl.kind_names().size());
    wl_ = &wl;
    phase_ = &ph;
    count_ = count;
    stopping_ = false;
    active_ = 0;
    wl.keys.assign(slots_.size(), "");
    wl.finish = [this](int slot, bool ok) { complete(slot, ok); };
    for (int s = 0; s < static_cast<int>(slots_.size()); ++s) launch(s);
    r_.run_until([this] { return active_ == 0; }, deadline);
    wl_ = nullptr;
    phase_ = nullptr;
    return ph;
  }

 private:
  struct Slot {
    bool busy = false;
    std::uint64_t t0 = 0;
    std::uint64_t seq = 0;
    std::uint64_t timer = 0;
  };

  bool should_stop() const {
    std::uint64_t n = phase_->launched;
    return n % static_cast<std::uint64_t>(wl_->round()) == 0 && n >= count_;
  }

  void launch(int slot) {
    if (stopping_ || should_stop()) {
      stopping_ = true;
      return;
    }
    Slot& s = slots_[slot];
    s.busy = true;
    s.seq = seq++;
    s.t0 = now_ns();
    phase_->launched += 1;
    active_ += 1;
    std::uint64_t op = s.seq;
    s.timer = r_.later(kOpTimeoutNs, [this, slot, op] {
      Slot& t = slots_[slot];
      if (!t.busy || t.seq != op) return;
      // A lost operation fails; it says nothing about the answers that
      // did arrive, so it is not an output error.
      wl_->abandon(slot);
      std::fprintf(stderr, "pb_loadgen: operation %llu timed out\n",
                   static_cast<unsigned long long>(op));
      end(slot, false);
    });
    wl_->start(slot, s.seq);
  }

  void complete(int slot, bool ok) {
    Slot& s = slots_[slot];
    if (!s.busy) return;
    r_.cancel(s.timer);
    end(slot, ok);
  }

  void end(int slot, bool ok) {
    Slot& s = slots_[slot];
    s.busy = false;
    active_ -= 1;
    if (ok) {
      std::uint64_t t1 = now_ns();
      phase_->samples.push_back(t1 - s.t0);
      phase_->by_kind[static_cast<std::size_t>(wl_->kind(s.seq))].push_back(
          t1 - s.t0);
      if (oplog != nullptr) oplog->push_back({s.t0, t1, wl_->keys[slot]});
    } else {
      phase_->failed += 1;
    }
    launch(slot);
  }

  Reactor& r_;
  std::vector<Slot> slots_;
  Workload* wl_ = nullptr;
  Phase* phase_ = nullptr;
  std::uint64_t count_ = 0;
  bool stopping_ = false;
  int active_ = 0;
};

std::string hex4(std::mt19937_64& rng) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%04x",
                static_cast<unsigned>(rng() & 0xFFFF));
  return buf;
}

template <typename T>
T pick(std::mt19937_64& rng, const std::vector<T>& from) {
  return from[rng() % from.size()];
}

template <typename T>
std::vector<T> sample(std::mt19937_64& rng, std::vector<T> from,
                      std::size_t n) {
  std::shuffle(from.begin(), from.end(), rng);
  from.resize(n);
  return from;
}

const std::vector<std::string> kDeviceTypes = {"clock", "tv", "light",
                                               "camera", "speaker", "fan"};
const std::vector<std::string> kSlpTypes = {"printer", "scanner", "fax",
                                            "projector"};
const std::vector<std::string> kDnssdTypeNames = {"printer", "scanner", "nas",
                                              "media", "display", "sensor",
                                              "lock", "thermo"};

std::string device_urn(const std::string& kind) {
  return "urn:schemas-upnp-org:device:" + kind + ":1";
}

// --- lookup --------------------------------------------------------------------

/// SLP client -> UPnP device and UPnP control point -> SLP service,
/// alternating, each bridged through the gateway's full request path.
class Lookup : public Workload {
 public:
  Lookup(Reactor& r, std::uint64_t seed, int inflight)
      : r_(r), rng_(seed), http_(r) {
    std::string tag = std::to_string(seed) + "-" + hex4(rng_);
    dev_kind_ = pick(rng_, kDeviceTypes);
    slp_kind_ = pick(rng_, kSlpTypes);
    dev_type_ = device_urn(dev_kind_);
    std::string id = "pbid-" + tag;
    udn_ = "uuid:" + id;
    friendly_ = "pb " + dev_kind_ + " " + tag;
    model_name_ = dev_kind_;
    model_name_[0] = static_cast<char>(model_name_[0] - 32);
    model_number_ = std::to_string(seed % 97);
    control_ = "/" + id + "/control";
    std::string desc_path = "/" + id + "/description.xml";
    http_.routes[desc_path] = pbwire::description_xml(
        {{"deviceType", dev_type_}, {"friendlyName", friendly_},
         {"manufacturer", "perfbench"}, {"modelName", model_name_},
         {"modelNumber", model_number_}, {"UDN", udn_}},
        {{"serviceType", "urn:schemas-upnp-org:service:" + dev_kind_ + ":1"},
         {"serviceId", "urn:upnp-org:serviceId:" + dev_kind_},
         {"SCPDURL", "/" + id + "/scpd.xml"}, {"controlURL", control_},
         {"eventSubURL", "/" + id + "/event"}});
    location_ = "http://127.0.0.1:" + std::to_string(http_.port()) + desc_path;
    slp_access_ = "lpr://127.0.0.1:515/" + id;
    slp_url_ = "service:" + slp_kind_ + ":" + slp_access_;
    // What a native SLP client must be handed for the device: its absolute
    // control URL (RFC 2608 concrete URL) with the description's identity
    // folded in as attributes (paper Fig 4).
    expect_access_ = "soap://127.0.0.1:" + std::to_string(http_.port()) +
                     control_;
    expect_attrs_ = {{"friendlyName", friendly_},
                     {"manufacturer", "perfbench"},
                     {"modelName", model_name_},
                     {"modelNumber", model_number_},
                     {"major", "1"},
                     {"minor", "0"}};
    dev_fd_ = group_listener(pbwire::kSsdpGroup, pbwire::kSsdpPort);
    sa_fd_ = group_listener(pbwire::kSlpGroup, pbwire::kSlpPort);
    r_.watch(dev_fd_, EPOLLIN, [this](std::uint32_t) { on_device(); });
    r_.watch(sa_fd_, EPOLLIN, [this](std::uint32_t) { on_sa(); });
    slots_.resize(static_cast<std::size_t>(inflight));
    for (int k = 0; k < inflight; ++k) {
      Slot& s = slots_[static_cast<std::size_t>(k)];
      s.slp_fd = udp_socket();
      s.ssdp_fd = udp_socket();
      r_.watch(s.slp_fd, EPOLLIN, [this, k](std::uint32_t) { on_slp(k); });
      r_.watch(s.ssdp_fd, EPOLLIN, [this, k](std::uint32_t) { on_ssdp(k); });
    }
    xid_ = static_cast<std::uint16_t>(1 + rng_() % 30000);
  }

  /// A new client socket, so a new ephemeral port, for every lookup (the
  /// `faults.py own-endpoints` reproduction); off in the workload.
  bool fresh_sockets = false;

  int round() const override { return 2; }
  int kind(std::uint64_t seq) const override { return seq % 2 == 0 ? 0 : 1; }
  std::vector<std::string> kind_names() const override {
    return {"slp_to_upnp", "upnp_to_slp"};
  }

  void start(int slot, std::uint64_t seq) override {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    xid_ = static_cast<std::uint16_t>(xid_ % 60000 + 1);
    s.op += 1;
    s.t0 = now_ns();
    s.pending = true;
    s.xid = xid_;
    s.slp = seq % 2 == 0;
    if (fresh_sockets) reopen(slot, s.slp);
    if (s.slp) {
      s.frame = pbwire::slp_srvrqst(xid_, "service:" + dev_kind_);
      s.fd = s.slp_fd;
      s.dest = addr(pbwire::kSlpGroup, pbwire::kSlpPort);
    } else {
      std::string m = pbwire::ssdp_msearch(device_urn(slp_kind_));
      s.frame.assign(m.begin(), m.end());
      s.fd = s.ssdp_fd;
      s.dest = addr(pbwire::kSsdpGroup, pbwire::kSsdpPort);
    }
    keys[static_cast<std::size_t>(slot)] =
        "p:" + std::to_string(bound_port(s.fd));
    send_to(s.fd, s.frame, s.dest);
    arm_retransmit(slot, s.op);
  }

  void abandon(int slot) override {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.pending = false;
    s.fetch.reset();
  }

 private:
  struct Slot {
    int slp_fd = -1, ssdp_fd = -1, fd = -1;
    bool pending = false, slp = false;
    std::uint16_t xid = 0;
    std::uint64_t op = 0;
    std::uint64_t t0 = 0;
    Bytes frame;
    sockaddr_in dest{};
    std::unique_ptr<HttpFetch> fetch;
  };

  void reopen(int slot, bool slp) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    int& fd = slp ? s.slp_fd : s.ssdp_fd;
    r_.unwatch(fd);
    // Closed later: this may run inside the old socket's drain loop.
    r_.later(0, [old = fd] { ::close(old); });
    fd = udp_socket();
    r_.watch(fd, EPOLLIN, [this, slot, slp](std::uint32_t) {
      if (slp) {
        on_slp(slot);
      } else {
        on_ssdp(slot);
      }
    });
  }

  /// Native clients repeat an unanswered multicast request (RFC 2608
  /// multicast convergence, UPnP DA's repeated M-SEARCH).
  void arm_retransmit(int slot, std::uint64_t op) {
    r_.later(kRetransmitNs, [this, slot, op] {
      Slot& s = slots_[static_cast<std::size_t>(slot)];
      if (!s.pending || s.op != op || s.fetch) return;
      retransmits += 1;
      send_to(s.fd, s.frame, s.dest);
      arm_retransmit(slot, op);
    });
  }

  void done(int slot, bool ok) {
    slots_[static_cast<std::size_t>(slot)].pending = false;
    finish(slot, ok);
  }

  void on_device() {
    drain(dev_fd_, [this](const std::uint8_t* p, std::size_t n,
                          const sockaddr_in& src) {
      std::string_view f = view(p, n);
      if (f.substr(0, 8) != "M-SEARCH") return;
      auto h = pbwire::http_head(f);
      if (!h) return;
      const std::string& st = h->headers["ST"];
      if (st != dev_type_ && st != "ssdp:all" && st != "upnp:rootdevice") {
        return;
      }
      capture("ssdp", f);
      send_to(dev_fd_, pbwire::ssdp_response(dev_type_,
                                             udn_ + "::" + dev_type_,
                                             location_),
              src);
    });
  }

  void on_sa() {
    drain(sa_fd_, [this](const std::uint8_t* p, std::size_t n,
                         const sockaddr_in& src) {
      pbwire::Slp m;
      try {
        m = pbwire::slp_decode(p, n);
      } catch (const pbwire::DecodeError&) {
        return;
      }
      if (m.function != pbwire::kSrvRqst) return;
      if (m.type != "service:" + slp_kind_) return;
      capture("slp", view(p, n));
      send_to(sa_fd_, pbwire::slp_srvrply(m.xid, {slp_url_}), src);
    });
  }

  void on_slp(int slot) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    drain(s.slp_fd, [&](const std::uint8_t* p, std::size_t n,
                        const sockaddr_in&) {
      pbwire::Slp m;
      try {
        m = pbwire::slp_decode(p, n);
      } catch (const pbwire::DecodeError& e) {
        error(std::string("undecodable SLP reply: ") + e.what());
        return;
      }
      if (!s.pending || !s.slp || m.xid != s.xid) return;  // late answer
      capture("slp", view(p, n));
      done(slot, check_srvrply(m));
    });
  }

  bool check_srvrply(const pbwire::Slp& m) {
    if (m.function != pbwire::kSrvRply || m.error != 0 ||
        m.urls.size() != 1) {
      error("SLP reply is not a one-URL SrvRply");
      return false;
    }
    try {
      pbwire::SlpUrl u = pbwire::slp_split_url(m.urls[0].first);
      if (u.type != dev_kind_ || u.access != expect_access_) {
        error("SrvRply URL " + m.urls[0].first + ", expected access " +
              expect_access_);
        return false;
      }
      for (const auto& [k, v] : expect_attrs_) {
        auto it = u.attrs.find(k);
        if (it == u.attrs.end() || it->second != v) {
          error("SrvRply attribute " + k + " missing or not '" + v + "'");
          return false;
        }
      }
    } catch (const pbwire::DecodeError& e) {
      error(std::string("SrvRply URL: ") + e.what());
      return false;
    }
    return true;
  }

  void on_ssdp(int slot) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    drain(s.ssdp_fd, [&](const std::uint8_t* p, std::size_t n,
                         const sockaddr_in&) {
      if (!s.pending || s.slp || s.fetch) return;
      std::optional<pbwire::HttpHead> h;
      try {
        h = pbwire::http_head(view(p, n));
      } catch (const pbwire::DecodeError& e) {
        error(std::string("undecodable SSDP response: ") + e.what());
      }
      if (!h || h->headers["ST"] != device_urn(slp_kind_)) return;
      capture("ssdp", view(p, n));
      // The search response alone: what the paper's Fig 9b times.
      extra["upnp_to_slp_search"].push_back(now_ns() - s.t0);
      s.fetch = std::make_unique<HttpFetch>(
          r_, h->headers["LOCATION"],
          [this, slot](std::optional<std::string> body, std::string err) {
            on_description(slot, std::move(body), err);
          });
      keys[static_cast<std::size_t>(slot)] +=
          "," + std::to_string(s.fetch->local_port());
    });
  }

  void on_description(int slot, std::optional<std::string> body,
                      const std::string& err) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    auto keep = std::move(s.fetch);  // destroyed after this call returns
    if (!s.pending) return;
    if (!body) {
      error("description fetch from the gateway failed: " + err);
      return done(slot, false);
    }
    capture("upnp_xml", *body);
    try {
      auto type = pbwire::xml_text(*body, "deviceType");
      auto control = pbwire::xml_text(*body, "controlURL");
      if (type != device_urn(slp_kind_) || control != slp_access_) {
        error("gateway description names " + type.value_or("?") + " / " +
              control.value_or("?") + ", expected " + slp_access_);
        return done(slot, false);
      }
    } catch (const pbwire::DecodeError& e) {
      error(std::string("gateway description: ") + e.what());
      return done(slot, false);
    }
    done(slot, true);
  }

  Reactor& r_;
  std::mt19937_64 rng_;
  HttpServer http_;
  std::string dev_kind_, slp_kind_, dev_type_, udn_, friendly_, model_name_,
      model_number_, control_, location_, slp_access_, slp_url_,
      expect_access_;
  std::map<std::string, std::string> expect_attrs_;
  int dev_fd_ = -1, sa_fd_ = -1;
  std::vector<Slot> slots_;
  std::uint16_t xid_ = 0;
};

// --- churn ---------------------------------------------------------------------

/// A resident UPnP fleet turning over: the oldest device leaves
/// (ssdp:byebye) or a device with a fresh identity joins (ssdp:alive); the
/// operation completes when the bridged DNS-SD goodbye or announcement for
/// that device is heard on 224.0.0.251:5353.
class Churn : public Workload {
 public:
  Churn(Reactor& r, std::uint64_t seed) : r_(r), rng_(seed) {
    tag_ = std::to_string(seed) + "-" + hex4(rng_);
    kinds_ = sample(rng_, kDeviceTypes, 4);
    http_port_ = static_cast<std::uint16_t>(49000 + rng_() % 1000);
    sender_ = udp_socket();
    mdns_ = group_listener(pbwire::kMdnsGroup, pbwire::kMdnsPort);
    r_.watch(mdns_, EPOLLIN, [this](std::uint32_t) { on_mdns(); });
    ssdp_ = addr(pbwire::kSsdpGroup, pbwire::kSsdpPort);
  }

  /// While set, every operation is a join (fleet population).
  bool joins_only = false;

  int round() const override { return joins_only ? 1 : 2; }

  void start(int slot, std::uint64_t seq) override {
    std::string frame;
    std::size_t dev;
    bool leave = !joins_only && seq % 2 == 0 && !resident_.empty();
    if (leave) {
      dev = resident_.front();
      resident_.pop_front();
      frame = pbwire::ssdp_notify(false, devices_[dev].nt, devices_[dev].usn,
                                  "");
    } else {
      dev = new_device();
      frame = pbwire::ssdp_notify(true, devices_[dev].nt, devices_[dev].usn,
                                  devices_[dev].loc);
    }
    pending_[devices_[dev].loc] = {leave, slot, dev};
    slot_loc_[slot] = devices_[dev].loc;
    keys[static_cast<std::size_t>(slot)] = "t:" + devices_[dev].token;
    capture("ssdp", frame);
    send_to(sender_, frame, ssdp_);
  }

  void abandon(int slot) override { pending_.erase(slot_loc_[slot]); }

  /// Run-level checks: the live set rebuilt from the frames equals the
  /// resident fleet.
  void check_end() {
    std::set<std::string> resident;
    for (std::size_t d : resident_) resident.insert(devices_[d].loc);
    if (resident != live_) {
      error("live set rebuilt from mDNS frames (" +
            std::to_string(live_.size()) + ") differs from the resident " +
            "fleet (" + std::to_string(resident.size()) + ")");
    }
  }

  std::size_t resident() const { return resident_.size(); }
  std::uint64_t frames() const { return frames_; }

  std::vector<std::string> advert_frames() const {
    std::vector<std::string> out;
    for (std::size_t d : resident_) {
      out.push_back(pbwire::ssdp_notify(true, devices_[d].nt, devices_[d].usn,
                                        devices_[d].loc));
    }
    return out;
  }

 private:
  struct Device {
    std::string loc, usn, nt, token;
  };
  struct Pending {
    bool leave;
    int slot;
    std::size_t dev;
  };

  std::size_t new_device() {
    std::size_t n = devices_.size();
    const std::string& kind = kinds_[n % kinds_.size()];
    char num[16];
    std::snprintf(num, sizeof(num), "%06zu", n);
    Device d;
    d.token = "pbid-" + tag_ + "-" + num;
    d.nt = device_urn(kind);
    d.loc = "http://127.0.0.1:" + std::to_string(http_port_) + "/" + d.token +
            "/description.xml";
    d.usn = "uuid:" + d.token + "::" + d.nt;
    devices_.push_back(std::move(d));
    return n;
  }

  void on_mdns() {
    drain(mdns_, [this](const std::uint8_t* p, std::size_t n,
                        const sockaddr_in&) {
      if (n < 4 || (p[2] & 0x80) == 0) return;  // a query
      pbwire::DnsMessage m;
      try {
        m = pbwire::dns_decode(p, n);
      } catch (const pbwire::DecodeError& e) {
        error(std::string("undecodable mDNS frame: ") + e.what());
        return;
      }
      auto urls = pbwire::dns_txt_urls(m);
      if (urls.empty()) return;
      frames_ += 1;
      capture("mdns", view(p, n));
      std::set<std::uint32_t> ttls;
      for (const auto* sec : {&m.answers, &m.additionals}) {
        for (const auto& rec : *sec) {
          if (rec.name != pbwire::kBridgeMarker) ttls.insert(rec.ttl);
        }
      }
      const std::string& loc = urls[0].first;
      bool goodbye = ttls.size() == 1 && *ttls.begin() == 0;
      if (urls.size() != 1 || (!goodbye && ttls.count(0))) {
        error("mDNS frame mixes services or TTLs for " + loc);
      }
      if (goodbye) {
        live_.erase(loc);
      } else {
        live_.insert(loc);
      }
      auto it = pending_.find(loc);
      if (it == pending_.end()) {
        error("mDNS frame for " + loc + " matches no operation");
        return;
      }
      Pending pd = it->second;
      pending_.erase(it);
      if (pd.leave != goodbye) {
        error(std::string(pd.leave ? "leave" : "join") + " of " + loc +
              " answered by the wrong kind of frame");
        return finish(pd.slot, false);
      }
      if (!pd.leave) resident_.push_back(pd.dev);
      finish(pd.slot, true);
    });
  }

  Reactor& r_;
  std::mt19937_64 rng_;
  std::string tag_;
  std::vector<std::string> kinds_;
  std::uint16_t http_port_ = 0;
  int sender_ = -1, mdns_ = -1;
  sockaddr_in ssdp_{};
  std::vector<Device> devices_;
  std::deque<std::size_t> resident_;
  std::unordered_map<std::string, Pending> pending_;
  std::unordered_map<int, std::string> slot_loc_;
  std::set<std::string> live_;
  std::uint64_t frames_ = 0;
};

// --- directory -------------------------------------------------------------------

/// Browses answered from the gateway's index while the fleet re-announces
/// byte-identical frames in the background.
class Directory : public Workload {
 public:
  // 6 x 4 devices + 8 services = 32 members: within the translation cache's
  // 256 entries and 64 open sessions (README.md).
  static constexpr std::size_t kUpnpTypes = 6;
  static constexpr int kDevicesPerType = 4;
  static constexpr std::size_t kDnssdTypes = 8;
  static constexpr std::uint64_t kReannounceNs = 250 * kMs;

  Directory(Reactor& r, std::uint64_t seed, int inflight)
      : r_(r), rng_(seed) {
    tag_ = std::to_string(seed) + "-" + hex4(rng_);
    auto http_port = std::to_string(49000 + rng_() % 1000);
    auto ukinds = sample(rng_, kDeviceTypes, kUpnpTypes);
    auto dkinds = sample(rng_, kDnssdTypeNames, kDnssdTypes);
    // The fleet: UPnP devices (several per type) and DNS-SD services (one
    // per type: a gateway answers an M-SEARCH with one device).
    for (const auto& kind : ukinds) {
      for (int i = 0; i < kDevicesPerType; ++i) {
        std::string id = "pbid-" + tag_ + "-" + kind + "-" + std::to_string(i);
        std::string loc =
            "http://127.0.0.1:" + http_port + "/" + id + "/description.xml";
        expected_[kind].insert(loc);
        std::string f = pbwire::ssdp_notify(true, device_urn(kind),
                                            "uuid:" + id + "::" +
                                                device_urn(kind),
                                            loc);
        fleet_.push_back({true, Bytes(f.begin(), f.end())});
      }
    }
    for (const auto& kind : dkinds) {
      std::string id = "pbid-" + tag_ + "-" + kind;
      std::string url = "ipp://127.0.0.1:631/" + id;
      expected_[kind] = {url};
      fleet_.push_back({false, pbwire::dns_encode(pbwire::dnssd_announcement(
                                   kind, id, 631, url, 120))});
    }
    // One round of reads: every (client SDP, type) pair a native client of
    // another SDP can browse, in a seeded order.
    for (const auto& k : ukinds) plan_.push_back({Sdp::kSlp, k});
    for (const auto& k : dkinds) plan_.push_back({Sdp::kSlp, k});
    for (const auto& k : ukinds) plan_.push_back({Sdp::kMdns, k});
    for (const auto& k : dkinds) plan_.push_back({Sdp::kUpnp, k});
    std::shuffle(plan_.begin(), plan_.end(), rng_);

    sender_ = udp_socket();
    sniffers_[0] = group_listener(pbwire::kSsdpGroup, pbwire::kSsdpPort);
    sniffers_[1] = group_listener(pbwire::kSlpGroup, pbwire::kSlpPort);
    sniffers_[2] = group_listener(pbwire::kMdnsGroup, pbwire::kMdnsPort);
    for (int i = 0; i < 3; ++i) {
      r_.watch(sniffers_[i], EPOLLIN, [this, i](std::uint32_t) { sniff(i); });
    }
    slots_.resize(static_cast<std::size_t>(inflight));
    for (int k = 0; k < inflight; ++k) {
      slots_[static_cast<std::size_t>(k)].fd = udp_socket();
      r_.watch(slots_[static_cast<std::size_t>(k)].fd, EPOLLIN,
               [this, k](std::uint32_t) { on_reply(k); });
    }
    xid_ = static_cast<std::uint16_t>(1 + rng_() % 30000);
  }

  /// Counts bridge-stamped queries on the origin groups while set.
  bool sniffing = false;
  std::uint64_t bridged_queries = 0;

  int round() const override { return static_cast<int>(plan_.size()); }

  void announce_all() {
    for (const auto& m : fleet_) send_to(sender_, m.frame, dest(m.ssdp));
  }

  /// Re-announces one member at a time, so that each repeats once per
  /// reannounce_s.
  void start_background() {
    std::uint64_t step = kReannounceNs / fleet_.size();
    background_ = r_.later(step, [this] {
      const Member& m = fleet_[next_member_];
      next_member_ = (next_member_ + 1) % fleet_.size();
      send_to(sender_, m.frame, dest(m.ssdp));
      start_background();
    });
  }
  void stop_background() { r_.cancel(background_); }

  void start(int slot, std::uint64_t seq) override {
    const auto& [sdp, kind] = plan_[seq % plan_.size()];
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    xid_ = static_cast<std::uint16_t>(xid_ % 60000 + 1);
    s.pending = true;
    s.sdp = sdp;
    s.kind = kind;
    s.xid = xid_;
    keys[static_cast<std::size_t>(slot)] = "p:" + std::to_string(bound_port(s.fd));
    if (sdp == Sdp::kSlp) {
      Bytes f = pbwire::slp_srvrqst(xid_, "service:" + kind);
      capture("slp", view(f.data(), f.size()));
      send_to(s.fd, f, addr(pbwire::kSlpGroup, pbwire::kSlpPort));
    } else if (sdp == Sdp::kMdns) {
      pbwire::DnsMessage q;
      q.id = xid_;
      q.questions.push_back({"_" + kind + "._tcp.local", pbwire::kTypePtr,
                             true});
      Bytes f = pbwire::dns_encode(q);
      capture("mdns", view(f.data(), f.size()));
      send_to(s.fd, f, addr(pbwire::kMdnsGroup, pbwire::kMdnsPort));
    } else {
      std::string f = pbwire::ssdp_msearch(device_urn(kind));
      capture("ssdp", f);
      send_to(s.fd, f, addr(pbwire::kSsdpGroup, pbwire::kSsdpPort));
    }
  }

  void abandon(int slot) override {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.pending = false;
    s.fetch.reset();
  }

  std::vector<std::pair<bool, Bytes>> fleet_frames() const {
    std::vector<std::pair<bool, Bytes>> out;
    for (const auto& m : fleet_) out.emplace_back(m.ssdp, m.frame);
    return out;
  }

 private:
  enum class Sdp { kSlp, kMdns, kUpnp };
  struct Member {
    bool ssdp;
    Bytes frame;
  };
  struct Slot {
    int fd = -1;
    bool pending = false;
    Sdp sdp = Sdp::kSlp;
    std::string kind;
    std::uint16_t xid = 0;
    std::unique_ptr<HttpFetch> fetch;
  };

  static sockaddr_in dest(bool ssdp) {
    return ssdp ? addr(pbwire::kSsdpGroup, pbwire::kSsdpPort)
                : addr(pbwire::kMdnsGroup, pbwire::kMdnsPort);
  }

  void sniff(int which) {
    drain(sniffers_[which], [&](const std::uint8_t* p, std::size_t n,
                                const sockaddr_in&) {
      if (!sniffing) return;
      if (which == 0) {
        std::string_view f = view(p, n);
        if (f.substr(0, 8) == "M-SEARCH" &&
            f.find("INDISS-bridge") != std::string_view::npos) {
          bridged_queries += 1;
        }
      } else if (which == 1) {
        try {
          auto m = pbwire::slp_decode(p, n);
          if (m.function == pbwire::kSrvRqst &&
              m.prlist.find("INDISS-bridge") != std::string::npos) {
            bridged_queries += 1;
          }
        } catch (const pbwire::DecodeError&) {
        }
      } else if (n >= 4 && (p[2] & 0x80) == 0) {
        try {
          if (pbwire::dns_has_marker(pbwire::dns_decode(p, n))) {
            bridged_queries += 1;
          }
        } catch (const pbwire::DecodeError&) {
        }
      }
    });
  }

  void done(int slot, bool ok) {
    slots_[static_cast<std::size_t>(slot)].pending = false;
    finish(slot, ok);
  }

  static std::string join(const std::set<std::string>& s) {
    std::string out;
    for (const auto& x : s) out += (out.empty() ? "" : " ") + x;
    return out;
  }

  void on_reply(int slot) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    drain(s.fd, [&](const std::uint8_t* p, std::size_t n,
                    const sockaddr_in&) {
      if (!s.pending || s.fetch) return;
      const std::set<std::string>& want = expected_[s.kind];
      try {
        if (s.sdp == Sdp::kSlp) {
          auto m = pbwire::slp_decode(p, n);
          if (m.function != pbwire::kSrvRply || m.xid != s.xid) return;
          capture("slp", view(p, n));
          std::set<std::string> got;
          bool types_ok = true;
          for (const auto& [url, life] : m.urls) {
            auto u = pbwire::slp_split_url(url);
            got.insert(u.access);
            types_ok = types_ok && u.type == s.kind;
          }
          bool ok = got == want && types_ok && m.error == 0;
          if (!ok) error("SLP browse " + s.kind + ": " + join(got));
          return done(slot, ok);
        }
        if (s.sdp == Sdp::kMdns) {
          auto m = pbwire::dns_decode(p, n);
          if (m.id != s.xid) return;
          capture("mdns", view(p, n));
          std::set<std::string> got;
          for (const auto& [url, ttl] : pbwire::dns_txt_urls(m)) {
            if (ttl > 0) got.insert(url);
          }
          std::size_t ptrs = 0;
          bool names_ok = true;
          for (const auto& rec : m.answers) {
            if (rec.type != pbwire::kTypePtr) continue;
            ptrs += 1;
            names_ok = names_ok && rec.name == "_" + s.kind + "._tcp.local";
          }
          bool ok = got == want && ptrs == want.size() && names_ok;
          if (!ok) error("DNS-SD browse " + s.kind + ": " + join(got));
          return done(slot, ok);
        }
        auto h = pbwire::http_head(view(p, n));
        if (!h || h->headers["ST"] != device_urn(s.kind)) return;
        capture("ssdp", view(p, n));
        s.fetch = std::make_unique<HttpFetch>(
            r_, h->headers["LOCATION"],
            [this, slot](std::optional<std::string> body, std::string err) {
              on_description(slot, std::move(body), err);
            });
        keys[static_cast<std::size_t>(slot)] +=
            "," + std::to_string(s.fetch->local_port());
      } catch (const pbwire::DecodeError& e) {
        error(std::string("undecodable answer: ") + e.what());
      }
    });
  }

  void on_description(int slot, std::optional<std::string> body,
                      const std::string& err) {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    auto keep = std::move(s.fetch);
    if (!s.pending) return;
    if (!body) {
      error("description fetch from the gateway failed: " + err);
      return done(slot, false);
    }
    capture("upnp_xml", *body);
    try {
      auto control = pbwire::xml_text(*body, "controlURL");
      auto type = pbwire::xml_text(*body, "deviceType");
      std::set<std::string> got;
      if (control) got.insert(*control);
      bool ok = got == expected_[s.kind] && type == device_urn(s.kind);
      if (!ok) error("UPnP browse " + s.kind + ": " + join(got));
      done(slot, ok);
    } catch (const pbwire::DecodeError& e) {
      error(std::string("gateway description: ") + e.what());
      done(slot, false);
    }
  }

  Reactor& r_;
  std::mt19937_64 rng_;
  std::string tag_;
  std::vector<Member> fleet_;
  std::map<std::string, std::set<std::string>> expected_;
  std::vector<std::pair<Sdp, std::string>> plan_;
  int sender_ = -1;
  int sniffers_[3] = {-1, -1, -1};
  std::vector<Slot> slots_;
  std::uint16_t xid_ = 0;
  std::uint64_t background_ = 0;
  std::size_t next_member_ = 0;
};

// --- Measurement boundaries -------------------------------------------------------

/// User+system CPU of every thread of `pid` (scheduler run time, ns).
std::uint64_t process_cpu_ns(int pid) {
  if (pid <= 0) return 0;
  std::uint64_t total = 0;
  std::string base = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = ::opendir(base.c_str());
  if (dir == nullptr) return 0;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream f(base + "/" + e->d_name + "/schedstat");
    std::uint64_t ns = 0;
    if (f >> ns) total += ns;
  }
  ::closedir(dir);
  return total;
}

double self_cpu_s() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

std::vector<std::uint64_t> read_page(const std::string& path, int slots) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(slots), 0);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return out;
  ::pread(fd, out.data(), out.size() * 8, 0);
  ::close(fd);
  return out;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double pct(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto idx = static_cast<std::size_t>(
      std::max(0.0, std::ceil(q * static_cast<double>(v.size())) - 1.0));
  return static_cast<double>(v[std::min(idx, v.size() - 1)]) / 1e6;
}

std::string hex(std::string_view s) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : s) {
    out += digits[c >> 4];
    out += digits[c & 15];
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int inflight = 4;
  std::uint64_t ops = 0;
  int gw_pid = 0;
  std::vector<std::pair<std::string, int>> pages;
  std::string samples, oplog, frames;
  bool fresh_sockets = false;
};

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--inflight") a.inflight = std::stoi(v);
    else if (k == "--ops") a.ops = std::stoull(v);
    else if (k == "--gw-pid") a.gw_pid = std::stoi(v);
    else if (k == "--samples") a.samples = v;
    else if (k == "--oplog") a.oplog = v;
    else if (k == "--frames") a.frames = v;
    else if (k == "--fresh-sockets") a.fresh_sockets = v == "1";
    else if (k == "--page") {
      auto c = v.rfind(':');
      a.pages.emplace_back(v.substr(0, c), std::stoi(v.substr(c + 1)));
    } else {
      std::fprintf(stderr, "pb_loadgen: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (a.workload != "lookup" && a.workload != "churn" &&
      a.workload != "directory") {
    std::fprintf(stderr, "pb_loadgen: --workload lookup|churn|directory\n");
    return 2;
  }
  if (a.ops == 0) {
    std::fprintf(stderr, "pb_loadgen: --ops N, N > 0\n");
    return 2;
  }
  try {
    pbwire::selfcheck();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_loadgen: %s\n", e.what());
    return 1;
  }

  const std::uint64_t deadline = now_ns() + 160000 * kMs;
  Reactor r;
  ClosedLoop loop(r, a.inflight);
  std::unique_ptr<Workload> wl;
  Churn* churn = nullptr;
  Directory* dir = nullptr;
  std::string setup_error;
  if (a.workload == "lookup") {
    auto l = std::make_unique<Lookup>(r, a.seed, a.inflight);
    l->fresh_sockets = a.fresh_sockets;
    wl = std::move(l);
  } else if (a.workload == "churn") {
    auto c = std::make_unique<Churn>(r, a.seed);
    churn = c.get();
    wl = std::move(c);
    churn->joins_only = true;
    Phase pop = loop.run(*wl, kChurnResident, deadline);
    churn->joins_only = false;
    if (pop.failed != 0) setup_error = "fleet population lost joins";
  } else {
    auto d = std::make_unique<Directory>(r, a.seed, a.inflight);
    dir = d.get();
    wl = std::move(d);
    dir->announce_all();
    r.pause(50 * kMs, deadline);
    dir->start_background();
  }
  Phase warm = loop.run(*wl, static_cast<std::uint64_t>(kWarmupRounds) *
                                  static_cast<std::uint64_t>(wl->round()),
                        deadline);
  if (warm.failed != 0) setup_error = "warm-up lost operations";
  // Quiesced boundary: nothing in flight, the gateway idle.
  r.pause(10 * kMs, deadline);
  std::vector<std::vector<std::uint64_t>> pages0;
  for (const auto& [path, n] : a.pages) pages0.push_back(read_page(path, n));
  std::vector<OpRecord> oplog;
  if (!a.oplog.empty()) loop.oplog = &oplog;
  std::uint64_t cpu0 = process_cpu_ns(a.gw_pid);
  double self0 = self_cpu_s();
  wl->extra.clear();
  std::uint64_t t0 = now_ns();
  if (dir != nullptr) dir->sniffing = true;
  Phase ph = loop.run(*wl, a.ops, deadline);
  std::uint64_t t1 = now_ns();
  double self1 = self_cpu_s();
  std::uint64_t cpu1 = process_cpu_ns(a.gw_pid);
  if (dir != nullptr) {
    dir->sniffing = false;
    dir->stop_background();
  }
  loop.oplog = nullptr;
  r.pause(10 * kMs, deadline);
  std::vector<std::vector<std::uint64_t>> pages1;
  for (const auto& [path, n] : a.pages) pages1.push_back(read_page(path, n));
  if (churn != nullptr) {
    r.pause(20 * kMs, deadline);  // a straggling frame would show as an error
    churn->check_end();
  }
  if (!setup_error.empty()) wl->error(setup_error);
  if (dir != nullptr && dir->bridged_queries != 0) {
    wl->error(std::to_string(dir->bridged_queries) +
              " bridge-stamped queries left for the origin groups");
  }

  if (!a.samples.empty()) {
    std::ofstream f(a.samples, std::ios::binary);
    f.write(reinterpret_cast<const char*>(ph.samples.data()),
            static_cast<std::streamsize>(ph.samples.size() * 8));
  }
  if (!a.oplog.empty()) {
    std::ofstream f(a.oplog);
    for (const auto& op : oplog) f << op.t0 << ' ' << op.t1 << ' ' << op.key << '\n';
  }
  if (!a.frames.empty()) {
    std::ofstream f(a.frames);
    for (const auto& [kind, list] : wl->captured) {
      for (const auto& frame : list) f << kind << ' ' << hex(frame) << '\n';
    }
    if (churn != nullptr) {
      for (const auto& frame : churn->advert_frames()) {
        f << "advert_ssdp " << hex(frame) << '\n';
      }
    }
    if (dir != nullptr) {
      for (const auto& [ssdp, frame] : dir->fleet_frames()) {
        f << (ssdp ? "advert_ssdp " : "advert_mdns ")
          << hex(view(frame.data(), frame.size())) << '\n';
      }
    }
  }

  std::string out = "{";
  out += "\"attempted\": " + std::to_string(ph.launched);
  out += ", \"failed\": " + std::to_string(ph.failed);
  out += ", \"completed\": " + std::to_string(ph.samples.size());
  out += ", \"t_measure_start_ns\": " + std::to_string(t0);
  out += ", \"wall_s\": " + std::to_string(static_cast<double>(t1 - t0) / 1e9);
  out += ", \"gw_cpu_ns\": " + std::to_string(cpu1 - cpu0);
  out += ", \"loadgen_cpu_s\": " + std::to_string(self1 - self0);
  out += ", \"retransmits\": " + std::to_string(wl->retransmits);
  out += ", \"life_ops\": " + std::to_string(loop.seq);
  char buf[64];
  out += ", \"kind_p50_ms\": {";
  auto names = wl->kind_names();
  for (std::size_t k = 0; k < names.size(); ++k) {
    std::snprintf(buf, sizeof(buf), "%.6f", pct(ph.by_kind[k], 0.5));
    out += (k ? ", " : "") + json_str(names[k]) + ": " + buf;
  }
  for (const auto& [name, samples] : wl->extra) {
    std::snprintf(buf, sizeof(buf), "%.6f", pct(samples, 0.5));
    out += ", " + json_str(name) + ": " + buf;
  }
  out += "}, \"pages\": [";
  for (std::size_t i = 0; i < pages0.size(); ++i) {
    out += i ? ", [" : "[";
    for (std::size_t j = 0; j < pages0[i].size(); ++j) {
      out += (j ? ", " : "") + std::to_string(pages1[i][j] - pages0[i][j]);
    }
    out += "]";
  }
  out += "], \"pages_end\": [";
  for (std::size_t i = 0; i < pages1.size(); ++i) {
    out += i ? ", [" : "[";
    for (std::size_t j = 0; j < pages1[i].size(); ++j) {
      out += (j ? ", " : "") + std::to_string(pages1[i][j]);
    }
    out += "]";
  }
  out += "]";
  if (churn != nullptr) {
    out += ", \"resident\": " + std::to_string(churn->resident());
    out += ", \"frames_decoded\": " + std::to_string(churn->frames());
  }
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < wl->errors.size(); ++i) {
    out += (i ? ", " : "") + json_str(wl->errors[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
