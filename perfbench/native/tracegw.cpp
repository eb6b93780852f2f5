// pb_tracegw: the traced run's in-process gateway.
//
// One core::Indiss, configured like `indissd --loopback` with the same
// --sdps/--directory flags, on a transport::Transport decorator around
// live::LiveTransport. The decorator records a span at three boundaries —
// socket receive handlers, scheduled tasks and sends — and keeps counters
// in a shared page (counters.hpp) that the load generator reads at its
// quiesced phase boundaries. Spans stay in memory and are written to
// PB_SPANS_FILE at exit; the generator ties them to its operations through
// the client ports and the `pbid-` identities it put in its frames.
//
// `--shards N` is accepted and ignored: live::LiveShardPool builds its shard
// transports itself, so the decorator cannot wrap them; churn's traced
// gateway therefore runs one shard (README.md says what that leaves out).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.hpp"
#include "core/indiss.hpp"
#include "counters.hpp"
#include "live/event_loop.hpp"
#include "live/transport.hpp"

namespace {

using namespace indiss;
using perfbench::CounterPage;

std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true); }

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanKind : std::uint8_t {
  kMonitorRecv,  // receive handler of a well-known-port (scanned) socket
  kSessionRecv,  // receive handler of an ephemeral socket
  kTask,         // Transport::schedule / schedule_periodic callback
  kUdpSend,
  kTcpSend,
  kTcpRecv,
  kHttpFetch,    // gateway's connect_tcp up to its close of the socket
};

struct Span {
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  SpanKind kind;
  std::uint16_t peer_port;
  char token[30];
};

/// The generator's operation identity: "pbid-" and what follows up to the
/// first character that cannot be part of it.
void extract_token(BytesView payload, char (&out)[30]) {
  out[0] = '\0';
  std::string_view text(reinterpret_cast<const char*>(payload.data()),
                        payload.size());
  auto at = text.find("pbid-");
  if (at == std::string_view::npos) return;
  std::size_t n = 0;
  for (std::size_t i = at; i < text.size() && n + 1 < sizeof(out); ++i) {
    char c = text[i];
    bool keep = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || c == '-';
    if (!keep) break;
    out[n++] = c;
  }
  out[n] = '\0';
}

class Recorder {
 public:
  explicit Recorder(CounterPage& page) : page_(page) {
    spans_.reserve(1 << 16);
  }

  void span(SpanKind kind, std::uint64_t start, std::uint64_t dur,
            std::uint16_t peer_port, BytesView payload = {}) {
    if (spans_.size() >= kMaxSpans) return;
    Span s{start, dur, kind, peer_port, {}};
    extract_token(payload, s.token);
    spans_.push_back(s);
  }

  CounterPage& page() { return page_; }

  void dump(const char* path) const {
    if (path == nullptr) return;
    std::FILE* f = std::fopen(path, "a");  // one file for every life
    if (f == nullptr) return;
    for (const Span& s : spans_) {
      std::fprintf(f, "%llu %llu %d %u %s\n",
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.dur_ns),
                   static_cast<int>(s.kind), s.peer_port,
                   s.token[0] != '\0' ? s.token : "-");
    }
    std::fclose(f);
  }

 private:
  static constexpr std::size_t kMaxSpans = 4u << 20;
  CounterPage& page_;
  std::vector<Span> spans_;
};

class TracedUdp : public transport::UdpSocket {
 public:
  TracedUdp(std::shared_ptr<transport::UdpSocket> inner, Recorder& rec,
            bool scanned)
      : inner_(std::move(inner)), rec_(rec), scanned_(scanned) {}

  [[nodiscard]] net::Endpoint local_endpoint() const override {
    return inner_->local_endpoint();
  }
  void join_group(net::IpAddress group) override { inner_->join_group(group); }
  void leave_group(net::IpAddress group) override {
    inner_->leave_group(group);
  }
  void send_to(const net::Endpoint& to, Bytes payload) override {
    std::uint64_t t0 = mono_ns();
    rec_.span(SpanKind::kUdpSend, t0, 0, to.port, payload);
    inner_->send_to(to, std::move(payload));
    rec_.page().add(perfbench::k_udp_sends, 1);
  }
  void set_receive_handler(ReceiveHandler handler) override {
    inner_->set_receive_handler(
        // Captures no `this`: a handler may drop the last reference to
        // this wrapper (a unit closing a finished session's socket).
        [rec = &rec_, scanned = scanned_,
         handler = std::move(handler)](const net::Datagram& d) {
          std::uint64_t t0 = mono_ns();
          handler(d);
          std::uint64_t dur = mono_ns() - t0;
          rec->span(scanned ? SpanKind::kMonitorRecv : SpanKind::kSessionRecv,
                    t0, dur, d.source.port, d.payload);
          auto& page = rec->page();
          page.add(scanned ? perfbench::k_monitor_datagrams
                           : perfbench::k_session_datagrams,
                   1);
          page.add(scanned ? perfbench::k_monitor_handler_ns
                           : perfbench::k_session_handler_ns,
                   dur);
        });
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }

 private:
  std::shared_ptr<transport::UdpSocket> inner_;
  Recorder& rec_;
  bool scanned_;
};

class TracedTcp : public transport::TcpSocket {
 public:
  /// `fetch_start_ns` != 0 marks a gateway-initiated connection (the UPnP
  /// description GET); its close ends an http fetch span.
  TracedTcp(std::shared_ptr<transport::TcpSocket> inner, Recorder& rec,
            std::uint64_t fetch_start_ns)
      : inner_(std::move(inner)),
        rec_(rec),
        fetch_start_(fetch_start_ns),
        peer_port_(inner_->remote_endpoint().port) {}

  [[nodiscard]] net::Endpoint local_endpoint() const override {
    return inner_->local_endpoint();
  }
  [[nodiscard]] net::Endpoint remote_endpoint() const override {
    return inner_->remote_endpoint();
  }
  void send(Bytes payload) override {
    rec_.span(SpanKind::kTcpSend, mono_ns(), 0, peer_port_);
    rec_.page().add(perfbench::k_tcp_sends, 1);
    inner_->send(std::move(payload));
  }
  void set_data_handler(DataHandler handler) override {
    inner_->set_data_handler(
        [rec = &rec_, port = peer_port_,
         handler = std::move(handler)](BytesView data) {
          std::uint64_t t0 = mono_ns();
          handler(data);
          rec->span(SpanKind::kTcpRecv, t0, mono_ns() - t0, port);
        });
  }
  void set_close_handler(CloseHandler handler) override {
    inner_->set_close_handler(std::move(handler));
  }
  void close() override {
    if (fetch_start_ != 0 && inner_->open()) {
      std::uint64_t dur = mono_ns() - fetch_start_;
      rec_.span(SpanKind::kHttpFetch, fetch_start_, dur, peer_port_);
      rec_.page().add(perfbench::k_http_fetches, 1);
      rec_.page().add(perfbench::k_http_fetch_ns, dur);
    }
    inner_->close();
  }
  [[nodiscard]] bool open() const override { return inner_->open(); }

 private:
  std::shared_ptr<transport::TcpSocket> inner_;
  Recorder& rec_;
  std::uint64_t fetch_start_;
  std::uint16_t peer_port_;
};

class TracedListener : public transport::TcpListener {
 public:
  TracedListener(std::shared_ptr<transport::TcpListener> inner, Recorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}
  [[nodiscard]] std::uint16_t port() const override { return inner_->port(); }
  void set_accept_handler(AcceptHandler handler) override {
    inner_->set_accept_handler(
        [this, handler = std::move(handler)](
            std::shared_ptr<transport::TcpSocket> socket) {
          handler(std::make_shared<TracedTcp>(std::move(socket), rec_, 0));
        });
  }
  void close() override { inner_->close(); }

 private:
  std::shared_ptr<transport::TcpListener> inner_;
  Recorder& rec_;
};

class TracingTransport : public transport::Transport {
 public:
  TracingTransport(live::LiveTransport& inner, Recorder& rec)
      : inner_(inner), rec_(rec) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] net::IpAddress address() const override {
    return inner_.address();
  }
  std::shared_ptr<transport::UdpSocket> open_udp(std::uint16_t port) override {
    // Only the monitor binds well-known ports; units open ephemeral ones.
    return std::make_shared<TracedUdp>(inner_.open_udp(port), rec_, port != 0);
  }
  std::shared_ptr<transport::TcpListener> listen_tcp(
      std::uint16_t port) override {
    return std::make_shared<TracedListener>(inner_.listen_tcp(port), rec_);
  }
  std::shared_ptr<transport::TcpSocket> connect_tcp(
      const net::Endpoint& to) override {
    std::uint64_t t0 = mono_ns();
    auto socket = inner_.connect_tcp(to);
    if (socket == nullptr) return nullptr;
    return std::make_shared<TracedTcp>(std::move(socket), rec_, t0);
  }
  [[nodiscard]] transport::TimePoint now() const override {
    return inner_.now();
  }
  transport::TaskHandle schedule(transport::Duration delay,
                                 transport::InlineTask task) override {
    return inner_.schedule(delay, wrap(std::move(task)));
  }
  transport::TaskHandle schedule_periodic(transport::Duration period,
                                          transport::InlineTask task) override {
    return inner_.schedule_periodic(period, wrap_periodic(std::move(task)));
  }
  [[nodiscard]] const net::TrafficStats& stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] transport::Random& random() override {
    return inner_.random();
  }

 private:
  void timed(transport::InlineTask& task) {
    std::uint64_t t0 = mono_ns();
    task();
    std::uint64_t dur = mono_ns() - t0;
    rec_.span(SpanKind::kTask, t0, dur, 0);
    rec_.page().add(perfbench::k_tasks, 1);
    rec_.page().add(perfbench::k_task_ns, dur);
  }
  transport::InlineTask wrap(transport::InlineTask task) {
    return [this, task = std::move(task)]() mutable { timed(task); };
  }
  transport::InlineTask wrap_periodic(transport::InlineTask task) {
    // Periodic callbacks are invoked repeatedly; keep the task in a shared
    // holder so the wrapper stays copy-free and re-invocable.
    auto holder = std::make_shared<transport::InlineTask>(std::move(task));
    return [this, holder]() { timed(*holder); };
  }

  live::LiveTransport& inner_;
  Recorder& rec_;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --loopback [--sdps slp,upnp,mdns] [--directory] "
               "[--shards N] [--seed N]\n"
               "  counters: PB_TRACE_FILE, spans: PB_SPANS_FILE\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  live::LiveConfig live_config;
  live_config.name = "pb-tracegw";
  core::IndissConfig config;
  config.enabled_sdps = {core::SdpId::kSlp, core::SdpId::kUpnp,
                         core::SdpId::kMdns};
  bool loopback = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--loopback") {
      loopback = true;
    } else if (arg == "--directory") {
      config.enable_directory = true;
    } else if ((arg == "--shards" || arg == "--seed") && value != nullptr) {
      if (arg == "--seed") live_config.seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--sdps" && value != nullptr) {
      config.enabled_sdps.clear();
      for (auto part : str::split(value, ',')) {
        bool known = false;
        for (core::SdpId sdp : {core::SdpId::kSlp, core::SdpId::kUpnp,
                                core::SdpId::kJini, core::SdpId::kMdns}) {
          if (str::trim(part) == core::sdp_name(sdp)) {
            config.enabled_sdps.insert(sdp);
            known = true;
          }
        }
        if (!known) return usage(argv[0]);
      }
      ++i;
    } else {
      return usage(argv[0]);
    }
  }
  if (!loopback) return usage(argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  CounterPage page(std::getenv("PB_TRACE_FILE"));
  Recorder recorder(page);
  live::EventLoop loop;
  live::LiveTransport live_transport(loop, live_config);
  TracingTransport transport(live_transport, recorder);
  auto own = std::make_shared<core::OwnEndpoints>();
  config.own_endpoints = own;
  core::Indiss indiss(transport, config);
  indiss.start();
  std::fprintf(stderr, "pb_tracegw: up on 127.0.0.1 (lo)\n");

  // Copies the gateway's own counters into the page. Scheduled on the
  // undecorated transport so it is not counted as gateway work.
  auto publish = [&]() {
    std::uint64_t sessions = 0;
    std::uint64_t answered = 0;
    std::uint64_t bridged = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t replays = 0;
    for (core::SdpId sdp : config.enabled_sdps) {
      if (core::Unit* unit = indiss.unit(sdp)) {
        sessions += unit->stats().sessions_opened;
      }
      auto d = indiss.monitor().directory_stats(sdp);
      answered += d.answered;
      bridged += d.bridged;
      if (auto* cache = indiss.translation_cache()) {
        const auto& c = cache->stats(sdp);
        hits += c.hits;
        misses += c.misses;
        replays += c.frames_replayed;
      }
    }
    page.set(perfbench::k_sessions_opened, sessions);
    page.set(perfbench::k_own_endpoints, own->size());
    page.set(perfbench::k_cache_hits, hits);
    page.set(perfbench::k_cache_misses, misses);
    page.set(perfbench::k_cache_replays, replays);
    page.set(perfbench::k_dir_answered, answered);
    page.set(perfbench::k_dir_bridged, bridged);
    if (auto* dir = indiss.directory()) {
      page.set(perfbench::k_dir_answer_replays, dir->answer_replays());
    }
  };
  live_transport.schedule_periodic(transport::millis(2), [&]() {
    publish();
    if (g_stop.load()) loop.stop();
  });
  loop.run();
  publish();

  const auto m = indiss.monitor().stats();
  std::printf("monitor datagrams_seen=%llu own_endpoints=%zu\n",
              static_cast<unsigned long long>(m.seen), own->size());
  if (auto* mdns = indiss.unit_as<core::MdnsUnit>(core::SdpId::kMdns)) {
    std::printf("mdns announcements_sent=%llu cached_services=%zu\n",
                static_cast<unsigned long long>(mdns->announcements_sent()),
                mdns->foreign_services().size());
  }
  recorder.dump(std::getenv("PB_SPANS_FILE"));
  indiss.stop();
  return 0;
}
