// pb_layers: direct timed calls into single layers, on frames a workload
// captured.
//
//   pb_layers FRAMES_FILE
//
// FRAMES_FILE holds one frame a line, "<kind> <hex bytes>", with kinds
// ssdp, slp, mdns, upnp_xml (frames seen on the wire) and advert_ssdp,
// advert_mdns (the workload's resident advertisements, used to build the
// translation cache and the directory at the workload's size). Prints one
// "<metric> <value>" line per per-layer metric it measures. Every time is
// the median over batches of calls, in ns per call; every allocation count
// is operator-new calls per call.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "core/directory/service_directory.hpp"
#include "core/parser.hpp"
#include "core/shard/router.hpp"
#include "core/translation_cache.hpp"
#include "core/typemap.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "mdns/dns.hpp"
#include "slp/wire.hpp"
#include "upnp/ssdp.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace indiss;
using Clock = std::chrono::steady_clock;

constexpr int kBatch = 32;
constexpr int kRounds = 40;

Bytes from_hex(const std::string& hex) {
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// Median ns per call of `call(i)` over every input index, timed in
/// batches of kBatch calls on one input.
double median_ns(std::size_t inputs, const std::function<void(std::size_t)>& call) {
  if (inputs == 0) return 0.0;
  std::vector<double> per_call;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < inputs; ++i) {
      auto t0 = Clock::now();
      for (int k = 0; k < kBatch; ++k) call(i);
      auto dt = std::chrono::duration<double, std::nano>(Clock::now() - t0);
      per_call.push_back(dt.count() / kBatch);
    }
  }
  std::nth_element(per_call.begin(), per_call.begin() + per_call.size() / 2,
                   per_call.end());
  return per_call[per_call.size() / 2];
}

/// operator-new calls per call, after one warm call per input.
double allocs_per_call(std::size_t inputs,
                       const std::function<void(std::size_t)>& call) {
  if (inputs == 0) return 0.0;
  for (std::size_t i = 0; i < inputs; ++i) call(i);
  std::uint64_t before = g_news.load();
  for (std::size_t i = 0; i < inputs; ++i) call(i);
  return static_cast<double>(g_news.load() - before) /
         static_cast<double>(inputs);
}

core::MessageContext context(bool multicast) {
  core::MessageContext ctx;
  ctx.source = net::Endpoint{net::IpAddress(127, 0, 0, 1), 40000};
  ctx.destination = net::Endpoint{net::IpAddress(239, 255, 255, 250), 1900};
  ctx.multicast = multicast;
  ctx.from_local_host = true;
  return ctx;
}

/// Parses each frame with `parser` into a reused sink; returns the streams
/// of the last pass (for building caches, directories and compose inputs).
void measure_parser(const char* name, core::SdpParser& parser,
                    const std::vector<Bytes>& frames, bool multicast) {
  core::CollectingSink sink;
  core::MessageContext ctx = context(multicast);
  auto call = [&](std::size_t i) {
    sink.reset();
    parser.parse(frames[i], ctx, sink);
  };
  std::printf("parse.%s_ns %.1f\n", name, median_ns(frames.size(), call));
  std::printf("parse.%s_allocs %.3f\n", name,
              allocs_per_call(frames.size(), call));
}

std::vector<core::EventStream> parse_all(core::SdpParser& parser,
                                         const std::vector<Bytes>& frames,
                                         bool multicast) {
  std::vector<core::EventStream> out;
  for (const Bytes& frame : frames) {
    core::CollectingSink sink;
    parser.parse(frame, context(multicast), sink);
    out.push_back(sink.take());
  }
  return out;
}

std::string_view first_value(const core::EventStream& stream,
                             core::EventType type, std::string_view key) {
  for (const auto& event : stream) {
    if (event.type == type) return event.get(key);
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s FRAMES_FILE\n", argv[0]);
    return 2;
  }
  std::map<std::string, std::vector<Bytes>> frames;
  {
    std::ifstream in(argv[1]);
    std::string kind;
    std::string hex;
    while (in >> kind >> hex) frames[kind].push_back(from_hex(hex));
  }
  const auto& ssdp = frames["ssdp"];
  const auto& slp = frames["slp"];
  const auto& mdns = frames["mdns"];
  const auto& xml = frames["upnp_xml"];
  const auto& advert_ssdp = frames["advert_ssdp"];
  const auto& advert_mdns = frames["advert_mdns"];

  core::SsdpEventParser ssdp_parser;
  core::SlpEventParser slp_parser;
  core::MdnsEventParser mdns_parser;
  core::UpnpDescriptionParser xml_parser;
  measure_parser("ssdp", ssdp_parser, ssdp, true);
  measure_parser("slp", slp_parser, slp, false);
  measure_parser("mdns", mdns_parser, mdns, false);
  measure_parser("upnp_xml", xml_parser, xml, false);

  // Composers, fed the streams the workload's own frames parse into.
  std::vector<core::EventStream> adverts =
      parse_all(ssdp_parser, advert_ssdp, true);
  for (auto& s : parse_all(mdns_parser, advert_mdns, true)) {
    adverts.push_back(std::move(s));
  }
  std::vector<core::EventStream> replies;
  for (const auto& s : adverts) {
    std::string_view url = first_value(s, core::EventType::kResServUrl, "url");
    if (url.empty()) {
      url = first_value(s, core::EventType::kUpnpDeviceUrlDesc, "url");
    }
    std::string_view type =
        first_value(s, core::EventType::kServiceTypeIs, "type");
    core::EventStream reply;
    reply.push_back(core::Event(core::EventType::kControlStart));
    reply.push_back(core::Event(core::EventType::kServiceResponse));
    reply.push_back(core::Event(core::EventType::kServiceTypeIs,
                                {{"type", type}}));
    reply.push_back(core::Event(core::EventType::kResTtl,
                                {{"seconds", "1800"}}));
    reply.push_back(core::Event(core::EventType::kResServUrl, {{"url", url}}));
    reply.push_back(core::Event(core::EventType::kControlStop));
    replies.push_back(std::move(reply));
  }
  if (replies.empty()) {
    // Request-only workloads: compose what a bridged lookup answers with.
    core::EventStream reply;
    reply.push_back(core::Event(core::EventType::kControlStart));
    reply.push_back(core::Event(core::EventType::kServiceTypeIs,
                                {{"type", "clock"}}));
    reply.push_back(core::Event(core::EventType::kServiceAttr,
                                {{"key", "friendlyName"}, {"value", "pb"}}));
    reply.push_back(core::Event(
        core::EventType::kResServUrl,
        {{"url", "soap://127.0.0.1:49152/pbid-0/control"}}));
    reply.push_back(core::Event(core::EventType::kControlStop));
    replies.push_back(std::move(reply));
  }
  {
    mdns::DnsMessage message;
    mdns::DnsEncoder encoder;
    std::string qname;
    std::printf("compose.mdns_ns %.1f\n",
                median_ns(replies.size(), [&](std::size_t i) {
                  core::dnssd_from_canonical_into(
                      first_value(replies[i], core::EventType::kServiceTypeIs,
                                  "type"),
                      qname);
                  core::compose_dnssd_answers(replies[i], qname, 120, message);
                  (void)encoder.encode(message);
                }));
  }
  {
    slp::Message message{slp::SrvRply{}};
    std::string attrs;
    ByteWriter writer;
    std::printf("compose.slp_ns %.1f\n",
                median_ns(replies.size(), [&](std::size_t i) {
                  core::compose_slp_reply(
                      replies[i],
                      first_value(replies[i], core::EventType::kServiceTypeIs,
                                  "type"),
                      4711, 65535, true, std::get<slp::SrvRply>(message),
                      attrs);
                  (void)slp::encode_into(message, writer);
                }));
  }
  {
    upnp::SearchResponse response;
    response.server = "INDISS-bridge/1.0 UPnP/1.0";
    std::string out;
    std::printf("compose.ssdp_ns %.1f\n",
                median_ns(replies.size(), [&](std::size_t i) {
                  response.st.assign(first_value(
                      replies[i], core::EventType::kServiceTypeIs, "type"));
                  response.usn.assign("uuid:indiss-1::urn:device");
                  response.location.assign(first_value(
                      replies[i], core::EventType::kResServUrl, "url"));
                  response.serialize_into(out);
                }));
  }

  // Translation cache at the workload's resident size: one settled bundle
  // per advertisement; every captured wire frame is looked up.
  {
    core::TranslationCache cache;
    transport::TimePoint t0{};
    std::uint64_t session = 1;
    for (const Bytes& f : advert_ssdp) {
      cache.open_bundle(core::SdpId::kUpnp, f, session++, t0);
    }
    for (const Bytes& f : advert_mdns) {
      cache.open_bundle(core::SdpId::kMdns, f, session++, t0);
    }
    std::vector<std::pair<core::SdpId, const Bytes*>> probes;
    for (const Bytes& f : advert_ssdp) probes.emplace_back(core::SdpId::kUpnp, &f);
    for (const Bytes& f : advert_mdns) probes.emplace_back(core::SdpId::kMdns, &f);
    for (const Bytes& f : ssdp) probes.emplace_back(core::SdpId::kUpnp, &f);
    for (const Bytes& f : slp) probes.emplace_back(core::SdpId::kSlp, &f);
    transport::TimePoint later = t0 + transport::seconds(1);
    std::printf("cache.lookup_ns %.1f\n",
                median_ns(probes.size(), [&](std::size_t i) {
                  (void)cache.lookup(probes[i].first, *probes[i].second, later);
                }));
  }

  // Directory at the workload's index size and type mix.
  {
    core::ServiceDirectory directory;
    transport::TimePoint t0{};
    std::vector<std::string> types;
    for (std::size_t i = 0; i < adverts.size(); ++i) {
      core::SdpId origin =
          i < advert_ssdp.size() ? core::SdpId::kUpnp : core::SdpId::kMdns;
      const Bytes& wire =
          i < advert_ssdp.size() ? advert_ssdp[i]
                                 : advert_mdns[i - advert_ssdp.size()];
      directory.record_advertisement(origin, adverts[i], wire, t0);
      std::string type(
          first_value(adverts[i], core::EventType::kServiceTypeIs, "type"));
      if (std::find(types.begin(), types.end(), type) == types.end()) {
        types.push_back(type);
      }
    }
    if (types.empty()) types.push_back("clock");
    std::vector<const core::ServiceDirectory::Record*> out;
    std::printf("directory.collect_ns %.1f\n",
                median_ns(types.size(), [&](std::size_t i) {
                  (void)directory.collect(types[i], t0, out);
                }));
  }

  // Shard router on every captured frame, as the dispatcher sees them.
  {
    std::vector<net::Datagram> datagrams;
    std::vector<core::SdpId> sdps;
    auto add = [&](const std::vector<Bytes>& list, core::SdpId sdp,
                   std::uint16_t port) {
      for (const Bytes& f : list) {
        net::Datagram d;
        d.source = net::Endpoint{net::IpAddress(127, 0, 0, 1), 40000};
        d.destination = net::Endpoint{net::IpAddress(239, 255, 255, 250), port};
        d.multicast = true;
        d.payload = f;
        datagrams.push_back(std::move(d));
        sdps.push_back(sdp);
      }
    };
    add(advert_ssdp, core::SdpId::kUpnp, 1900);
    add(advert_mdns, core::SdpId::kMdns, 5353);
    add(ssdp, core::SdpId::kUpnp, 1900);
    add(slp, core::SdpId::kSlp, 427);
    add(mdns, core::SdpId::kMdns, 5353);
    std::size_t sink = 0;
    std::printf("shard.route_ns %.1f\n",
                median_ns(datagrams.size(), [&](std::size_t i) {
                  if (core::shard::classify(sdps[i], datagrams[i]) ==
                      core::shard::Route::kHashed) {
                    sink += core::shard::shard_for(datagrams[i].payload, 2);
                  }
                }));
    if (sink == static_cast<std::size_t>(-1)) std::printf("#\n");
  }
  return 0;
}
