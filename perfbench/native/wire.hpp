// The load generator's own codecs: SLPv2, SSDP/HTTP, UPnP description XML
// and DNS (mDNS/DNS-SD).
//
// Written from the RFCs (2608, UPnP DA 1.0, 1035/6762/6763) and sharing no
// code with the gateway, so that the benchmark's output checks cannot share
// a bug with the code they check. selfcheck() round-trips every codec on
// hand-built frames before any workload runs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pbwire {

using Bytes = std::vector<std::uint8_t>;

struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline constexpr const char* kSlpGroup = "239.255.255.253";
inline constexpr std::uint16_t kSlpPort = 427;
inline constexpr const char* kSsdpGroup = "239.255.255.250";
inline constexpr std::uint16_t kSsdpPort = 1900;
inline constexpr const char* kMdnsGroup = "224.0.0.251";
inline constexpr std::uint16_t kMdnsPort = 5353;
inline constexpr std::string_view kBridgeMarker = "_indiss-bridge._udp.local";

// --- SLPv2 (RFC 2608) ------------------------------------------------------

inline constexpr int kSrvRqst = 1;
inline constexpr int kSrvRply = 2;
inline constexpr std::uint16_t kFlagMcast = 0x2000;

struct Slp {
  int function = 0;
  std::uint16_t xid = 0;
  std::uint16_t flags = 0;
  std::string lang;
  // SrvRqst
  std::string prlist, type, scopes, predicate;
  // SrvRply
  std::uint16_t error = 0;
  std::vector<std::pair<std::string, std::uint16_t>> urls;  // url, lifetime
};

inline void put16(Bytes& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}
inline void put_str16(Bytes& b, std::string_view s) {
  put16(b, static_cast<std::uint16_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

inline Bytes slp_frame(int function, std::uint16_t xid, const Bytes& body,
                       std::uint16_t flags) {
  Bytes out{2, static_cast<std::uint8_t>(function), 0, 0, 0};
  put16(out, flags);
  out.insert(out.end(), {0, 0, 0});
  put16(out, xid);
  put_str16(out, "en");
  out.insert(out.end(), body.begin(), body.end());
  std::size_t n = out.size();
  out[2] = static_cast<std::uint8_t>(n >> 16);
  out[3] = static_cast<std::uint8_t>(n >> 8);
  out[4] = static_cast<std::uint8_t>(n);
  return out;
}

inline Bytes slp_srvrqst(std::uint16_t xid, std::string_view type,
                         std::string_view prlist = "") {
  Bytes body;
  put_str16(body, prlist);
  put_str16(body, type);
  put_str16(body, "DEFAULT");
  put_str16(body, "");
  put_str16(body, "");
  return slp_frame(kSrvRqst, xid, body, kFlagMcast);
}

inline Bytes slp_srvrply(std::uint16_t xid,
                         const std::vector<std::string>& urls,
                         std::uint16_t lifetime = 10800) {
  Bytes body;
  put16(body, 0);
  put16(body, static_cast<std::uint16_t>(urls.size()));
  for (const auto& u : urls) {
    body.push_back(0);
    put16(body, lifetime);
    put_str16(body, u);
    body.push_back(0);
  }
  return slp_frame(kSrvRply, xid, body, 0);
}

class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), n_(n) {}
  std::uint8_t u8() {
    need(1);
    return p_[i_++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(p_[i_] << 8 | p_[i_ + 1]);
    i_ += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t hi = u16();
    return hi << 16 | u16();
  }
  std::string str(std::size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(p_ + i_), n);
    i_ += n;
    return s;
  }
  std::string str16() { return str(u16()); }
  void skip(std::size_t n) {
    need(n);
    i_ += n;
  }
  std::size_t pos() const { return i_; }
  std::size_t size() const { return n_; }

 private:
  void need(std::size_t n) const {
    if (i_ + n > n_) throw DecodeError("truncated frame");
  }
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t i_ = 0;
};

inline Slp slp_decode(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  Slp m;
  if (r.u8() != 2) throw DecodeError("not SLPv2");
  m.function = r.u8();
  std::uint32_t len = static_cast<std::uint32_t>(r.u8()) << 16;
  len |= r.u16();
  if (len != n) throw DecodeError("SLP length mismatch");
  m.flags = r.u16();
  r.skip(3);
  m.xid = r.u16();
  m.lang = r.str16();
  if (m.function == kSrvRqst) {
    m.prlist = r.str16();
    m.type = r.str16();
    m.scopes = r.str16();
    m.predicate = r.str16();
    r.str16();
  } else if (m.function == kSrvRply) {
    m.error = r.u16();
    std::uint16_t count = r.u16();
    for (int i = 0; i < count; ++i) {
      r.u8();
      std::uint16_t lifetime = r.u16();
      std::string url = r.str16();
      if (r.u8() != 0) throw DecodeError("unexpected SLP auth blocks");
      m.urls.emplace_back(std::move(url), lifetime);
    }
  } else {
    return m;
  }
  if (r.pos() != n) throw DecodeError("trailing bytes after SLP message");
  return m;
}

/// 'service:T:access;k:"v";...' -> type, access URL, attributes.
struct SlpUrl {
  std::string type, access;
  std::map<std::string, std::string> attrs;
};
inline SlpUrl slp_split_url(std::string_view url) {
  if (url.substr(0, 8) != "service:") throw DecodeError("not a service URL");
  url.remove_prefix(8);
  SlpUrl out;
  auto colon = url.find(':');
  if (colon == std::string_view::npos) throw DecodeError("no concrete URL");
  out.type = std::string(url.substr(0, colon));
  url.remove_prefix(colon + 1);
  auto semi = url.find(';');
  out.access = std::string(url.substr(0, semi));
  while (semi != std::string_view::npos) {
    url.remove_prefix(semi + 1);
    semi = url.find(';');
    std::string_view part = url.substr(0, semi);
    auto c = part.find(':');
    std::string_view k = part.substr(0, c);
    std::string_view v = c == std::string_view::npos ? "" : part.substr(c + 1);
    if (v.size() >= 2 && v.front() == '"') v = v.substr(1, v.size() - 2);
    out.attrs[std::string(k)] = std::string(v);
  }
  return out;
}

// --- SSDP / HTTP -------------------------------------------------------------

inline std::string ssdp_msearch(std::string_view st) {
  std::string s =
      "M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\n"
      "MAN: \"ssdp:discover\"\r\nMX: 1\r\nST: ";
  s += st;
  s += "\r\nUSER-AGENT: pbgen/1 UPnP/1.0\r\n\r\n";
  return s;
}

inline std::string ssdp_notify(bool alive, std::string_view nt,
                               std::string_view usn,
                               std::string_view location) {
  std::string s = "NOTIFY * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\nNT: ";
  s += nt;
  s += alive ? "\r\nNTS: ssdp:alive\r\nUSN: " : "\r\nNTS: ssdp:byebye\r\nUSN: ";
  s += usn;
  if (alive) {
    s += "\r\nCACHE-CONTROL: max-age=1800\r\nLOCATION: ";
    s += location;
    s += "\r\nSERVER: Linux/6 UPnP/1.0 pbgen/1";
  }
  s += "\r\n\r\n";
  return s;
}

inline std::string ssdp_response(std::string_view st, std::string_view usn,
                                 std::string_view location) {
  std::string s =
      "HTTP/1.1 200 OK\r\nCACHE-CONTROL: max-age=1800\r\nEXT:\r\nLOCATION: ";
  s += location;
  s += "\r\nSERVER: Linux/6 UPnP/1.0 pbgen/1\r\nST: ";
  s += st;
  s += "\r\nUSN: ";
  s += usn;
  s += "\r\n\r\n";
  return s;
}

struct HttpHead {
  std::string start;
  std::map<std::string, std::string> headers;  // upper-cased names
  std::size_t body_at = 0;
};

inline std::string upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 32);
  }
  return out;
}

inline std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Start line and headers; nullopt while the header block is incomplete.
inline std::optional<HttpHead> http_head(std::string_view frame) {
  auto end = frame.find("\r\n\r\n");
  if (end == std::string_view::npos) return std::nullopt;
  HttpHead h;
  h.body_at = end + 4;
  std::string_view block = frame.substr(0, end);
  auto eol = block.find("\r\n");
  h.start = std::string(block.substr(0, eol));
  while (eol != std::string_view::npos) {
    block.remove_prefix(eol + 2);
    eol = block.find("\r\n");
    std::string_view line = block.substr(0, eol);
    auto colon = line.find(':');
    if (colon == std::string_view::npos) throw DecodeError("bad header line");
    h.headers[upper(trim(line.substr(0, colon)))] =
        std::string(trim(line.substr(colon + 1)));
  }
  return h;
}

/// Body of a complete Content-Length-framed 200 response; nullopt while
/// incomplete; throws on another status.
inline std::optional<std::string> http_body(std::string_view buf) {
  auto h = http_head(buf);
  if (!h) return std::nullopt;
  auto it = h->headers.find("CONTENT-LENGTH");
  if (it == h->headers.end()) return std::nullopt;
  std::size_t len = std::stoul(it->second);
  if (buf.size() < h->body_at + len) return std::nullopt;
  if (h->start.compare(0, 12, "HTTP/1.1 200") != 0 &&
      h->start.compare(0, 12, "HTTP/1.0 200") != 0) {
    throw DecodeError("HTTP status: " + h->start);
  }
  return std::string(buf.substr(h->body_at, len));
}

inline std::string http_get(std::string_view path, std::string_view host) {
  std::string s = "GET ";
  s += path;
  s += " HTTP/1.1\r\nHOST: ";
  s += host;
  s += "\r\nCONNECTION: close\r\n\r\n";
  return s;
}

inline std::string http_ok(std::string_view body) {
  std::string s =
      "HTTP/1.1 200 OK\r\nCONTENT-TYPE: text/xml\r\nCONNECTION: close\r\n"
      "CONTENT-LENGTH: ";
  s += std::to_string(body.size());
  s += "\r\n\r\n";
  s += body;
  return s;
}

// --- UPnP device description -------------------------------------------------

/// Element text of the first <tag> inside `xml`, entities decoded.
inline std::optional<std::string> xml_text(std::string_view xml,
                                           std::string_view tag) {
  std::string open = "<" + std::string(tag) + ">";
  std::string close = "</" + std::string(tag) + ">";
  auto a = xml.find(open);
  if (a == std::string_view::npos) return std::nullopt;
  a += open.size();
  auto b = xml.find(close, a);
  if (b == std::string_view::npos) throw DecodeError("unclosed <" +
                                                     std::string(tag) + ">");
  std::string_view raw = trim(xml.substr(a, b - a));
  std::string out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      if (raw[i] == '<') throw DecodeError("markup inside <" +
                                           std::string(tag) + ">");
      out.push_back(raw[i]);
      continue;
    }
    auto semi = raw.find(';', i);
    if (semi == std::string_view::npos) throw DecodeError("bad entity");
    std::string_view ent = raw.substr(i + 1, semi - i - 1);
    if (ent == "amp") out.push_back('&');
    else if (ent == "lt") out.push_back('<');
    else if (ent == "gt") out.push_back('>');
    else if (ent == "quot") out.push_back('"');
    else if (ent == "apos") out.push_back('\'');
    else throw DecodeError("unknown entity");
    i = semi;
  }
  return out;
}

inline std::string description_xml(
    const std::vector<std::pair<std::string, std::string>>& device,
    const std::vector<std::pair<std::string, std::string>>& service) {
  std::string s =
      "<?xml version=\"1.0\"?><root xmlns=\"urn:schemas-upnp-org:device-1-0\">"
      "<specVersion><major>1</major><minor>0</minor></specVersion><device>";
  for (const auto& [k, v] : device) s += "<" + k + ">" + v + "</" + k + ">";
  s += "<serviceList><service>";
  for (const auto& [k, v] : service) s += "<" + k + ">" + v + "</" + k + ">";
  s += "</service></serviceList></device></root>";
  return s;
}

// --- DNS / mDNS (RFC 1035, 6762, 6763) ---------------------------------------

inline constexpr std::uint16_t kTypeA = 1, kTypePtr = 12, kTypeTxt = 16,
                               kTypeSrv = 33;
inline constexpr std::uint16_t kFlagQr = 0x8000, kFlagAa = 0x0400;

struct DnsRecord {
  std::string name;
  std::uint16_t type = 0;
  std::uint32_t ttl = 0;
  bool flush = false;
  std::string target;  // PTR rdata / SRV target
  std::uint16_t port = 0;
  std::vector<std::pair<std::string, std::string>> txt;
  std::uint32_t addr = 0;
};

struct DnsQuestion {
  std::string name;
  std::uint16_t type = kTypePtr;
  bool unicast = false;
};

struct DnsMessage {
  std::uint16_t id = 0;
  std::uint16_t flags = 0;
  std::vector<DnsQuestion> questions;
  std::vector<DnsRecord> answers;
  std::vector<DnsRecord> additionals;
};

class DnsWriter {
 public:
  explicit DnsWriter(bool compress) : compress_(compress) {}
  Bytes out;

  void name(std::string_view n) {
    while (!n.empty() && n.back() == '.') n.remove_suffix(1);
    while (!n.empty()) {
      std::string key = lower(n);
      auto it = table_.find(key);
      if (compress_ && it != table_.end()) {
        put16(out, static_cast<std::uint16_t>(0xC000 | it->second));
        return;
      }
      if (out.size() < 0x3FFF) table_.emplace(std::move(key), out.size());
      auto dot = n.find('.');
      std::string_view label = n.substr(0, dot);
      out.push_back(static_cast<std::uint8_t>(label.size()));
      out.insert(out.end(), label.begin(), label.end());
      n = dot == std::string_view::npos ? std::string_view{}
                                         : n.substr(dot + 1);
    }
    out.push_back(0);
  }

 private:
  static std::string lower(std::string_view s) {
    std::string o(s);
    for (char& c : o) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c + 32);
    }
    return o;
  }
  bool compress_;
  std::unordered_map<std::string, std::size_t> table_;
};

inline Bytes dns_encode(const DnsMessage& m, bool compress = true) {
  DnsWriter w(compress);
  put16(w.out, m.id);
  put16(w.out, m.flags);
  put16(w.out, static_cast<std::uint16_t>(m.questions.size()));
  put16(w.out, static_cast<std::uint16_t>(m.answers.size()));
  put16(w.out, 0);
  put16(w.out, static_cast<std::uint16_t>(m.additionals.size()));
  for (const auto& q : m.questions) {
    w.name(q.name);
    put16(w.out, q.type);
    put16(w.out, static_cast<std::uint16_t>(1 | (q.unicast ? 0x8000 : 0)));
  }
  for (const auto* section : {&m.answers, &m.additionals}) {
    for (const auto& r : *section) {
      w.name(r.name);
      put16(w.out, r.type);
      put16(w.out, static_cast<std::uint16_t>(1 | (r.flush ? 0x8000 : 0)));
      put16(w.out, static_cast<std::uint16_t>(r.ttl >> 16));
      put16(w.out, static_cast<std::uint16_t>(r.ttl));
      std::size_t len_at = w.out.size();
      put16(w.out, 0);
      if (r.type == kTypePtr) {
        w.name(r.target);
      } else if (r.type == kTypeSrv) {
        put16(w.out, 0);
        put16(w.out, 0);
        put16(w.out, r.port);
        w.name(r.target);
      } else if (r.type == kTypeTxt) {
        for (const auto& [k, v] : r.txt) {
          std::string kv = k + "=" + v;
          w.out.push_back(static_cast<std::uint8_t>(kv.size()));
          w.out.insert(w.out.end(), kv.begin(), kv.end());
        }
      } else if (r.type == kTypeA) {
        for (int shift = 24; shift >= 0; shift -= 8) {
          w.out.push_back(static_cast<std::uint8_t>(r.addr >> shift));
        }
      }
      std::size_t len = w.out.size() - len_at - 2;
      w.out[len_at] = static_cast<std::uint8_t>(len >> 8);
      w.out[len_at + 1] = static_cast<std::uint8_t>(len);
    }
  }
  return std::move(w.out);
}

/// Name at `at`; a compression pointer must point strictly before the name
/// that contains it, which rules out loops.
inline std::string dns_name(const std::uint8_t* p, std::size_t n,
                            std::size_t at, std::size_t* end) {
  std::string out;
  std::size_t start = at;
  bool jumped = false;
  while (true) {
    if (at >= n) throw DecodeError("name runs past the frame");
    std::uint8_t len = p[at];
    if ((len & 0xC0) == 0xC0) {
      if (at + 1 >= n) throw DecodeError("truncated pointer");
      std::size_t target = static_cast<std::size_t>(len & 0x3F) << 8 | p[at + 1];
      if (target >= start) throw DecodeError("pointer does not point back");
      if (!jumped && end != nullptr) *end = at + 2;
      jumped = true;
      at = start = target;
      continue;
    }
    if (len > 63) throw DecodeError("bad label length");
    if (len == 0) {
      if (!jumped && end != nullptr) *end = at + 1;
      return out;
    }
    if (at + 1 + len > n) throw DecodeError("label runs past the frame");
    if (!out.empty()) out.push_back('.');
    out.append(reinterpret_cast<const char*>(p + at + 1), len);
    at += 1 + len;
  }
}

inline DnsMessage dns_decode(const std::uint8_t* p, std::size_t n) {
  Reader r(p, n);
  DnsMessage m;
  m.id = r.u16();
  m.flags = r.u16();
  std::uint16_t qd = r.u16(), an = r.u16(), ns = r.u16(), ar = r.u16();
  std::size_t at = 12;
  for (int i = 0; i < qd; ++i) {
    DnsQuestion q;
    q.name = dns_name(p, n, at, &at);
    Reader f(p + at, n - at);
    q.type = f.u16();
    q.unicast = (f.u16() & 0x8000) != 0;
    at += 4;
    m.questions.push_back(std::move(q));
  }
  for (int i = 0; i < an + ns + ar; ++i) {
    DnsRecord rec;
    rec.name = dns_name(p, n, at, &at);
    Reader f(p + at, n - at);
    rec.type = f.u16();
    rec.flush = (f.u16() & 0x8000) != 0;
    rec.ttl = f.u32();
    std::uint16_t rdlen = f.u16();
    at += 10;
    if (at + rdlen > n) throw DecodeError("rdata runs past the frame");
    std::size_t rd_end = at + rdlen;
    if (rec.type == kTypePtr) {
      rec.target = dns_name(p, rd_end, at, nullptr);
    } else if (rec.type == kTypeSrv) {
      if (rdlen < 7) throw DecodeError("short SRV");
      rec.port = static_cast<std::uint16_t>(p[at + 4] << 8 | p[at + 5]);
      rec.target = dns_name(p, rd_end, at + 6, nullptr);
    } else if (rec.type == kTypeTxt) {
      std::size_t j = at;
      while (j < rd_end) {
        std::size_t len = p[j];
        if (j + 1 + len > rd_end) throw DecodeError("TXT string overruns");
        std::string kv(reinterpret_cast<const char*>(p + j + 1), len);
        auto eq = kv.find('=');
        rec.txt.emplace_back(kv.substr(0, eq),
                             eq == std::string::npos ? "" : kv.substr(eq + 1));
        j += 1 + len;
      }
    } else if (rec.type == kTypeA) {
      if (rdlen != 4) throw DecodeError("A record of wrong length");
      rec.addr = static_cast<std::uint32_t>(p[at]) << 24 | p[at + 1] << 16 |
                 p[at + 2] << 8 | p[at + 3];
    }
    at = rd_end;
    if (i < an) {
      m.answers.push_back(std::move(rec));
    } else if (i >= an + ns) {
      m.additionals.push_back(std::move(rec));
    }
  }
  return m;
}

inline DnsMessage dnssd_announcement(const std::string& type,
                                     const std::string& instance,
                                     std::uint16_t port, const std::string& url,
                                     std::uint32_t ttl) {
  std::string qname = "_" + type + "._tcp.local";
  std::string full = instance + "." + qname;
  DnsMessage m;
  m.flags = kFlagQr | kFlagAa;
  DnsRecord ptr;
  ptr.name = qname;
  ptr.type = kTypePtr;
  ptr.ttl = ttl;
  ptr.target = full;
  m.answers.push_back(ptr);
  DnsRecord srv;
  srv.name = full;
  srv.type = kTypeSrv;
  srv.ttl = ttl;
  srv.flush = true;
  srv.port = port;
  srv.target = "127.0.0.1";
  m.additionals.push_back(srv);
  DnsRecord txt;
  txt.name = full;
  txt.type = kTypeTxt;
  txt.ttl = ttl;
  txt.flush = true;
  txt.txt = {{"url", url}, {"note", "perfbench"}};
  m.additionals.push_back(txt);
  DnsRecord a;
  a.name = "127.0.0.1";
  a.type = kTypeA;
  a.ttl = ttl;
  a.flush = true;
  a.addr = 0x7F000001;
  m.additionals.push_back(a);
  return m;
}

/// TXT `url` values (with their TTL) outside the bridge marker record.
inline std::vector<std::pair<std::string, std::uint32_t>> dns_txt_urls(
    const DnsMessage& m) {
  std::vector<std::pair<std::string, std::uint32_t>> out;
  for (const auto* section : {&m.answers, &m.additionals}) {
    for (const auto& r : *section) {
      if (r.type != kTypeTxt || r.name == kBridgeMarker) continue;
      for (const auto& [k, v] : r.txt) {
        if (k == "url") out.emplace_back(v, r.ttl);
      }
    }
  }
  return out;
}

inline bool dns_has_marker(const DnsMessage& m) {
  for (const auto& r : m.additionals) {
    if (r.name == kBridgeMarker) return true;
  }
  return false;
}

// --- Self-check ----------------------------------------------------------------

#define PB_CHECK(cond)                                                \
  do {                                                                \
    if (!(cond)) throw std::logic_error("codec self-check: " #cond);  \
  } while (0)

template <typename F>
bool rejects(F&& f) {
  try {
    f();
  } catch (const DecodeError&) {
    return true;
  }
  return false;
}

/// Round-trips each codec on hand-built frames; throws on any mismatch. A
/// broken checker must not be able to pass a broken gateway.
inline void selfcheck() {
  {
    Bytes f = slp_srvrqst(4711, "service:clock", "INDISS-bridge");
    Slp m = slp_decode(f.data(), f.size());
    PB_CHECK(m.function == kSrvRqst && m.xid == 4711);
    PB_CHECK(m.type == "service:clock" && m.prlist == "INDISS-bridge");
    PB_CHECK(m.scopes == "DEFAULT" && (m.flags & kFlagMcast) != 0);
    std::string url = "service:clock:soap://127.0.0.1:80/c;friendlyName:\"C 1\"";
    Bytes g = slp_srvrply(9, {url, "service:x:lpr://h/q"}, 300);
    Slp r = slp_decode(g.data(), g.size());
    PB_CHECK(r.function == kSrvRply && r.xid == 9 && r.error == 0);
    PB_CHECK(r.urls.size() == 2 && r.urls[0].first == url &&
             r.urls[1].second == 300);
    SlpUrl u = slp_split_url(url);
    PB_CHECK(u.type == "clock" && u.access == "soap://127.0.0.1:80/c");
    PB_CHECK(u.attrs.at("friendlyName") == "C 1");
    PB_CHECK(rejects([&] { slp_decode(f.data(), f.size() - 3); }));
  }
  {
    auto h = http_head(ssdp_msearch("urn:schemas-upnp-org:device:tv:1"));
    PB_CHECK(h && h->start.compare(0, 8, "M-SEARCH") == 0);
    PB_CHECK(h->headers.at("ST") == "urn:schemas-upnp-org:device:tv:1");
    auto b = http_head(ssdp_notify(false, "nt", "uuid:u::nt", ""));
    PB_CHECK(b && b->headers.at("NTS") == "ssdp:byebye" &&
             !b->headers.count("LOCATION"));
    auto s = http_head(ssdp_response("st", "usn", "http://h:1/d.xml"));
    PB_CHECK(s && s->headers.at("LOCATION") == "http://h:1/d.xml");
    std::string xml = description_xml(
        {{"deviceType", "urn:schemas-upnp-org:device:tv:1"},
         {"friendlyName", "TV &amp; co"}},
        {{"controlURL", "/ctl"}});
    std::string resp = http_ok(xml);
    PB_CHECK(!http_body(std::string_view(resp).substr(0, resp.size() - 1)));
    auto body = http_body(resp);
    PB_CHECK(body && *body == xml);
    PB_CHECK(xml_text(*body, "friendlyName") == "TV & co");
    PB_CHECK(xml_text(*body, "controlURL") == "/ctl");
    PB_CHECK(!xml_text(*body, "UDN"));
    PB_CHECK(rejects([] { http_body("HTTP/1.1 404 No\r\nCONTENT-LENGTH: 0\r\n\r\n"); }));
  }
  {
    DnsMessage ann = dnssd_announcement("printer", "p1", 631,
                                        "ipp://127.0.0.1:631/p1", 120);
    Bytes wire = dns_encode(ann);
    PB_CHECK(wire.size() < dns_encode(ann, false).size());
    DnsMessage back = dns_decode(wire.data(), wire.size());
    PB_CHECK((back.flags & kFlagQr) != 0);
    PB_CHECK(back.answers.size() == 1 &&
             back.answers[0].target == "p1._printer._tcp.local");
    PB_CHECK(back.additionals.size() == 3 && back.additionals[0].port == 631);
    PB_CHECK(back.additionals[1].txt.size() == 2 && back.additionals[1].flush);
    PB_CHECK(back.additionals[2].addr == 0x7F000001);
    auto urls = dns_txt_urls(back);
    PB_CHECK(urls.size() == 1 && urls[0].first == "ipp://127.0.0.1:631/p1" &&
             urls[0].second == 120);
    Bytes bye = dns_encode(dnssd_announcement("printer", "p1", 631, "u", 0));
    DnsMessage gb = dns_decode(bye.data(), bye.size());
    for (const auto& r : gb.answers) PB_CHECK(r.ttl == 0);
    for (const auto& r : gb.additionals) PB_CHECK(r.ttl == 0);
    DnsMessage q;
    q.id = 77;
    q.questions.push_back({"_tv._tcp.local", kTypePtr, true});
    DnsRecord marker;
    marker.name = std::string(kBridgeMarker);
    marker.type = kTypeTxt;
    marker.ttl = 1;
    marker.txt = {{"bridged-by", "INDISS-bridge"}};
    q.additionals.push_back(marker);
    Bytes qw = dns_encode(q);
    DnsMessage qb = dns_decode(qw.data(), qw.size());
    PB_CHECK(qb.id == 77 && qb.questions.size() == 1 &&
             qb.questions[0].unicast && dns_has_marker(qb) &&
             !dns_has_marker(back));
    // Hand-built frame: the answer's owner name is a pointer to the
    // question name, its PTR rdata a label plus a pointer; TTL 0.
    Bytes hand = {0, 1, 0x80, 0, 0, 1, 0, 1, 0, 0, 0, 0,
                  3, '_', 't', 'v', 4, '_', 't', 'c', 'p', 5, 'l', 'o', 'c',
                  'a', 'l', 0, 0, 12, 0, 1,
                  0xC0, 12, 0, 12, 0, 1, 0, 0, 0, 0, 0, 5,
                  2, 't', 'v', 0xC0, 12};
    DnsMessage h = dns_decode(hand.data(), hand.size());
    PB_CHECK(h.answers.size() == 1 && h.answers[0].name == "_tv._tcp.local");
    PB_CHECK(h.answers[0].target == "tv._tv._tcp.local" &&
             h.answers[0].ttl == 0);
    Bytes loop = hand;
    loop[12] = 0xC0;  // question name pointing at itself
    loop[13] = 12;
    PB_CHECK(rejects([&] { dns_decode(loop.data(), loop.size()); }));
    PB_CHECK(rejects([&] { dns_decode(hand.data(), hand.size() - 1); }));
  }
}

#undef PB_CHECK

}  // namespace pbwire
