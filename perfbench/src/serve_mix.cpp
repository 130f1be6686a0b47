// serve_mix: an in-process DwtServer (2 workers) driven closed-loop by one
// generator thread over 4 loopback connections, one of which reconnects
// before every request the way the one-shot `dwt97d tile|forward|compress`
// clients do.  The request mix is fixed per block of kBlock requests and
// follows bench_server_throughput's phases (mostly 64x64 round trips on the
// default software path, forward and compress ops, rtl-compiled thumbnails
// on Designs 2 and 3, odd-size tiles, one 1080p frame); the seed picks the
// images and the order.  Every response is compared byte for byte with the
// offline pipeline's bytes, computed before the measured window.
//
// The server's work runs on its own threads, which this benchmark does not
// instrument.  The traced run therefore attributes the window's request
// time through a ledger: client-side spans, the server's own enqueue-to-
// done clock (queue wait + execute), and each kind's execute time split
// into layers by a probe after the window.  What no clock times -- socket
// I/O, reader and accept threads, wake-ups -- is the uncovered remainder.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "codec/codec.hpp"
#include "common/rng.hpp"
#include "core/artifact_cache.hpp"
#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "hw/tile_scheduler.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dwt;

constexpr unsigned kWorkers = 2;
constexpr std::size_t kConnections = 4;
constexpr int kPollTimeoutMs = 60000;
constexpr int kThumbOctaves = 2;

enum class Kind { kThumb, kForward, kCompress, kRtl, kOdd, kFrame };
constexpr std::size_t kKinds = 6;

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kThumb: return "thumb";
    case Kind::kForward: return "forward";
    case Kind::kCompress: return "compress";
    case Kind::kRtl: return "rtl";
    case Kind::kOdd: return "odd";
    case Kind::kFrame: return "frame";
  }
  return "?";
}

/// Requests of each kind in every block of kBlock: the same mix for every
/// seed, so throughput compares across seeds.  The rtl and odd shares are
/// bench_server_throughput's (its rtl-compiled D2/D3 shapes are 192 and
/// its odd phase 384 of 4880 requests); forward and compress split 8% off
/// its thumbnail share.  Its 4K frames are 0.33% of requests; at that rate
/// 1080p frames would take about half of the execute time, so one per
/// block keeps them near a fifth (server.execute.<kind>.share reports the
/// measured split).
struct Share {
  Kind kind;
  int per_block;
  int distinct;  ///< distinct images of this kind in the pool
};
constexpr Share kMix[] = {
    {Kind::kThumb, 799, 16}, {Kind::kForward, 40, 8},
    {Kind::kCompress, 40, 8}, {Kind::kRtl, 40, 8},
    {Kind::kOdd, 80, 8},      {Kind::kFrame, 1, 1},
};
constexpr int kBlock = 1000;
constexpr int kBlocks = 8;  ///< distinct shuffles before the sequence repeats
constexpr std::array<std::pair<std::size_t, std::size_t>, 8> kOddSizes = {{
    {33, 17}, {17, 33}, {65, 33}, {129, 97},
    {97, 129}, {255, 63}, {257, 129}, {511, 255},
}};

struct Case {
  Kind kind = Kind::kThumb;
  server::Request req;
  std::vector<std::uint8_t> expected;  ///< response payload bytes
};

server::Request make_request(Kind kind, int index, std::uint64_t seed) {
  server::Request req;
  req.format = server::PayloadFormat::kPgm;
  req.octaves = kThumbOctaves;
  std::size_t w = 64, h = 64;
  switch (kind) {
    case Kind::kThumb: break;
    case Kind::kForward:
      req.op = server::Op::kForward;
      w = h = index % 2 == 0 ? 64 : 128;
      break;
    case Kind::kCompress:
      req.op = server::Op::kCompress;
      req.octaves = 3;
      w = h = 128;
      break;
    case Kind::kRtl:
      req.backend = "rtl-compiled";
      req.design = index % 2 == 0 ? hw::DesignId::kDesign2
                                  : hw::DesignId::kDesign3;
      break;
    case Kind::kOdd:
      w = kOddSizes[static_cast<std::size_t>(index) % kOddSizes.size()].first;
      h = kOddSizes[static_cast<std::size_t>(index) % kOddSizes.size()].second;
      break;
    case Kind::kFrame:
      w = 1920;
      h = 1080;
      req.octaves = 3;
      req.tile = 256;
      break;
  }
  const std::string pgm = pgm_bytes(make_input_image(w, h, seed));
  req.payload.assign(pgm.begin(), pgm.end());
  return req;
}

/// The offline `dwt97cli tile` / forward / compress bytes for a request,
/// computed with the library calls the CLI makes (not execute_request).
std::vector<std::uint8_t> offline_response(const server::Request& req,
                                           hw::TileStats* stats,
                                           std::uint64_t op) {
  dsp::Image img;
  {
    const Scope s("dsp.read_pgm", op);
    std::istringstream in(std::string(req.payload.begin(), req.payload.end()));
    img = dsp::read_pgm(in, "request");
  }
  if (req.op == server::Op::kCompress) {
    for (double& v : img.data()) v = std::round(v);
    codec::EncodeOptions opt;
    opt.octaves = req.octaves;
    const Scope s("codec.encode_image", op);
    return codec::encode_image(img, opt).bytes;
  }
  hw::TileOptions opt;
  opt.method = dsp::Method::kLiftingFixed;
  opt.octaves = req.octaves;
  opt.tile_w = opt.tile_h = req.tile != 0 ? req.tile : 64;
  opt.threads = 1;
  opt.backend = req.backend.empty() ? nullptr : core::find_backend(req.backend);
  opt.design = req.design;
  opt.opt_level = req.opt_level;
  {
    const Scope s("dsp.level_shift", op);
    dsp::level_shift_forward(img);
    dsp::round_coefficients(img);
  }
  {
    const Scope s("hw.tile_forward", op);
    *stats = hw::tile_forward(img, opt);
  }
  std::vector<std::uint8_t> out;
  if (req.op == server::Op::kForward) {
    // execute_request's own coefficient packing, so the server layer.
    const Scope s("server.pack_forward", op);
    out.reserve(img.data().size() * 4);
    for (const double v : img.data()) {
      const auto u = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(std::llround(v)));
      for (int b = 0; b < 4; ++b) {
        out.push_back(static_cast<std::uint8_t>((u >> (8 * b)) & 0xFF));
      }
    }
    return out;
  }
  hw::TileOptions inv = opt;
  if (inv.backend != nullptr && !inv.backend->caps().inverse_2d) {
    inv.backend = nullptr;
  }
  {
    const Scope s("hw.tile_inverse", op);
    (void)hw::tile_inverse(img, inv);
  }
  {
    const Scope s("dsp.level_shift", op);
    dsp::level_shift_inverse(img);
  }
  const Scope s("dsp.write_pgm", op);
  std::ostringstream o;
  dsp::write_pgm(img, o, "response");
  const std::string bytes = o.str();
  return {bytes.begin(), bytes.end()};
}

// --- loopback client ------------------------------------------------------

int connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Length prefix and payload in one send, as the server and CLI clients do.
bool send_frame(int fd, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame(4 + payload.size());
  const auto n = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((n >> (8 * i)) & 0xFF);
  }
  std::copy(payload.begin(), payload.end(), frame.begin() + 4);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t put =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (put <= 0) return false;
    off += static_cast<std::size_t>(put);
  }
  return true;
}

bool recv_all(int fd, std::uint8_t* p, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool recv_frame(int fd, std::vector<std::uint8_t>* out) {
  std::uint8_t len[4];
  if (!recv_all(fd, len, 4)) return false;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= static_cast<std::uint32_t>(len[i]) << (8 * i);
  if (n == 0 || n > server::kMaxFrameBytes) return false;
  out->resize(n);
  return recv_all(fd, out->data(), n);
}

/// Sends `c.req` on `*fd` (opening it first when needed) and checks the
/// answer: the synchronous client the warm-up uses.
bool round_trip(std::uint16_t port, int* fd, const Case& c) {
  if (*fd < 0) *fd = connect_tcp(port);
  std::vector<std::uint8_t> frame;
  if (*fd < 0 || !send_frame(*fd, server::encode_request(c.req)) ||
      !recv_frame(*fd, &frame)) {
    return false;
  }
  std::string error;
  const auto resp = server::decode_response(frame.data(), frame.size(), &error);
  return resp && resp->status == server::Status::kOk &&
         resp->payload == c.expected;
}

struct Workload {
  std::vector<Case> cases;
  std::vector<std::uint32_t> sequence;  ///< indices into cases
};

Workload make_workload(std::uint64_t seed) {
  Workload w;
  std::vector<std::vector<std::uint32_t>> by_kind;
  for (const Share& s : kMix) {
    std::vector<std::uint32_t> ids;
    for (int i = 0; i < s.distinct; ++i) {
      Case c;
      c.kind = s.kind;
      c.req = make_request(
          s.kind, i,
          derive_seed(seed, 1000 + static_cast<std::uint64_t>(s.kind) * 100 +
                                static_cast<std::uint64_t>(i)));
      hw::TileStats stats;
      c.expected = offline_response(c.req, &stats, 0);
      ids.push_back(static_cast<std::uint32_t>(w.cases.size()));
      w.cases.push_back(std::move(c));
    }
    by_kind.push_back(std::move(ids));
  }
  common::Rng rng(derive_seed(seed, 2));
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<std::uint32_t> block, frames;
    for (std::size_t k = 0; k < std::size(kMix); ++k) {
      for (int i = 0; i < kMix[k].per_block; ++i) {
        const auto& ids = by_kind[k];
        (kMix[k].kind == Kind::kFrame ? frames : block)
            .push_back(ids[static_cast<std::size_t>(
                rng.uniform(0, static_cast<std::int64_t>(ids.size()) - 1))]);
      }
    }
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[static_cast<std::size_t>(rng.uniform(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    }
    // The frame goes mid-block, so every statistics group of kBlock
    // consecutive completions holds one frame.
    block.insert(block.begin() + kBlock / 2, frames.begin(), frames.end());
    w.sequence.insert(w.sequence.end(), block.begin(), block.end());
  }
  return w;
}

/// Cold builds of the artifacts the rtl-compiled requests use, server
/// start, and one warm-up request of every request shape.
std::unique_ptr<server::DwtServer> start_server(const Workload& w, Result& r) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  cache.clear();
  const bool native = rtl::compiled::resolve_exec_tier(
                          rtl::compiled::ExecTier::kAuto, 1) ==
                      rtl::compiled::ExecTier::kNative;
  for (const hw::DesignId d : {hw::DesignId::kDesign2, hw::DesignId::kDesign3}) {
    const server::Request req;  // rtl thumbnails keep the default opt level
    const hw::DatapathConfig cfg = hw::design_config(d, kThumbOctaves);
    {
      const Scope s("core.cache.design");
      (void)cache.design(cfg);
    }
    {
      const Scope s("core.cache.tape");
      (void)cache.tape(cfg, rtl::HardeningStyle::kNone, req.opt_level);
    }
    if (native) {
      const Scope s("core.cache.native");
      (void)cache.native_block(cfg, rtl::HardeningStyle::kNone, req.opt_level,
                               1);
    }
  }
  server::ServerOptions opt;
  opt.workers = kWorkers;
  auto srv = std::make_unique<server::DwtServer>(opt);
  {
    const Scope s("server.start");
    srv->start();
  }
  int fd = -1;
  std::vector<bool> seen(64, false);
  for (const Case& c : w.cases) {
    if (c.kind == Kind::kFrame) continue;
    const std::size_t shape = static_cast<std::size_t>(c.kind) * 8 +
                              static_cast<std::size_t>(c.req.design);
    if (seen[shape]) continue;
    seen[shape] = true;
    const Scope s("server.warmup");
    ++r.attempted;
    if (!round_trip(srv->port(), &fd, c)) {
      r.fail(std::string("serve_mix: warm-up ") + kind_name(c.kind) +
             " request failed");
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }
  if (fd >= 0) ::close(fd);
  return srv;
}

/// Completions per statistics group: one block, so each group holds the
/// whole mix (and one frame), with 10 samples beyond the 99th percentile.
constexpr std::size_t kGroup = kBlock;

struct LoadOut {
  std::vector<double> latency_s;
  std::vector<double> done_s;  ///< completion times from the window start
  std::array<std::size_t, kKinds> per_kind{};  ///< completions by Kind

  /// Groups of kGroup consecutive completions; each statistic is the
  /// median over the groups, so a burst of host contention moves at most
  /// the groups it overlaps.  A window shorter than one group is one group.
  [[nodiscard]] double group_median(
      const std::function<double(std::size_t, std::size_t)>& stat) const {
    std::vector<double> v;
    for (std::size_t g = 0; (g + 1) * kGroup <= done_s.size(); ++g) {
      v.push_back(stat(g * kGroup, (g + 1) * kGroup));
    }
    if (v.empty()) v.push_back(stat(0, done_s.size()));
    return median(v);
  }
  [[nodiscard]] double rps() const {
    return group_median([&](std::size_t b, std::size_t e) {
      const double start = b == 0 ? 0.0 : done_s[b - 1];
      return static_cast<double>(e - b) / (done_s[e - 1] - start);
    });
  }
  [[nodiscard]] double latency_quantile_s(double q) const {
    return group_median([&](std::size_t b, std::size_t e) {
      return quantile({latency_s.begin() + static_cast<std::ptrdiff_t>(b),
                       latency_s.begin() + static_cast<std::ptrdiff_t>(e)},
                      q);
    });
  }
  [[nodiscard]] double total_latency_s() const {
    double s = 0.0;
    for (const double x : latency_s) s += x;
    return s;
  }
};

struct Conn {
  int fd = -1;
  bool reconnect = false;  ///< open a fresh connection for every request
  bool busy = false;
  std::uint32_t case_id = 0;
  std::int64_t sent_ns = 0;
  std::uint64_t op = 0;
};

/// Closed loop: each connection keeps one request in flight until
/// `seconds` have passed, then the outstanding answers are drained.
LoadOut drive(std::uint16_t port, const Workload& w, std::size_t* cursor,
              double seconds, Result& r) {
  std::array<Conn, kConnections> conns;
  conns.back().reconnect = true;
  LoadOut out;
  const auto t0 = Clock::now();
  auto issue = [&](Conn& c) {
    c.case_id = w.sequence[*cursor % w.sequence.size()];
    c.op = (*cursor)++;
    c.sent_ns = Tracer::now_ns();
    if (c.reconnect && c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
    if (c.fd < 0) {
      const Scope s("server.connect", c.op);
      c.fd = connect_tcp(port);
    }
    std::vector<std::uint8_t> payload;
    {
      const Scope s("protocol.encode_request", c.op);
      payload = server::encode_request(w.cases[c.case_id].req);
    }
    c.busy = true;
    const Scope s("server.send", c.op);
    if (c.fd < 0 || !send_frame(c.fd, payload)) {
      throw std::runtime_error("serve_mix: cannot send a request");
    }
  };
  for (Conn& c : conns) issue(c);
  std::vector<std::uint8_t> frame;
  for (;;) {
    std::array<pollfd, kConnections> pfds{};
    std::array<Conn*, kConnections> who{};
    nfds_t n = 0;
    for (Conn& c : conns) {
      if (!c.busy) continue;
      pfds[n] = {c.fd, POLLIN, 0};
      who[n++] = &c;
    }
    if (n == 0) break;
    const int ready = ::poll(pfds.data(), n, kPollTimeoutMs);
    if (ready <= 0) throw std::runtime_error("serve_mix: no response in time");
    for (nfds_t i = 0; i < n; ++i) {
      if (pfds[i].revents == 0) continue;
      Conn& c = *who[i];
      bool got = false;
      {
        const Scope s("server.recv", c.op);
        got = recv_frame(c.fd, &frame);
      }
      const std::int64_t done_ns = Tracer::now_ns();
      ++r.attempted;
      if (!got) {
        r.fail("serve_mix: connection dropped");
        ::close(c.fd);
        c.fd = -1;
      } else {
        std::optional<server::Response> resp;
        {
          const Scope s("protocol.decode_response", c.op);
          std::string error;
          resp = server::decode_response(frame.data(), frame.size(), &error);
        }
        const Case& k = w.cases[c.case_id];
        const Scope s("bench.verify", c.op);
        if (!resp || resp->status != server::Status::kOk) {
          r.fail(std::string("serve_mix: ") + kind_name(k.kind) +
                 " request rejected: " +
                 (resp ? server::response_message(*resp) : "bad frame"));
        } else if (resp->payload != k.expected) {
          r.fail(std::string("serve_mix: ") + kind_name(k.kind) +
                 " response differs from the offline bytes");
        }
      }
      out.latency_s.push_back(static_cast<double>(done_ns - c.sent_ns) / 1e9);
      ++out.per_kind[static_cast<std::size_t>(w.cases[c.case_id].kind)];
      out.done_s.push_back(seconds_since(t0));
      c.busy = false;
      if (seconds_since(t0) < seconds) issue(c);
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  return out;
}

/// Seconds of load between two set-up repeats in the untraced window.
constexpr double kSegmentSeconds = 2.0;

/// The untraced window: `seconds` of load in segments of kSegmentSeconds,
/// with set-up repeats (each a second server, started, warmed up and
/// stopped) between two segments.  Completion times run on across the
/// segments without the pauses, so statistics groups may straddle one.
LoadOut drive_segments(std::uint16_t port, const Workload& w,
                       std::size_t* cursor, double seconds, SetupTimer& setup,
                       Result& r) {
  LoadOut out;
  double elapsed_s = 0.0;
  for (;;) {
    const LoadOut seg =
        drive(port, w, cursor, std::min(kSegmentSeconds, seconds - elapsed_s),
              r);
    out.latency_s.insert(out.latency_s.end(), seg.latency_s.begin(),
                         seg.latency_s.end());
    for (const double t : seg.done_s) out.done_s.push_back(elapsed_s + t);
    for (std::size_t k = 0; k < kKinds; ++k) out.per_kind[k] += seg.per_kind[k];
    elapsed_s += seg.done_s.back();
    if (elapsed_s >= seconds) return out;
    (void)setup.between(elapsed_s);
  }
}

/// The probe's figures for one request kind.
struct KindProbe {
  std::vector<double> execute_s;  ///< per distinct case
  std::map<std::string, double> layer_ns;  ///< offline pipeline, by layer

  [[nodiscard]] double mean_execute_s() const {
    double s = 0.0;
    for (const double x : execute_s) s += x;
    return s / static_cast<double>(execute_s.size());
  }
};

struct Probe {
  std::array<KindProbe, kKinds> kinds;
  std::uint64_t line_passes = 0, sim_cycles = 0;
};

constexpr int kProbeRepeats = 3;
constexpr const char* kExecuteSpan[kKinds] = {
    "server.execute.thumb", "server.execute.forward", "server.execute.compress",
    "server.execute.rtl",   "server.execute.odd",     "server.execute.frame",
};

/// After the window: every distinct case through execute_request, the
/// server's worker body, on this thread (median of kProbeRepeats calls),
/// then through the offline pipeline with a span around each library call,
/// which splits each kind's time into layers.
Probe run_probe(const Workload& w, Result& r) {
  Probe p;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  for (const Case& c : w.cases) {
    const std::vector<std::uint8_t> frame = server::encode_request(c.req);
    std::optional<server::Request> req;
    {
      const Scope s("protocol.decode_request");
      std::string error;
      req = server::decode_request(frame.data(), frame.size(), &error);
    }
    if (!req) throw std::runtime_error("serve_mix: request does not decode");
    const auto kind = static_cast<std::size_t>(c.kind);
    std::vector<double> times;
    for (int i = 0; i < kProbeRepeats; ++i) {
      server::Response resp;
      const auto e0 = Clock::now();
      {
        const Scope s(kExecuteSpan[kind]);
        resp = server::execute_request(*req);
      }
      times.push_back(seconds_since(e0));
      ++r.attempted;
      if (resp.status != server::Status::kOk || resp.payload != c.expected) {
        r.fail("serve_mix: execute_request differs from the offline bytes");
      }
    }
    p.kinds[kind].execute_s.push_back(median(times));
  }
  // w.cases holds each kind's cases together, so one window per kind.
  std::size_t i = 0;
  while (i < w.cases.size()) {
    const Kind kind = w.cases[i].kind;
    const std::int64_t t0 = Tracer::now_ns();
    for (; i < w.cases.size() && w.cases[i].kind == kind; ++i) {
      hw::TileStats stats;
      (void)offline_response(w.cases[i].req, &stats, i);
      if (kind == Kind::kRtl) {
        p.line_passes += stats.line_passes;
        p.sim_cycles += stats.total_cycles;
      }
    }
    const std::int64_t t1 = Tracer::now_ns();
    for (const auto& [name, t] : span_totals(tracer.spans(), t0, t1)) {
      p.kinds[static_cast<std::size_t>(kind)].layer_ns[span_layer(name)] +=
          t.self_ns;
    }
  }
  tracer.set_enabled(false);
  return p;
}

}  // namespace

/// serve_mix's traced measurement on a fresh server (its set-up untraced):
/// `plain_s` of load untraced (none when 0), `traced_s` traced, then the
/// probe.  Fills the per-layer values only serve_mix measures, and returns
/// the window and its request ledger for the caller's layer shares.
ServeTrace trace_serve_window(std::uint64_t seed, double plain_s,
                              double traced_s, Result& r) {
  Tracer& tracer = Tracer::instance();
  const bool was_tracing = tracer.enabled();
  tracer.set_enabled(false);
  const Workload w = make_workload(seed);
  const std::unique_ptr<server::DwtServer> srv = start_server(w, r);
  std::size_t cursor = 0;
  ServeTrace st;
  if (plain_s > 0.0) {
    st.plain_s_per_op = 1.0 / drive(srv->port(), w, &cursor, plain_s, r).rps();
  }
  const server::MetricsSnapshot m0 = srv->metrics();
  tracer.set_enabled(true);
  st.t0_ns = Tracer::now_ns();
  const LoadOut traced = drive(srv->port(), w, &cursor, traced_s, r);
  st.t1_ns = Tracer::now_ns();
  tracer.set_enabled(false);
  st.traced_s_per_op = 1.0 / traced.rps();
  const server::MetricsSnapshot m1 = srv->metrics();
  std::map<std::string, double>& v = st.values;
  v["server.threads_end"] = static_cast<double>(thread_count());
  v["server.vmsize_mb_end"] = vmsize_mb();
  v["server.rejected"] =
      static_cast<double>(m1.rejected_queue_full + m1.rejected_shutting_down);
  v["server.protocol_errors"] = static_cast<double>(m1.protocol_errors);
  srv->stop();
  const Probe probe = run_probe(w, r);
  tracer.set_enabled(was_tracing);

  // Execute time by kind, and each kind's share of a block's execute time.
  double block_s = 0.0;
  for (const Share& m : kMix) {
    block_s += m.per_block *
               probe.kinds[static_cast<std::size_t>(m.kind)].mean_execute_s();
  }
  for (const Share& m : kMix) {
    const double x =
        probe.kinds[static_cast<std::size_t>(m.kind)].mean_execute_s();
    const std::string name = kExecuteSpan[static_cast<std::size_t>(m.kind)];
    v[name + ".ms"] = x * 1e3;
    v[name + ".share"] = m.per_block * x / block_s;
  }

  // The window's ledger, in ns of request time.  Client spans are measured
  // on this thread; the server's clock (snapshot difference) gives queue
  // wait + execute; each completed request's execute time is its kind's
  // probe time, split into layers as the offline pipeline splits it.
  double inside_ns = 0.0, client_ns = 0.0;
  for (const auto& [name, t] :
       span_totals(tracer.spans(), st.t0_ns, st.t1_ns)) {
    st.layer_ns[span_layer(name)] += t.self_ns;
    client_ns += t.self_ns;
    if (name == "server.connect" || name == "protocol.encode_request" ||
        name == "server.send" || name == "server.recv") {
      inside_ns += t.self_ns;  // inside the request's latency
    }
  }
  double execute_ns = 0.0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const KindProbe& kp = probe.kinds[k];
    const double ns = static_cast<double>(traced.per_kind[k]) *
                      kp.mean_execute_s() * 1e9;
    double offline_ns = 0.0;
    for (const auto& [layer, t] : kp.layer_ns) offline_ns += t;
    for (const auto& [layer, t] : kp.layer_ns) {
      st.layer_ns[layer] += ns * t / offline_ns;
    }
    execute_ns += ns;
  }
  const double n = static_cast<double>(traced.latency_s.size());
  const double server_ns =
      (m1.latency_mean_us * static_cast<double>(m1.requests_ok) -
       m0.latency_mean_us * static_cast<double>(m0.requests_ok)) *
      1e3;
  const double queue_ns = server_ns - execute_ns;
  st.layer_ns["server"] += std::max(queue_ns, 0.0);
  const double latency_ns = traced.total_latency_s() * 1e9;
  const double after_ns = client_ns - inside_ns;  // decode + verify
  st.coverage = (inside_ns + server_ns + after_ns) / (latency_ns + after_ns);
  v["server.queue_wait.mean_us"] = queue_ns / n / 1e3;
  v["server.transport.mean_us"] = (latency_ns - server_ns) / n / 1e3;
  v["hw.line_passes"] = static_cast<double>(probe.line_passes);
  v["hw.sim_cycles"] = static_cast<double>(probe.sim_cycles);
  return st;
}

Result run_serve_mix(const RunConfig& cfg) {
  Result r;
  if (cfg.trace) {
    const ServeTrace st =
        trace_serve_window(cfg.seed, cfg.seconds / 2, cfg.seconds / 2, r);
    add_cache_values(r);
    add_trace_values(r, st.t0_ns, st.t1_ns, st.plain_s_per_op,
                     st.traced_s_per_op);
    for (const auto& [name, value] : st.values) r.values[name] = value;
    set_layer_shares(r, st.layer_ns);
    r.values["trace.coverage"] = st.coverage;
    return r;
  }

  const Workload w = make_workload(cfg.seed);
  std::unique_ptr<server::DwtServer> started;
  SetupTimer setup([&] { started = start_server(w, r); },
                   [&] { started.reset(); });
  setup.run_first();
  const std::unique_ptr<server::DwtServer> srv = std::move(started);
  std::size_t cursor = 0;
  const LoadOut out =
      drive_segments(srv->port(), w, &cursor, cfg.seconds, setup, r);
  srv->stop();
  add_end_to_end_values(r, setup.median_s(), out.rps(),
                        out.latency_quantile_s(0.50),
                        out.latency_quantile_s(0.99));
  r.notes.push_back("serve_rps " + std::to_string(out.rps()) + " over " +
                    std::to_string(out.latency_s.size()) +
                    " requests; serve_p50_ms " +
                    std::to_string(r.values["p50_ms"]) + ", serve_p99_ms " +
                    std::to_string(r.values["tail_ms"]));
  return r;
}

}  // namespace perfbench
