// dwt97d -- the DWT-as-a-service daemon and its client.
//
//   dwt97d serve    [--socket PATH | --port N] [--workers N] [--queue N]
//                   [--port-file PATH]
//   dwt97d tile     <in.pgm> <out.pgm> --connect SPEC [--octaves N]
//                   [--tile N] [--backend NAME] [--design D]
//                   [--opt-level 0|1|2]
//   dwt97d forward  <in.pgm> <out.bin> --connect SPEC [same knobs]
//   dwt97d compress <in.pgm> <out.dwt> --connect SPEC [--octaves N]
//   dwt97d metrics  --connect SPEC
//   dwt97d shutdown --connect SPEC
//
// SPEC is `unix:PATH` or a TCP port number on 127.0.0.1.  `serve` runs the
// bounded-queue worker-pool server (src/server) until SIGINT/SIGTERM or a
// shutdown request arrives, then drains gracefully.  The client subcommands
// frame one request, print or write the response, and exit nonzero on any
// error status -- `dwt97d tile` output is byte-identical to `dwt97cli tile`
// under the same knobs.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.hpp"
#include "core/registry.hpp"
#include "hw/designs.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace {

using dwt::tools::parse_long;
using dwt::tools::read_file;
using dwt::tools::report_missing_value;
using dwt::tools::write_file;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  dwt97d serve    [--socket PATH | --port N] [--workers N] "
      "[--queue N]\n"
      "                  [--port-file PATH]\n"
      "  dwt97d tile     <in.pgm> <out.pgm> --connect SPEC [--octaves N]\n"
      "                  [--tile N] [--backend NAME] [--design D] "
      "[--opt-level 0|1|2]\n"
      "  dwt97d forward  <in.pgm> <out.bin> --connect SPEC [same knobs]\n"
      "  dwt97d compress <in.pgm> <out.dwt> --connect SPEC [--octaves N]\n"
      "  dwt97d metrics  --connect SPEC\n"
      "  dwt97d shutdown --connect SPEC\n"
      "SPEC: unix:PATH or a TCP port on 127.0.0.1\n"
      "backends: %s\n",
      dwt::core::backend_names().c_str());
  return 2;
}

bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got > 0) {
      p += got;
      n -= static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put > 0) {
      p += put;
      n -= static_cast<std::size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Connects per SPEC (`unix:PATH` or a loopback TCP port).
int connect_to(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("bad unix socket path: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw std::runtime_error("cannot connect to " + path);
    }
    return fd;
  }
  long port = 0;
  if (!parse_long(spec.c_str(), 1, 65535, &port)) {
    throw std::runtime_error("bad --connect spec: " + spec +
                             " (want unix:PATH or a port number)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to 127.0.0.1:" + spec);
  }
  return fd;
}

/// One request/response exchange over a fresh connection.
dwt::server::Response roundtrip(const std::string& spec,
                                const dwt::server::Request& req) {
  const int fd = connect_to(spec);
  const std::vector<std::uint8_t> body = dwt::server::encode_request(req);
  // Prefix and body in one send() so small exchanges don't hit a Nagle +
  // delayed-ACK round trip on loopback TCP.
  std::vector<std::uint8_t> frame;
  frame.reserve(4 + body.size());
  const auto n = static_cast<std::uint32_t>(body.size());
  frame.push_back(static_cast<std::uint8_t>(n & 0xFF));
  frame.push_back(static_cast<std::uint8_t>((n >> 8) & 0xFF));
  frame.push_back(static_cast<std::uint8_t>((n >> 16) & 0xFF));
  frame.push_back(static_cast<std::uint8_t>(n >> 24));
  frame.insert(frame.end(), body.begin(), body.end());
  if (!write_all(fd, frame.data(), frame.size())) {
    ::close(fd);
    throw std::runtime_error("send failed (server gone?)");
  }
  std::uint8_t rlen_bytes[4];
  if (!read_exact(fd, rlen_bytes, 4)) {
    ::close(fd);
    throw std::runtime_error("no response (server gone?)");
  }
  const std::uint32_t rlen = static_cast<std::uint32_t>(rlen_bytes[0]) |
                             (static_cast<std::uint32_t>(rlen_bytes[1]) << 8) |
                             (static_cast<std::uint32_t>(rlen_bytes[2]) << 16) |
                             (static_cast<std::uint32_t>(rlen_bytes[3]) << 24);
  if (rlen == 0 || rlen > dwt::server::kMaxFrameBytes) {
    ::close(fd);
    throw std::runtime_error("bad response frame length");
  }
  std::vector<std::uint8_t> buf(rlen);
  const bool ok = read_exact(fd, buf.data(), buf.size());
  ::close(fd);
  if (!ok) throw std::runtime_error("truncated response");
  std::string error;
  std::optional<dwt::server::Response> resp =
      dwt::server::decode_response(buf.data(), buf.size(), &error);
  if (!resp) throw std::runtime_error("undecodable response: " + error);
  return *resp;
}

int cmd_serve(int argc, char** argv) {
  dwt::server::ServerOptions opt;
  std::string port_file;
  for (int i = 2; i < argc; ++i) {
    long v = 0;
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      opt.unix_socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      if (!parse_long(argv[++i], 0, 65535, &v)) {
        std::fprintf(stderr, "bad --port value: %s\n", argv[i]);
        return usage();
      }
      opt.tcp_port = static_cast<std::uint16_t>(v);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      if (!parse_long(argv[++i], 0, 1024, &v)) {
        std::fprintf(stderr, "bad --workers value: %s\n", argv[i]);
        return usage();
      }
      opt.workers = static_cast<unsigned>(v);
    } else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
      if (!parse_long(argv[++i], 1, 1 << 20, &v)) {
        std::fprintf(stderr, "bad --queue value: %s\n", argv[i]);
        return usage();
      }
      opt.queue_depth = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc) {
      port_file = argv[++i];
    } else {
      if (!report_missing_value(argv[i], {"--socket", "--port", "--workers",
                                          "--queue", "--port-file"})) {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      }
      return usage();
    }
  }
  dwt::server::DwtServer server(opt);
  server.start();
  if (!opt.unix_socket_path.empty()) {
    std::printf("dwt97d: listening on %s (%u workers, queue %zu)\n",
                opt.unix_socket_path.c_str(), server.workers(),
                server.queue_capacity());
  } else {
    std::printf("dwt97d: listening on 127.0.0.1:%u (%u workers, queue %zu)\n",
                server.port(), server.workers(), server.queue_capacity());
  }
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_signal == 0 && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("dwt97d: draining...\n");
  std::fflush(stdout);
  server.stop();
  std::printf("dwt97d: stopped\n");
  return 0;
}

/// Shared flag parsing for the transform client subcommands.
bool parse_transform_flags(int argc, char** argv, int first,
                           dwt::server::Request* req, std::string* spec) {
  for (int i = first; i < argc; ++i) {
    long v = 0;
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      *spec = argv[++i];
    } else if (std::strcmp(argv[i], "--octaves") == 0 && i + 1 < argc) {
      if (!parse_long(argv[++i], 1, 16, &v)) {
        std::fprintf(stderr, "bad --octaves value: %s\n", argv[i]);
        return false;
      }
      req->octaves = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--tile") == 0 && i + 1 < argc) {
      if (!parse_long(argv[++i], 1, 65535, &v)) {
        std::fprintf(stderr, "bad --tile value: %s\n", argv[i]);
        return false;
      }
      req->tile = static_cast<std::uint16_t>(v);
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      req->backend = argv[++i];
    } else if (std::strcmp(argv[i], "--design") == 0 && i + 1 < argc) {
      const std::optional<dwt::hw::DesignId> design =
          dwt::hw::parse_design(argv[++i]);
      if (!design) {
        std::fprintf(stderr, "bad --design value: %s\n", argv[i]);
        return false;
      }
      req->design = *design;
    } else if (std::strcmp(argv[i], "--opt-level") == 0 && i + 1 < argc) {
      if (!parse_long(argv[++i], 0, 2, &v)) {
        std::fprintf(stderr, "bad --opt-level value: %s\n", argv[i]);
        return false;
      }
      req->opt_level = static_cast<dwt::rtl::compiled::OptLevel>(v);
    } else {
      if (!report_missing_value(argv[i],
                                {"--connect", "--octaves", "--tile",
                                 "--backend", "--design", "--opt-level"})) {
        std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      }
      return false;
    }
  }
  if (spec->empty()) {
    std::fprintf(stderr, "missing --connect SPEC\n");
    return false;
  }
  return true;
}

int cmd_transform(int argc, char** argv, dwt::server::Op op) {
  if (argc < 4) return usage();
  dwt::server::Request req;
  req.op = op;
  req.format = dwt::server::PayloadFormat::kPgm;
  std::string spec;
  if (!parse_transform_flags(argc, argv, 4, &req, &spec)) return usage();
  req.payload = read_file(argv[2]);
  const dwt::server::Response resp = roundtrip(spec, req);
  if (resp.status != dwt::server::Status::kOk) {
    std::fprintf(stderr, "error (%s): %s\n", dwt::server::to_string(resp.status),
                 dwt::server::response_message(resp).c_str());
    return 1;
  }
  write_file(argv[3], resp.payload);
  std::printf("%s: %ux%u, %zu bytes\n", argv[3], resp.width, resp.height,
              resp.payload.size());
  return 0;
}

int cmd_metrics(int argc, char** argv) {
  std::string spec;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      spec = argv[++i];
    } else {
      (void)report_missing_value(argv[i], {"--connect"});
      return usage();
    }
  }
  if (spec.empty()) return usage();
  dwt::server::Request req;
  req.op = dwt::server::Op::kMetrics;
  const dwt::server::Response resp = roundtrip(spec, req);
  if (resp.status != dwt::server::Status::kOk) {
    std::fprintf(stderr, "error (%s): %s\n", dwt::server::to_string(resp.status),
                 dwt::server::response_message(resp).c_str());
    return 1;
  }
  std::fwrite(resp.payload.data(), 1, resp.payload.size(), stdout);
  std::printf("\n");
  return 0;
}

int cmd_shutdown(int argc, char** argv) {
  std::string spec;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      spec = argv[++i];
    } else {
      (void)report_missing_value(argv[i], {"--connect"});
      return usage();
    }
  }
  if (spec.empty()) return usage();
  dwt::server::Request req;
  req.op = dwt::server::Op::kShutdown;
  const dwt::server::Response resp = roundtrip(spec, req);
  if (resp.status != dwt::server::Status::kOk) {
    std::fprintf(stderr, "error (%s): %s\n", dwt::server::to_string(resp.status),
                 dwt::server::response_message(resp).c_str());
    return 1;
  }
  std::printf("shutdown requested\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "serve") == 0) return cmd_serve(argc, argv);
    if (std::strcmp(argv[1], "tile") == 0) {
      return cmd_transform(argc, argv, dwt::server::Op::kTileRoundTrip);
    }
    if (std::strcmp(argv[1], "forward") == 0) {
      return cmd_transform(argc, argv, dwt::server::Op::kForward);
    }
    if (std::strcmp(argv[1], "compress") == 0) {
      return cmd_transform(argc, argv, dwt::server::Op::kCompress);
    }
    if (std::strcmp(argv[1], "metrics") == 0) return cmd_metrics(argc, argv);
    if (std::strcmp(argv[1], "shutdown") == 0) return cmd_shutdown(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
