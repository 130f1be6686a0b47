// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <frame_rtl|serve_mix|campaign_mixed|explore_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints notes, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  A traced run also
// writes its spans to <work-dir>/trace-<workload>-<seed>.jsonl.
#include <cmath>
#include <cstdio>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (perfbench/run.py checks the two agree).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},    {"peak_rss_mb", "MB"}, {"ops_per_s", "1/s"},
    {"p50_ms", "ms"},    {"tail_ms", "ms"},
};

// Layers a workload does not exercise report 0.
constexpr MetricDef kPerLayer[] = {
    {"error_rate", "ratio"},
    {"trace.coverage", "share"},
    {"trace.overhead", "ratio"},
    {"layer.dsp.self_share", "share"},
    {"layer.hw.self_share", "share"},
    {"layer.compiled.self_share", "share"},
    {"layer.core.self_share", "share"},
    {"layer.fpga.self_share", "share"},
    {"layer.explore.self_share", "share"},
    {"layer.server.self_share", "share"},
    {"layer.codec.self_share", "share"},
    {"layer.bench.self_share", "share"},
    {"dsp.read_pgm.ms", "ms"},
    {"dsp.write_pgm.ms", "ms"},
    {"hw.tile_forward.ms", "ms"},
    {"hw.tile_inverse.ms", "ms"},
    {"hw.run_stream_batch.us_per_line", "us"},
    {"hw.host_ns_per_sim_cycle", "ns"},
    {"hw.line_passes", "count"},
    {"hw.sim_cycles", "count"},
    {"compiled.step.ns_per_cycle", "ns"},
    {"compiled.feed_extract_share", "share"},
    {"core.cache.design.ms", "ms"},
    {"core.cache.tape.ms", "ms"},
    {"core.cache.native.ms", "ms"},
    {"core.cache.cone.ms", "ms"},
    {"core.cache.mapped.ms", "ms"},
    {"core.cache.builds", "count"},
    {"core.cache.hits", "count"},
    {"fpga.sta.ms", "ms"},
    {"fpga.activity.ms", "ms"},
    {"fpga.power.ms", "ms"},
    {"explore.evaluate.ms", "ms"},
    {"explore.run_campaign.ms", "ms"},
    {"explore.load_checkpoint.ms", "ms"},
    {"explore.cone.instruction_reduction", "share"},
    {"explore.campaign.masked", "count"},
    {"explore.campaign.detected", "count"},
    {"explore.campaign.sdc", "count"},
    {"server.execute.thumb.ms", "ms"},
    {"server.execute.forward.ms", "ms"},
    {"server.execute.compress.ms", "ms"},
    {"server.execute.rtl.ms", "ms"},
    {"server.execute.odd.ms", "ms"},
    {"server.execute.frame.ms", "ms"},
    {"server.execute.thumb.share", "share"},
    {"server.execute.forward.share", "share"},
    {"server.execute.compress.share", "share"},
    {"server.execute.rtl.share", "share"},
    {"server.execute.odd.share", "share"},
    {"server.execute.frame.share", "share"},
    {"server.queue_wait.mean_us", "us"},
    {"server.transport.mean_us", "us"},
    {"protocol.encode_request.us", "us"},
    {"protocol.decode_request.us", "us"},
    {"protocol.decode_response.us", "us"},
    {"server.threads_end", "count"},
    {"server.vmsize_mb_end", "MB"},
    {"server.rejected", "count"},
    {"server.protocol_errors", "count"},
    {"codec.encode_image.ms", "ms"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "frame_rtl|serve_mix|campaign_mixed|explore_sweep --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.work_dir = ".bench_build/perfbench-work";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      cfg.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0 && parse_u64(value, &v)) {
      cfg.seed = v;
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0 && parse_u64(value, &v) &&
               v >= 1 && v <= 600) {
      cfg.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0 && parse_u64(value, &v) &&
               v <= 1) {
      cfg.trace = v == 1;
      have_trace = true;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      cfg.work_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  Result r;
  try {
    std::filesystem::create_directories(cfg.work_dir);
    if (cfg.workload == "frame_rtl") {
      r = run_frame_rtl(cfg);
    } else if (cfg.workload == "serve_mix") {
      r = run_serve_mix(cfg);
    } else if (cfg.workload == "campaign_mixed") {
      r = run_campaign_mixed(cfg);
    } else if (cfg.workload == "explore_sweep") {
      r = run_explore_sweep(cfg);
    } else {
      return usage();
    }
    if (r.attempted == 0) throw std::runtime_error("no operation attempted");
    r.values["error_rate"] = static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
    if (cfg.trace) {
      Tracer::instance().write(cfg.work_dir + "/trace-" + cfg.workload + "-" +
                               std::to_string(cfg.seed) + ".jsonl");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& note : r.notes) {
    std::printf("%s: %s\n", cfg.workload.c_str(), note.c_str());
  }
  std::printf("%s: error_rate %s (%llu failed of %llu attempted)\n",
              cfg.workload.c_str(), json_number(r.values["error_rate"]).c_str(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m, double value) {
    if (!first) json += ", ";
    first = false;
    json.append("\"").append(m.name).append("\": {\"value\": ");
    json.append(json_number(value)).append(", \"unit\": \"");
    json.append(m.unit).append("\"}");
  };
  try {
    if (cfg.trace) {
      for (const MetricDef& m : kPerLayer) {
        const auto it = r.values.find(m.name);
        emit(m, it == r.values.end() ? 0.0 : it->second);
      }
    } else {
      for (const MetricDef& m : kEndToEnd) {
        const auto it = r.values.find(m.name);
        if (it == r.values.end()) {
          throw std::runtime_error(std::string("missing metric ") + m.name);
        }
        emit(m, it->second);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
