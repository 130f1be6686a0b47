#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/rng.hpp"
#include "core/artifact_cache.hpp"
#include "dsp/image_gen.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

void Result::fail(const std::string& why) {
  correct = false;
  ++failed;
  // Keep the first few reasons; a systematic mismatch would otherwise
  // flood stdout.
  if (notes.size() < 16) notes.push_back("FAIL " + why);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

ClassStats class_stats(const std::vector<std::vector<double>>& seconds_by_class,
                       double work_per_round) {
  std::vector<double> medians;
  for (const std::vector<double>& v : seconds_by_class) {
    medians.push_back(median(v));
  }
  double round_s = 0.0;
  for (const double m : medians) round_s += m;
  ClassStats s;
  s.ops_per_s = work_per_round / round_s;
  s.p50_s = median(medians);
  s.tail_s = *std::max_element(medians.begin(), medians.end());
  return s;
}

void SetupTimer::repeat() {
  const auto t0 = Clock::now();
  setup_();
  times_.push_back(seconds_since(t0));
}

void SetupTimer::run_first() {
  constexpr int kFirstRepeats = 3;
  for (int i = 0; i < kFirstRepeats; ++i) {
    if (reset_ && i > 0) reset_();
    repeat();
  }
}

double SetupTimer::between(double window_s) {
  constexpr double kShare = 0.1;
  const auto t0 = Clock::now();
  while (between_s_ < kShare * window_s) {
    repeat();
    between_s_ += times_.back();
    if (reset_) reset_();
  }
  return seconds_since(t0);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  dwt::common::Rng rng(seed * 0x100000001B3ULL ^ (stream + 1) * 0x9E3779B97F4A7C15ULL);
  return rng.next_u64();
}

std::string pgm_bytes(const dwt::dsp::Image& img) {
  std::ostringstream out;
  dwt::dsp::write_pgm(img, out, "perfbench input");
  return out.str();
}

dwt::dsp::Image make_input_image(std::size_t w, std::size_t h,
                                 std::uint64_t seed) {
  return seed % 4 == 3 ? dwt::dsp::make_noise_image(w, h, seed)
                       : dwt::dsp::make_still_tone_image(w, h, seed);
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void add_end_to_end_values(Result& r, double setup_s, double ops_per_s,
                           double p50_s, double tail_s) {
  r.values["setup_s"] = setup_s;
  r.values["peak_rss_mb"] = peak_rss_mb();
  r.values["ops_per_s"] = ops_per_s;
  r.values["p50_ms"] = p50_s * 1e3;
  r.values["tail_ms"] = tail_s * 1e3;
}

void add_cache_values(Result& r) {
  const dwt::core::CacheStats s = dwt::core::ArtifactCache::instance().stats();
  r.values["core.cache.builds"] = static_cast<double>(
      s.design_builds + s.tape_builds + s.mapped_builds + s.cone_builds +
      s.native_builds);
  r.values["core.cache.hits"] = static_cast<double>(
      s.design_hits + s.tape_hits + s.mapped_hits + s.cone_hits +
      s.native_hits);
}

void add_trace_values(Result& r, std::int64_t t0_ns, std::int64_t t1_ns,
                      double untraced_s_per_op, double traced_s_per_op) {
  const std::vector<Span> spans = Tracer::instance().spans();
  for (const auto& [name, t] :
       span_totals(spans, std::numeric_limits<std::int64_t>::min(),
                   std::numeric_limits<std::int64_t>::max())) {
    r.values[name + ".ms"] = t.self_ms_per_call();
    r.values[name + ".us"] = t.self_ms_per_call() * 1e3;
  }
  // Spans on several threads overlap, so shares are of the summed self
  // time rather than of wall time.
  std::map<std::string, double> layer_ns;
  for (const auto& [name, t] : span_totals(spans, t0_ns, t1_ns)) {
    layer_ns[span_layer(name)] += t.self_ns;
  }
  set_layer_shares(r, layer_ns);
  r.values["trace.coverage"] = span_coverage(spans, t0_ns, t1_ns);
  r.values["trace.overhead"] =
      untraced_s_per_op > 0.0 ? traced_s_per_op / untraced_s_per_op : 0.0;
}

void set_layer_shares(Result& r,
                      const std::map<std::string, double>& layer_ns) {
  std::erase_if(r.values, [](const auto& kv) {
    return kv.first.rfind("layer.", 0) == 0;
  });
  double all_ns = 0.0;
  for (const auto& [layer, ns] : layer_ns) all_ns += ns;
  for (const auto& [layer, ns] : layer_ns) {
    r.values["layer." + layer + ".self_share"] = ns / all_ns;
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double vmsize_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtod(line.c_str() + 7, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::size_t thread_count() {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    (void)entry;
    ++n;
  }
  return n;
}

}  // namespace perfbench
