// Shared plumbing of the end-to-end benchmark: run configuration, the
// result record every workload returns, timing and statistics helpers, and
// the process probes (peak RSS, VmSize, thread count) the memory metrics use.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dsp/image.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;


/// Command-line options of one benchmark run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window (split in two when tracing)
  bool trace = false;
  std::string work_dir;   ///< scratch directory inside the checkout
};

/// What a workload reports.  `attempted` counts timed operations (frames,
/// requests, campaign passes, design points) plus correctness oracles run
/// outside the window; `failed` counts rejections, transport errors and
/// output mismatches among them.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by name; units and the set printed come from the
  /// metric tables in main.cpp.
  std::map<std::string, double> values;
  /// Human-readable lines printed before the JSON result (the workload's
  /// own names for its numbers, e.g. frame_mpix_s).
  std::vector<std::string> notes;
  void fail(const std::string& why);
};

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// End-to-end statistics of operations that fall into classes (designs,
/// pass kinds, design points), at an equal mix of the classes.  Each class
/// contributes its median operation time, which keeps short bursts of host
/// contention -- they only ever slow an operation down -- out of the
/// figures.
struct ClassStats {
  /// `work_per_round` units of work (one operation of every class) over
  /// the summed class medians.
  double ops_per_s = 0.0;
  double p50_s = 0.0;   ///< median of the class medians
  double tail_s = 0.0;  ///< the slowest class median
};
[[nodiscard]] ClassStats class_stats(
    const std::vector<std::vector<double>>& seconds_by_class,
    double work_per_round);

/// Times a workload's cold set-up across the whole run.  The set-up runs a
/// few times before timed work begins, then again between timed
/// operations, so its median covers the same stretch of host time as the
/// end-to-end figures.  On a shared host the speed of a single thread
/// moves by a quarter from one second to the next; a median over the first
/// second of a run would follow those swings.  Each call of `setup` must
/// start from the same cold state.  `reset`, when given, runs untimed after
/// every repeat but the last of `run_first` (tearing that repeat down).
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup,
                      std::function<void()> reset = {})
      : setup_(std::move(setup)), reset_(std::move(reset)) {}

  /// The repeats before timed work can begin; the last one's state is what
  /// the workload then runs on.
  void run_first();
  /// Between two timed operations, after `window_s` of measured window:
  /// repeats until the repeats since run_first() have taken a tenth of
  /// that, so they keep pace with the window whatever the set-up's length.
  /// Returns the wall time this took, resets included, which the caller
  /// leaves out of its window.
  double between(double window_s);
  /// Median wall time of all repeats, seconds.
  [[nodiscard]] double median_s() const { return median(times_); }

 private:
  void repeat();

  std::function<void()> setup_;
  std::function<void()> reset_;
  std::vector<double> times_;
  double between_s_ = 0.0;  ///< summed time of the repeats after run_first
};

/// Independent 64-bit stream `stream` derived from the run seed, so each
/// input family (images, request order, campaign seeds) draws from its own
/// sequence.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Binary PGM (P5) bytes of an 8-bit image, as write_pgm renders them.
[[nodiscard]] std::string pgm_bytes(const dwt::dsp::Image& img);

/// A test image of the given size: the still-tone photograph generator
/// for most seeds, uniform noise for a quarter of them.
[[nodiscard]] dwt::dsp::Image make_input_image(std::size_t w, std::size_t h,
                                               std::uint64_t seed);

/// FNV-1a over raw bytes (digests of coefficient planes).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n,
                                  std::uint64_t h = 1469598103934665603ULL);

/// Fills the end-to-end values every workload reports: the median set-up
/// time, peak RSS, the throughput, and the median and tail latency of the
/// workload's blocking call.
void add_end_to_end_values(Result& r, double setup_s, double ops_per_s,
                           double p50_s, double tail_s);

/// Fills the traced run's span-derived values: "<span>.ms" and "<span>.us"
/// (mean self time per call) for every span name, each layer's share of
/// the self time spent in spans inside the traced window [t0_ns, t1_ns) as
/// "layer.<layer>.self_share",
/// trace.coverage over that window, and trace.overhead -- the traced
/// window's time per operation over the untraced one's.
void add_trace_values(Result& r, std::int64_t t0_ns, std::int64_t t1_ns,
                      double untraced_s_per_op, double traced_s_per_op);

/// Replaces the "layer.<layer>.self_share" values with each layer's share
/// of `layer_ns`, for a workload whose attribution is not the window's
/// span self time alone (serve_mix).
void set_layer_shares(Result& r, const std::map<std::string, double>& layer_ns);

/// Peak resident set of this process (getrusage), MiB.
[[nodiscard]] double peak_rss_mb();
/// Current virtual size of this process (/proc/self/status VmSize), MiB.
[[nodiscard]] double vmsize_mb();
/// Threads currently alive in this process (/proc/self/task entries).
[[nodiscard]] std::size_t thread_count();

}  // namespace perfbench
