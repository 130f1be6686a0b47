// The benchmark's workloads.  Each generates its inputs from the run seed,
// times its set-up and its measured window, checks every output against an
// independent reference, and fills the end-to-end values (setup_s,
// peak_rss_mb, ops_per_s, p50_ms, tail_ms) or, in a traced run, the
// per-layer values.  perfbench/README.md documents what each one measures
// and why it was chosen.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_frame_rtl(const RunConfig& cfg);
Result run_serve_mix(const RunConfig& cfg);
Result run_campaign_mixed(const RunConfig& cfg);
Result run_explore_sweep(const RunConfig& cfg);

/// serve_mix's traced window and request ledger (trace_serve_window).
struct ServeTrace {
  std::int64_t t0_ns = 0, t1_ns = 0;  ///< the traced window
  double plain_s_per_op = 0.0;        ///< untraced, 0 when not measured
  double traced_s_per_op = 0.0;
  /// The server, protocol and probe values only serve_mix measures, to be
  /// set after add_trace_values (they replace its span means).
  std::map<std::string, double> values;
  std::map<std::string, double> layer_ns;  ///< the window's ledger
  double coverage = 0.0;                   ///< ledger share with a clock
};
ServeTrace trace_serve_window(std::uint64_t seed, double plain_s,
                              double traced_s, Result& r);

/// One cold pass of explore_sweep's sweep, checked against its frontier
/// records, then its fpga probe, with spans when tracing is on: the
/// elaboration, fpga and explore.evaluate figures for the traced run of a
/// workload that does not sweep (campaign_mixed).
void run_sweep_probe(std::uint64_t seed, Result& r);

/// Cache state of the process-wide ArtifactCache since its last clear():
/// "core.cache.builds" and "core.cache.hits".
void add_cache_values(Result& r);

}  // namespace perfbench
