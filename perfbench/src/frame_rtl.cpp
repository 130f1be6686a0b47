// frame_rtl: PGM bytes in -> tile_forward on rtl-compiled -> tile_inverse ->
// PGM bytes out, the `dwt97cli tile` pipeline, on 1920x1080 frames (3
// octaves, 256-px tiles, 4 tile threads) cycling through the five Table 3
// designs.  Nearly all of the time is per-line feed/extract and tape
// evaluation in the gate-level 2-D path.
#include <cmath>
#include <sstream>

#include "core/artifact_cache.hpp"
#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "hw/tile_scheduler.hpp"
#include "rtl/compiled/batch_fault.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dwt;

constexpr std::size_t kWidth = 1920;
constexpr std::size_t kHeight = 1080;
constexpr int kOctaves = 3;
constexpr std::size_t kTile = 256;
constexpr unsigned kThreads = 4;
/// Cycles per measured window: with three frames per design, each design's
/// median drops the one frame a burst of host contention slowed most.
constexpr std::size_t kMinCycles = 3;

const std::vector<hw::DesignId> kDesigns = {
    hw::DesignId::kDesign1, hw::DesignId::kDesign2, hw::DesignId::kDesign3,
    hw::DesignId::kDesign4, hw::DesignId::kDesign5};

hw::TileOptions frame_options(hw::DesignId design, const char* backend) {
  hw::TileOptions opt;
  opt.tile_w = kTile;
  opt.tile_h = kTile;
  opt.threads = kThreads;
  opt.octaves = kOctaves;
  opt.method = dsp::Method::kLiftingFixed;
  opt.backend = core::find_backend(backend);
  opt.design = design;
  return opt;
}

struct PipelineOut {
  std::string pgm;
  std::uint64_t coeff_digest = 0;
  hw::TileStats stats;
};

/// Digest of the forward coefficients as integers (the plane holds exact
/// integers; hashing them avoids any signed-zero ambiguity).
std::uint64_t coefficient_digest(const dsp::Image& plane) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const double v : plane.data()) {
    const std::int64_t q = std::llround(v);
    h = fnv1a(&q, sizeof(q), h);
  }
  return h;
}

/// The `dwt97cli tile` pipeline on in-memory PGM bytes.
PipelineOut run_pipeline(const std::string& pgm_in, const hw::TileOptions& opt,
                         std::uint64_t op) {
  dsp::Image img;
  {
    const Scope s("dsp.read_pgm", op);
    std::istringstream in(pgm_in);
    img = dsp::read_pgm(in, "frame");
  }
  {
    const Scope s("dsp.level_shift", op);
    dsp::level_shift_forward(img);
    dsp::round_coefficients(img);
  }
  PipelineOut out;
  {
    const Scope s("hw.tile_forward", op);
    out.stats = hw::tile_forward(img, opt);
  }
  {
    const Scope s("bench.digest", op);
    out.coeff_digest = coefficient_digest(img);
  }
  // Gate-level engines have no 2-D inverse; like the CLI, invert through
  // the software path (their forward is bit-identical to it).
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
  {
    const Scope s("dsp.write_pgm", op);
    std::ostringstream o;
    dsp::write_pgm(img, o, "frame");
    out.pgm = o.str();
  }
  return out;
}

struct Frame {
  hw::DesignId design;
  std::string pgm;
  std::string expected_pgm;
  std::uint64_t expected_digest = 0;
};

/// Cold artifact builds for every design, then one tiny plane through the
/// frame path per design so anything else it builds lazily is built here.
/// The plane is the smallest that takes all three octaves: the warm-up
/// makes the same cache calls at any size, and a larger one would only add
/// gate-level simulation, which the frames themselves measure.
void setup_artifacts() {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  cache.clear();
  const bool native = rtl::compiled::resolve_exec_tier(
                          rtl::compiled::ExecTier::kAuto, 1) ==
                      rtl::compiled::ExecTier::kNative;
  for (const hw::DesignId d : kDesigns) {
    const hw::DatapathConfig cfg = hw::design_config(d, kOctaves);
    {
      const Scope s("core.cache.design");
      (void)cache.design(cfg);
    }
    {
      const Scope s("core.cache.tape");
      (void)cache.tape(cfg, rtl::HardeningStyle::kNone,
                       rtl::compiled::OptLevel::kFull);
    }
    if (native) {
      const Scope s("core.cache.native");
      (void)cache.native_block(cfg, rtl::HardeningStyle::kNone,
                               rtl::compiled::OptLevel::kFull, 1);
    }
    {
      const Scope s("hw.tile_forward_warmup");
      dsp::Image small(8, 8, 1.0);
      (void)hw::tile_forward(small, frame_options(d, "rtl-compiled"));
    }
  }
}

struct LoopOut {
  std::vector<std::vector<double>> latency_s =
      std::vector<std::vector<double>>(kDesigns.size());
  std::uint64_t line_passes = 0;  ///< first cycle of five frames
  std::uint64_t sim_cycles = 0;
  std::uint64_t tile_forward_cycles = 0;
  std::size_t frames = 0;

  /// Frames per second at an equal mix of the five designs, whatever
  /// design the window happened to end on.
  [[nodiscard]] ClassStats stats() const {
    return class_stats(latency_s, static_cast<double>(latency_s.size()));
  }
};

/// Runs whole cycles of frames through the designs -- at least
/// `min_cycles`, and until `seconds` have passed -- so every design gets the
/// same number of frames, checking each output against its software-fixed
/// reference.  With `setup`, set-up repeats follow every frame, outside the
/// window.
LoopOut run_frames(const std::vector<Frame>& frames, double seconds,
                   std::size_t min_cycles, std::uint64_t first_op,
                   SetupTimer* setup, Result& r) {
  LoopOut out;
  const auto t0 = Clock::now();
  double paused_s = 0.0;
  for (std::size_t i = 0; i % frames.size() != 0 ||
                          i < min_cycles * frames.size() ||
                          seconds_since(t0) - paused_s < seconds;
       ++i) {
    const Frame& f = frames[i % frames.size()];
    const std::uint64_t op = first_op + i;
    const auto f0 = Clock::now();
    const PipelineOut o =
        run_pipeline(f.pgm, frame_options(f.design, "rtl-compiled"), op);
    bool ok = false;
    {
      const Scope s("bench.verify", op);
      ok = o.pgm == f.expected_pgm && o.coeff_digest == f.expected_digest;
    }
    const double dt = seconds_since(f0);
    ++r.attempted;
    if (!ok) {
      r.fail("frame_rtl: " + hw::design_name(f.design) +
             " output differs from software-fixed");
    }
    out.latency_s[i % frames.size()].push_back(dt);
    if (i < frames.size()) {
      out.line_passes += o.stats.line_passes;
      out.sim_cycles += o.stats.total_cycles;
    }
    out.tile_forward_cycles += o.stats.total_cycles;
    ++out.frames;
    if (setup != nullptr) {
      paused_s += setup->between(seconds_since(t0) - paused_s);
    }
  }
  return out;
}

/// The lines one 256x256 tile sends through the 1-D core, in the order the
/// figure-4 controller sends them (rows then columns, octave by octave).
std::vector<std::vector<std::int64_t>> tile_lines(const dsp::Image& plane) {
  std::vector<std::vector<std::int64_t>> lines;
  std::size_t w = kTile, h = kTile;
  for (int o = 0; o < kOctaves; ++o) {
    for (std::size_t y = 0; y < h; ++y) {
      std::vector<std::int64_t> line(w);
      for (std::size_t x = 0; x < w; ++x) line[x] = std::llround(plane.at(x, y));
      lines.push_back(std::move(line));
    }
    for (std::size_t x = 0; x < w; ++x) {
      std::vector<std::int64_t> line(h);
      for (std::size_t y = 0; y < h; ++y) line[y] = std::llround(plane.at(x, y));
      lines.push_back(std::move(line));
    }
    w = (w + 1) / 2;
    h = (h + 1) / 2;
  }
  return lines;
}

struct LineProbe {
  double us_per_line = 0.0;
  double ns_per_step = 0.0;
  double cycles_per_line = 0.0;
};

/// Times run_stream_batch (lanes=1, the call Dwt2dSystem makes per line)
/// and the bare simulator step on each design's frame-path tape and tier.
LineProbe probe_lines(const dsp::Image& plane) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  const std::vector<std::vector<std::int64_t>> lines = tile_lines(plane);
  double line_s = 0.0, step_s = 0.0, cycles = 0.0;
  std::size_t n_lines = 0, n_steps = 0;
  for (const hw::DesignId d : kDesigns) {
    const hw::DatapathConfig cfg = hw::design_config(d, kOctaves);
    const auto design = cache.design(cfg);
    rtl::compiled::BatchFaultSession session(cache.tape(
        cfg, rtl::HardeningStyle::kNone, rtl::compiled::OptLevel::kFull));
    if (rtl::compiled::resolve_exec_tier(rtl::compiled::ExecTier::kAuto, 1) ==
        rtl::compiled::ExecTier::kNative) {
      session.sim().set_native(cache.native_block(
          cfg, rtl::HardeningStyle::kNone, rtl::compiled::OptLevel::kFull, 1));
    }
    {
      const Scope s("hw.run_stream_batch");
      const auto t0 = Clock::now();
      for (const auto& line : lines) {
        cycles += static_cast<double>(
            hw::run_stream_batch(design->dp, session, line, 1).front().cycles);
      }
      line_s += seconds_since(t0);
      n_lines += lines.size();
    }
    {
      const Scope s("compiled.step");
      constexpr std::size_t kSteps = 20000;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kSteps; ++i) session.sim().step();
      step_s += seconds_since(t0);
      n_steps += kSteps;
    }
  }
  LineProbe p;
  p.us_per_line = line_s * 1e6 / static_cast<double>(n_lines);
  p.ns_per_step = step_s * 1e9 / static_cast<double>(n_steps);
  p.cycles_per_line = cycles / static_cast<double>(n_lines);
  return p;
}

}  // namespace

Result run_frame_rtl(const RunConfig& cfg) {
  Result r;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(cfg.trace);
  SetupTimer setup(setup_artifacts);
  setup.run_first();
  tracer.set_enabled(false);

  // Inputs from the seed, and their software-fixed references.
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < kDesigns.size(); ++i) {
    Frame f;
    f.design = kDesigns[i];
    f.pgm = pgm_bytes(
        make_input_image(kWidth, kHeight, derive_seed(cfg.seed, 100 + i)));
    const PipelineOut ref =
        run_pipeline(f.pgm, frame_options(f.design, "software-fixed"), 0);
    f.expected_pgm = ref.pgm;
    f.expected_digest = ref.coeff_digest;
    frames.push_back(std::move(f));
  }
  // The first full-size rtl frame of a process runs measurably slower than
  // later ones; one untimed Design 2 frame absorbs that.
  {
    const Frame& f = frames[1];
    const PipelineOut o =
        run_pipeline(f.pgm, frame_options(f.design, "rtl-compiled"), 0);
    ++r.attempted;
    if (o.pgm != f.expected_pgm || o.coeff_digest != f.expected_digest) {
      r.fail("frame_rtl: warm-up frame differs from software-fixed");
    }
  }

  if (!cfg.trace) {
    const LoopOut out =
        run_frames(frames, cfg.seconds, kMinCycles, 1, &setup, r);
    const ClassStats st = out.stats();
    add_end_to_end_values(r, setup.median_s(), st.ops_per_s, st.p50_s,
                          st.tail_s);
    r.notes.push_back("frame_mpix_s " +
                      std::to_string(st.ops_per_s * kWidth * kHeight /
                                     1e6) +
                      " Mpix/s over " + std::to_string(out.frames) +
                      " frames");
    for (std::size_t d = 0; d < kDesigns.size(); ++d) {
      r.notes.push_back(hw::design_name(kDesigns[d]) + ": median frame " +
                        std::to_string(median(out.latency_s[d]) * 1e3) +
                        " ms over " + std::to_string(out.latency_s[d].size()));
    }
    add_cache_values(r);
    return r;
  }

  const LoopOut plain = run_frames(frames, cfg.seconds / 2, 1, 1, nullptr, r);
  tracer.set_enabled(true);
  const std::int64_t t0 = Tracer::now_ns();
  const LoopOut traced =
      run_frames(frames, cfg.seconds / 2, 1, 1000000, nullptr, r);
  const std::int64_t t1 = Tracer::now_ns();
  add_cache_values(r);

  // Probes: the per-line call and the bare step, on the first frame's
  // level-shifted pixels.
  dsp::Image plane;
  {
    std::istringstream in(frames.front().pgm);
    plane = dsp::read_pgm(in, "frame");
    dsp::level_shift_forward(plane);
    dsp::round_coefficients(plane);
  }
  const LineProbe probe = probe_lines(plane);
  tracer.set_enabled(false);

  add_trace_values(r, t0, t1, 1.0 / plain.stats().ops_per_s,
                   1.0 / traced.stats().ops_per_s);
  const auto totals = span_totals(tracer.spans(), t0, t1);
  const auto fwd = totals.find("hw.tile_forward");
  if (fwd != totals.end() && traced.tile_forward_cycles > 0) {
    r.values["hw.host_ns_per_sim_cycle"] =
        fwd->second.total_ns / static_cast<double>(traced.tile_forward_cycles);
  }
  r.values["hw.line_passes"] = static_cast<double>(traced.line_passes);
  r.values["hw.sim_cycles"] = static_cast<double>(traced.sim_cycles);
  r.values["hw.run_stream_batch.us_per_line"] = probe.us_per_line;
  r.values["compiled.step.ns_per_cycle"] = probe.ns_per_step;
  r.values["compiled.feed_extract_share"] =
      1.0 - probe.cycles_per_line * probe.ns_per_step /
                (probe.us_per_line * 1e3);
  return r;
}

}  // namespace perfbench
