// campaign_mixed: explore::run_campaign on Design 3, unhardened and TMR,
// with SEU, glitch, stuck-at-0 and stuck-at-1 faults over 256-sample
// streams on 4 threads with the default cone engine.  Checkpointing is on;
// each pass runs both schedules straight through, then "crashes" one of
// them after its first chunk and resumes it from the checkpoint, and the
// resumed report must equal the straight one byte for byte.  After the
// window one shard of each schedule is re-run on the interpreted engine,
// the equivalence oracle, and must reproduce the compiled shard report.
// A traced run then runs one pass of explore_sweep's design sweep and a
// short serve_mix window with its probe, so the elaboration, fpga, server,
// protocol and codec layers are measured on a workload of the benchmark.
#include <filesystem>
#include <stdexcept>

#include "core/artifact_cache.hpp"
#include "explore/campaign_io.hpp"
#include "explore/resilience.hpp"
#include "rtl/compiled/wide_simulator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dwt;

constexpr std::size_t kTrials = 16384;
constexpr std::size_t kChunk = 4096;  ///< checkpoint cadence
constexpr std::size_t kSamples = 256;
constexpr unsigned kThreads = 4;
constexpr unsigned kOracleShards = 256;
constexpr std::size_t kWarmupTrials = 256;

const rtl::HardeningStyle kSchedules[] = {rtl::HardeningStyle::kNone,
                                          rtl::HardeningStyle::kTmr};

struct CrashAfterFirstChunk {};

explore::ResilienceOptions schedule(rtl::HardeningStyle harden,
                                    std::uint64_t seed) {
  explore::ResilienceOptions o;
  o.design = hw::DesignId::kDesign3;
  o.kinds = {rtl::FaultKind::kSeuFlip, rtl::FaultKind::kGlitch,
             rtl::FaultKind::kStuckAt0, rtl::FaultKind::kStuckAt1};
  o.trials = kTrials;
  o.seed = seed;
  o.harden = harden;
  o.samples = kSamples;
  o.keep_trials = true;
  o.threads = kThreads;
  o.checkpoint_every = kChunk;
  return o;
}

/// Cold artifact builds for both schedules, then a small campaign of each
/// so anything else the campaign path builds lazily is built here.
void setup_artifacts(std::uint64_t seed) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  cache.clear();
  const hw::DatapathConfig cfg =
      hw::design_spec(hw::DesignId::kDesign3).config;
  const bool native = rtl::compiled::resolve_exec_tier(
                          rtl::compiled::ExecTier::kAuto, 4) ==
                      rtl::compiled::ExecTier::kNative;
  for (const rtl::HardeningStyle h : kSchedules) {
    {
      const Scope s("core.cache.design");
      (void)cache.design(cfg, h);
    }
    {
      const Scope s("core.cache.tape");
      (void)cache.tape(cfg, h, rtl::compiled::OptLevel::kSafe);
    }
    if (native) {
      const Scope s("core.cache.native");
      (void)cache.native_block(cfg, h, rtl::compiled::OptLevel::kSafe, 4);
    }
    {
      const Scope s("core.cache.cone");
      (void)cache.cone_index(cfg, h, rtl::compiled::OptLevel::kSafe);
    }
    {
      const Scope s("core.cache.mapped");
      (void)cache.mapped(cfg, h);
    }
    explore::ResilienceOptions o = schedule(h, seed);
    o.trials = kWarmupTrials;
    o.checkpoint_every = 0;
    const Scope s("explore.run_campaign_warmup");
    (void)explore::run_campaign(o);
  }
}

struct PassOut {
  std::size_t trials = 0;
  std::vector<double> straight_s;  ///< each schedule's straight campaign
  std::uint64_t masked = 0, detected = 0, sdc = 0;
  std::uint64_t instr_full = 0, instr_cone = 0;
};

/// One pass: both schedules straight through with checkpoints, then a
/// crash-and-resume of schedule `resume`.
PassOut run_pass(const std::vector<std::uint64_t>& seeds, std::size_t resume,
                 const std::string& dir, std::uint64_t op, Result& r) {
  PassOut out;
  std::vector<std::string> reports;
  for (std::size_t i = 0; i < std::size(kSchedules); ++i) {
    explore::ResilienceOptions o = schedule(kSchedules[i], seeds[i]);
    o.checkpoint_file = dir + "/straight-" + std::to_string(i) + ".ckpt";
    std::filesystem::remove(o.checkpoint_file);
    explore::CampaignResult res;
    const auto c0 = Clock::now();
    {
      const Scope s("explore.run_campaign", op);
      res = explore::run_campaign(o);
    }
    out.straight_s.push_back(seconds_since(c0));
    const Scope s("bench.report", op);
    out.trials += res.trials_run;
    out.masked += res.masked;
    out.detected += res.detected;
    out.sdc += res.sdc;
    out.instr_full += res.cone.instructions_full;
    out.instr_cone += res.cone.instructions_cone;
    reports.push_back(explore::to_json(res));
  }

  explore::ResilienceOptions o = schedule(kSchedules[resume], seeds[resume]);
  o.checkpoint_file = dir + "/resume.ckpt";
  std::filesystem::remove(o.checkpoint_file);
  o.checkpoint_hook = [](std::size_t) { throw CrashAfterFirstChunk{}; };
  try {
    const Scope s("explore.run_campaign", op);
    (void)explore::run_campaign(o);
    throw std::logic_error("campaign_mixed: the crash hook never fired");
  } catch (const CrashAfterFirstChunk&) {
  }
  {
    const Scope s("explore.load_checkpoint", op);
    const auto cp = explore::load_checkpoint(o.checkpoint_file);
    if (!cp || cp->cursor != kChunk) {
      throw std::runtime_error("campaign_mixed: checkpoint not at the crash");
    }
  }
  o.checkpoint_hook = nullptr;
  explore::CampaignResult resumed;
  {
    const Scope s("explore.run_campaign", op);
    resumed = explore::run_campaign(o);
  }
  // The resumed report counts the chunk restored from the checkpoint too.
  out.trials += resumed.trials_run;
  if (out.trials != 3 * kTrials) {
    throw std::logic_error("campaign_mixed: a campaign ran a partial schedule");
  }
  const Scope s("bench.verify", op);
  ++r.attempted;
  if (explore::to_json(resumed) != reports[resume]) {
    r.fail("campaign_mixed: resumed report differs from the straight run");
  }
  return out;
}

struct LoopOut {
  std::size_t passes = 0;
  /// Pass times by which schedule the pass resumed.
  std::vector<std::vector<double>> latency_by_resume =
      std::vector<std::vector<double>>(std::size(kSchedules));
  /// Straight campaign times by schedule.
  std::vector<std::vector<double>> campaign_by_schedule =
      std::vector<std::vector<double>>(std::size(kSchedules));
  std::size_t trials = 0;
  PassOut first;
  /// Every pass runs three campaigns' worth of trials: two straight and
  /// one crashed-then-resumed.  The median latency is that of one straight
  /// campaign (the median of the schedules' medians), so it leaves out the
  /// crash-and-resume that ops_per_s includes.
  [[nodiscard]] ClassStats stats() const {
    ClassStats s = class_stats(
        latency_by_resume,
        static_cast<double>(3 * kTrials * std::size(kSchedules)));
    s.p50_s = class_stats(campaign_by_schedule, 1.0).p50_s;
    return s;
  }
};

/// With `setup`, set-up repeats follow passes, outside the window.
LoopOut run_passes(const std::vector<std::uint64_t>& seeds, double seconds,
                   const std::string& dir, std::uint64_t first_op,
                   SetupTimer* setup, Result& r) {
  LoopOut out;
  const auto t0 = Clock::now();
  double paused_s = 0.0;
  const std::size_t n = std::size(kSchedules);
  for (std::size_t i = 0; i < n || seconds_since(t0) - paused_s < seconds;
       ++i) {
    const auto p0 = Clock::now();
    const PassOut p = run_pass(seeds, i % n, dir, first_op + i, r);
    out.latency_by_resume[i % n].push_back(seconds_since(p0));
    for (std::size_t k = 0; k < n; ++k) {
      out.campaign_by_schedule[k].push_back(p.straight_s[k]);
    }
    ++out.passes;
    out.trials += p.trials;
    if (i == 0) out.first = p;
    if (setup != nullptr) {
      paused_s += setup->between(seconds_since(t0) - paused_s);
    }
  }
  return out;
}

/// One shard of each schedule on the interpreted engine against the
/// compiled engine: the reports must match byte for byte.
void run_oracle(const std::vector<std::uint64_t>& seeds, std::uint64_t seed,
                Result& r) {
  for (std::size_t i = 0; i < std::size(kSchedules); ++i) {
    explore::ResilienceOptions o = schedule(kSchedules[i], seeds[i]);
    o.checkpoint_every = 0;
    o.shard_count = kOracleShards;
    o.shard_index = static_cast<unsigned>(derive_seed(seed, 310 + i) %
                                          kOracleShards);
    const Scope s("bench.oracle");
    const std::string compiled = explore::to_json(explore::run_campaign(o));
    o.engine = explore::CampaignEngine::kInterpreted;
    const std::string interpreted = explore::to_json(explore::run_campaign(o));
    ++r.attempted;
    if (compiled != interpreted) {
      r.fail("campaign_mixed: interpreted shard report differs (schedule " +
             std::string(rtl::to_string(kSchedules[i])) + ")");
    }
  }
}

/// WideSimulator<4>::step on each schedule's campaign tape and tier.
double probe_step_ns() {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  const hw::DatapathConfig cfg =
      hw::design_spec(hw::DesignId::kDesign3).config;
  constexpr std::size_t kSteps = 20000;
  double total_s = 0.0;
  for (const rtl::HardeningStyle h : kSchedules) {
    rtl::compiled::WideSimulator<4> sim(
        cache.tape(cfg, h, rtl::compiled::OptLevel::kSafe));
    if (rtl::compiled::resolve_exec_tier(rtl::compiled::ExecTier::kAuto, 4) ==
        rtl::compiled::ExecTier::kNative) {
      sim.set_native(
          cache.native_block(cfg, h, rtl::compiled::OptLevel::kSafe, 4));
    }
    const Scope s("compiled.step");
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kSteps; ++i) sim.step();
    total_s += seconds_since(t0);
  }
  return total_s * 1e9 / static_cast<double>(kSteps * std::size(kSchedules));
}

}  // namespace

Result run_campaign_mixed(const RunConfig& cfg) {
  Result r;
  const std::vector<std::uint64_t> seeds = {derive_seed(cfg.seed, 300),
                                            derive_seed(cfg.seed, 301)};
  const std::string dir = cfg.work_dir + "/campaign";
  std::filesystem::create_directories(dir);
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(cfg.trace);
  SetupTimer setup([&] { setup_artifacts(seeds.front()); });
  setup.run_first();
  tracer.set_enabled(false);

  if (!cfg.trace) {
    const LoopOut out = run_passes(seeds, cfg.seconds, dir, 1, &setup, r);
    add_cache_values(r);
    run_oracle(seeds, cfg.seed, r);
    std::filesystem::remove_all(dir);
    const ClassStats st = out.stats();
    add_end_to_end_values(r, setup.median_s(), st.ops_per_s, st.p50_s,
                          st.tail_s);
    r.notes.push_back("campaign_trials_s " +
                      std::to_string(st.ops_per_s) + " over " +
                      std::to_string(out.trials) + " trials in " +
                      std::to_string(out.passes) + " passes");
    return r;
  }

  const LoopOut plain =
      run_passes(seeds, cfg.seconds / 2, dir, 1, nullptr, r);
  tracer.set_enabled(true);
  const std::int64_t t0 = Tracer::now_ns();
  const LoopOut traced =
      run_passes(seeds, cfg.seconds / 2, dir, 1000000, nullptr, r);
  const std::int64_t t1 = Tracer::now_ns();
  add_cache_values(r);
  const double step_ns = probe_step_ns();
  run_sweep_probe(cfg.seed, r);
  const ServeTrace serve =
      trace_serve_window(cfg.seed, 0.0, cfg.seconds / 4, r);
  tracer.set_enabled(false);
  run_oracle(seeds, cfg.seed, r);
  std::filesystem::remove_all(dir);

  add_trace_values(r, t0, t1, 1.0 / plain.stats().ops_per_s,
                   1.0 / traced.stats().ops_per_s);
  for (const auto& [name, value] : serve.values) r.values[name] = value;
  r.values["compiled.step.ns_per_cycle"] = step_ns;
  const PassOut& p = traced.first;
  r.values["explore.campaign.masked"] = static_cast<double>(p.masked);
  r.values["explore.campaign.detected"] = static_cast<double>(p.detected);
  r.values["explore.campaign.sdc"] = static_cast<double>(p.sdc);
  r.values["explore.cone.instruction_reduction"] =
      p.instr_full == 0 ? 0.0
                        : 1.0 - static_cast<double>(p.instr_cone) /
                                    static_cast<double>(p.instr_full);
  return r;
}

}  // namespace perfbench
