// explore_sweep: Explorer::evaluate over the 17 (design x adder) points of
// evaluate_all() and evaluate_adder_variants(), with the ArtifactCache
// cleared before every pass -- cold elaborate, simplify, APEX map, STA and
// mapped-activity power, the paper's own experiment.  Area, f_max and
// power of every point must equal the deterministic records committed in
// bench/BENCH_adder_frontier.json.
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <stdexcept>

#include "core/artifact_cache.hpp"
#include "explore/explorer.hpp"
#include "fpga/mapped_sim.hpp"
#include "hw/stream_runner.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dwt;

constexpr const char* kFrontierPath = "bench/BENCH_adder_frontier.json";

/// "<design>/<metric>" -> value text, for the area, fmax and
/// power_at_15mhz records of the committed frontier baseline.
std::map<std::string, std::string> load_frontier() {
  std::ifstream in(kFrontierPath);
  if (!in) throw std::runtime_error(std::string("cannot open ") + kFrontierPath);
  const std::regex record(
      R"re(\{"design": "([^"]+)", "metric": "(area|fmax|power_at_15mhz)", "value": ([^,]+),)re");
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    std::smatch m;
    if (std::regex_search(line, m, record)) {
      out[m[1].str() + "/" + m[2].str()] = m[3].str();
    }
  }
  return out;
}

/// The bench JSON writer's number format ("%.10g", integers bare).
std::string bench_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::vector<hw::DesignSpec> sweep_points() {
  std::vector<hw::DesignSpec> points = hw::all_designs();
  for (hw::DesignSpec& s : hw::adder_variant_designs()) {
    points.push_back(std::move(s));
  }
  return points;
}

/// The sweep's inputs are the design space itself; the seed picks the
/// point order, which decides what each cold build runs after.
std::vector<hw::DesignSpec> sweep_order(std::uint64_t seed) {
  std::vector<hw::DesignSpec> order = sweep_points();
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[derive_seed(seed, 400 + i) % i]);
  }
  return order;
}

struct LoopOut {
  std::vector<std::vector<double>> latency_by_point;
  std::size_t passes = 0;
  [[nodiscard]] ClassStats stats() const {
    return class_stats(latency_by_point,
                       static_cast<double>(latency_by_point.size()));
  }
};

/// Whole passes over the sweep, each from a cold cache, for `seconds`.
/// With `setup`, set-up repeats follow every pass, outside the window.
LoopOut run_passes(const explore::Explorer& explorer,
                   const std::vector<hw::DesignSpec>& points,
                   const std::map<std::string, std::string>& frontier,
                   double seconds, std::uint64_t first_op, SetupTimer* setup,
                   Result& r) {
  LoopOut out;
  out.latency_by_point.resize(points.size());
  const auto t0 = Clock::now();
  double paused_s = 0.0;
  for (; out.passes == 0 || seconds_since(t0) - paused_s < seconds;
       ++out.passes) {
    {
      const Scope s("core.cache.clear");
      core::ArtifactCache::instance().clear();
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::uint64_t op = first_op + out.passes * points.size() + i;
      const auto p0 = Clock::now();
      explore::DesignEvaluation e;
      {
        const Scope s("explore.evaluate", op);
        e = explorer.evaluate(points[i]);
      }
      out.latency_by_point[i].push_back(seconds_since(p0));
      const Scope s("bench.verify", op);
      ++r.attempted;
      const std::string& name = e.report.name;
      const auto expect = [&](const char* metric, double value) {
        const auto it = frontier.find(name + "/" + metric);
        if (it == frontier.end() || it->second != bench_number(value)) {
          r.fail("explore_sweep: " + name + " " + metric + " " +
                 bench_number(value) + " differs from the frontier record");
        }
      };
      expect("area", static_cast<double>(e.report.logic_elements));
      expect("fmax", e.report.fmax_mhz);
      expect("power_at_15mhz", e.report.power_mw);
    }
    if (setup != nullptr) {
      paused_s += setup->between(seconds_since(t0) - paused_s);
    }
  }
  return out;
}

/// Per-layer split of evaluate(): the mapping build and the three fpga
/// steps it runs, called directly on one pass of the sweep.
void probe_layers(const explore::Explorer& explorer,
                  const std::vector<hw::DesignSpec>& points) {
  core::ArtifactCache& cache = core::ArtifactCache::instance();
  cache.clear();
  const std::vector<std::int64_t> samples = explorer.workload_stream();
  const explore::ExplorerOptions& opt = explorer.options();
  for (const hw::DesignSpec& spec : points) {
    {
      const Scope s("core.cache.design");
      (void)cache.design(spec.config);
    }
    std::shared_ptr<const core::MappedDesign> md;
    {
      const Scope s("core.cache.mapped");
      md = cache.mapped(spec.config);
    }
    fpga::TimingReport timing;
    {
      const Scope s("fpga.sta");
      fpga::TimingAnalyzer sta(md->mapped, opt.device);
      timing = sta.analyze();
    }
    rtl::ActivityStats activity;
    {
      const Scope s("fpga.activity");
      fpga::MappedActivitySim sim(md->mapped);
      (void)hw::run_stream_mapped(md->dp, sim, samples);
      activity = sim.stats();
    }
    {
      const Scope s("fpga.power");
      (void)fpga::estimate_power(md->mapped, activity, opt.device,
                                 opt.reference_mhz);
    }
  }
}

}  // namespace

void run_sweep_probe(std::uint64_t seed, Result& r) {
  const std::vector<hw::DesignSpec> order = sweep_order(seed);
  const explore::Explorer explorer;
  (void)run_passes(explorer, order, load_frontier(), 0.0, 2000000, nullptr,
                   r);
  probe_layers(explorer, order);
}

Result run_explore_sweep(const RunConfig& cfg) {
  Result r;
  const std::map<std::string, std::string> frontier = load_frontier();
  const std::vector<hw::DesignSpec> points = sweep_points();
  const std::vector<hw::DesignSpec> order = sweep_order(cfg.seed);
  Tracer& tracer = Tracer::instance();
  const explore::Explorer explorer;
  // Set-up: a cold evaluation of Design 1 (whatever the order), so code
  // and allocator warm-up is not charged to the first measured pass.
  tracer.set_enabled(cfg.trace);
  SetupTimer setup([&] {
    core::ArtifactCache::instance().clear();
    const Scope s("explore.evaluate_warmup");
    (void)explorer.evaluate(points.front());
  });
  setup.run_first();
  tracer.set_enabled(false);

  if (!cfg.trace) {
    const LoopOut out =
        run_passes(explorer, order, frontier, cfg.seconds, 1, &setup, r);
    add_cache_values(r);
    const ClassStats st = out.stats();
    add_end_to_end_values(r, setup.median_s(), st.ops_per_s, st.p50_s,
                          st.tail_s);
    r.notes.push_back("explore_points_s " + std::to_string(st.ops_per_s) +
                      " over " + std::to_string(out.passes) + " passes");
    return r;
  }

  const LoopOut plain =
      run_passes(explorer, order, frontier, cfg.seconds / 2, 1, nullptr, r);
  tracer.set_enabled(true);
  const std::int64_t t0 = Tracer::now_ns();
  const LoopOut traced =
      run_passes(explorer, order, frontier, cfg.seconds / 2, 1000000, nullptr,
                 r);
  const std::int64_t t1 = Tracer::now_ns();
  add_cache_values(r);
  probe_layers(explorer, order);
  tracer.set_enabled(false);
  add_trace_values(r, t0, t1, 1.0 / plain.stats().ops_per_s,
                   1.0 / traced.stats().ops_per_s);
  return r;
}

}  // namespace perfbench
