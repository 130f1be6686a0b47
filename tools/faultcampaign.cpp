// faultcampaign -- deterministic soft-error campaigns over the five DWT
// architectures, with optional TMR / parity hardening.
//
//   faultcampaign --design 1..5 [--adder ARCH] [--faults seu,glitch,sa0,sa1]
//                 [--trials N]
//                 [--seed S] [--harden none|tmr|parity] [--samples N]
//                 [--engine interpreted|compiled] [--threads N]
//                 [--backend rtl-interpreted|rtl-compiled]
//                 [--lanes 64|128|256] [--opt-level 0|1] [--no-cone]
//                 [--exec-tier threaded|native|auto]
//                 [--shards N --shard-index I] [--checkpoint FILE]
//                 [--checkpoint-every N]
//                 [--no-trial-list] [--out report.json]
//   faultcampaign merge OUT.json SHARD.json...
//
// Emits a JSON report (stdout by default).  Identical arguments produce
// byte-identical output, so reports diff cleanly across revisions -- and
// the two engines produce byte-identical reports for the same seed, so
// `--engine interpreted` remains available as a cross-check of the fast
// (default) compiled bit-parallel engine.  `--backend` selects the engine
// by its core registry name (the same names dwt97cli and the benches use);
// campaigns inject faults at netlist granularity, so only the gate-level
// rtl backends are accepted.  `--lanes` packs that many fault trials into
// one compiled tape pass; `--opt-level` picks the tape optimization level
// (0 = raw, 1 = fault-overlay-safe passes; the full level drops the
// overlay guarantees campaigns need and is rejected here); `--no-cone`
// turns off the cone-restricted incremental engine.  None of these knobs
// changes the report bytes.  `--adder` swaps the design's adder
// architecture (carry-chain, ripple-gates, kogge-stone, brent-kung,
// hybrid-ksbk): unlike the perf knobs this changes the netlist and hence
// the fault space, so it IS part of the campaign identity (and of the
// checkpoint fingerprint).
//
// Scale-out: `--shards N --shard-index I` executes only shard I's
// contiguous slice of the trial schedule (same seed on every shard);
// `faultcampaign merge` folds the per-shard reports back into the exact
// bytes the unsharded run prints, in any argument order.  `--checkpoint`
// makes a run crash-tolerant: progress is persisted atomically after every
// chunk (`--checkpoint-every`, default 8192 trials) and a killed run
// restarted with the same arguments resumes from the checkpoint with
// byte-identical output.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "explore/campaign_io.hpp"
#include "explore/resilience.hpp"
#include "rtl/adder_arch.hpp"

namespace {

/// Strict unsigned parsing: the whole token must be consumed (atoi-style
/// silent zeros turn "--trials 10O" into an empty campaign).
bool parse_u64(const char* s, unsigned long long max, unsigned long long* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  if (*s == '-' || v > max) return false;
  *out = v;
  return true;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  faultcampaign --design 1..5 [--adder ARCH]\n"
      "                [--faults seu,glitch,sa0,sa1]\n"
      "                [--trials N] [--seed S] [--harden none|tmr|parity]\n"
      "                [--samples N] [--engine interpreted|compiled]\n"
      "                [--backend rtl-interpreted|rtl-compiled]\n"
      "                [--lanes 64|128|256] [--opt-level 0|1] [--no-cone]\n"
      "                [--exec-tier threaded|native|auto]\n"
      "                [--shards N --shard-index I] [--checkpoint FILE]\n"
      "                [--checkpoint-every N]\n"
      "                [--threads N] [--no-trial-list] [--out report.json]\n"
      "  faultcampaign merge OUT.json SHARD.json...\n");
  return 2;
}

/// Writes `text` to `path`, failing loudly: a partial report on a full disk
/// must not exit 0 and poison a downstream merge.
bool write_file_checked(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write failed for %s\n", path.c_str());
    return false;
  }
  return true;
}

/// `faultcampaign merge OUT.json SHARD.json...`: folds per-shard reports
/// into the byte-exact unsharded report.
int run_merge(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "merge needs an output path and at least one "
                         "shard report\n");
    return usage();
  }
  const std::string out_path = argv[2];
  std::vector<std::string> reports;
  reports.reserve(static_cast<std::size_t>(argc - 3));
  for (int i = 3; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (in.bad()) {
      std::fprintf(stderr, "read failed for %s\n", argv[i]);
      return 1;
    }
    reports.push_back(std::move(text));
  }
  try {
    const std::string merged = dwt::explore::merge_reports(reports);
    if (out_path == "-") {
      std::fputs(merged.c_str(), stdout);
    } else if (!write_file_checked(out_path, merged)) {
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

bool parse_kinds(const std::string& arg,
                 std::vector<dwt::rtl::FaultKind>& kinds) {
  kinds.clear();
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    const std::string tok = arg.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (tok == "seu") {
      kinds.push_back(dwt::rtl::FaultKind::kSeuFlip);
    } else if (tok == "glitch") {
      kinds.push_back(dwt::rtl::FaultKind::kGlitch);
    } else if (tok == "sa0") {
      kinds.push_back(dwt::rtl::FaultKind::kStuckAt0);
    } else if (tok == "sa1") {
      kinds.push_back(dwt::rtl::FaultKind::kStuckAt1);
    } else {
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !kinds.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "merge") == 0) {
    return run_merge(argc, argv);
  }
  dwt::explore::ResilienceOptions opt;
  opt.seed = 42;
  std::string out_path;
  bool design_set = false;
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--design") == 0) {
      const char* v = need_value("--design");
      unsigned long long n = 0;
      if (v == nullptr || !parse_u64(v, 5, &n) || n < 1) {
        std::fprintf(stderr, "bad --design value\n");
        return usage();
      }
      opt.design = static_cast<dwt::hw::DesignId>(n - 1);
      design_set = true;
    } else if (std::strcmp(argv[i], "--adder") == 0) {
      // Changes the netlist (and hence the fault space), unlike the
      // engine/lanes/tier knobs which never change the report bytes.
      const char* v = need_value("--adder");
      std::optional<dwt::rtl::AdderArch> adder;
      if (v != nullptr) adder = dwt::rtl::parse_adder(v);
      if (!adder) {
        std::fprintf(stderr,
                     "bad --adder value (carry-chain, ripple-gates, "
                     "kogge-stone, brent-kung or hybrid-ksbk)\n");
        return usage();
      }
      opt.adder = adder;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      const char* v = need_value("--faults");
      if (v == nullptr || !parse_kinds(v, opt.kinds)) return usage();
    } else if (std::strcmp(argv[i], "--trials") == 0) {
      const char* v = need_value("--trials");
      unsigned long long n = 0;
      if (v == nullptr || !parse_u64(v, 1ull << 32, &n) || n < 1) {
        std::fprintf(stderr, "bad --trials value\n");
        return usage();
      }
      opt.trials = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = need_value("--seed");
      unsigned long long n = 0;
      if (v == nullptr || !parse_u64(v, ~0ull, &n)) {
        std::fprintf(stderr, "bad --seed value\n");
        return usage();
      }
      opt.seed = static_cast<std::uint64_t>(n);
    } else if (std::strcmp(argv[i], "--samples") == 0) {
      const char* v = need_value("--samples");
      unsigned long long n = 0;
      if (v == nullptr || !parse_u64(v, 1ull << 24, &n) || n < 2) {
        std::fprintf(stderr, "bad --samples value\n");
        return usage();
      }
      opt.samples = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--harden") == 0) {
      const char* v = need_value("--harden");
      if (v == nullptr) return usage();
      if (std::strcmp(v, "none") == 0) {
        opt.harden = dwt::rtl::HardeningStyle::kNone;
      } else if (std::strcmp(v, "tmr") == 0) {
        opt.harden = dwt::rtl::HardeningStyle::kTmr;
      } else if (std::strcmp(v, "parity") == 0) {
        opt.harden = dwt::rtl::HardeningStyle::kParity;
      } else {
        return usage();
      }
    } else if (std::strcmp(argv[i], "--engine") == 0) {
      const char* v = need_value("--engine");
      if (v == nullptr) return usage();
      if (std::strcmp(v, "interpreted") == 0) {
        opt.engine = dwt::explore::CampaignEngine::kInterpreted;
      } else if (std::strcmp(v, "compiled") == 0) {
        opt.engine = dwt::explore::CampaignEngine::kCompiled;
      } else {
        return usage();
      }
    } else if (std::strcmp(argv[i], "--backend") == 0) {
      const char* v = need_value("--backend");
      if (v == nullptr) return usage();
      const std::optional<dwt::explore::CampaignEngine> engine =
          dwt::explore::engine_from_backend(v);
      if (!engine) {
        std::fprintf(stderr,
                     "bad --backend value: %s (campaigns run on "
                     "rtl-interpreted or rtl-compiled)\n",
                     v);
        return usage();
      }
      opt.engine = *engine;
    } else if (std::strcmp(argv[i], "--lanes") == 0) {
      const char* v = need_value("--lanes");
      unsigned long long n = 0;
      if (v == nullptr || !parse_u64(v, 256, &n) ||
          (n != 64 && n != 128 && n != 256)) {
        std::fprintf(stderr, "bad --lanes value (64, 128 or 256)\n");
        return usage();
      }
      opt.lanes = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--opt-level") == 0) {
      const char* v = need_value("--opt-level");
      unsigned long long n = 0;
      if (v == nullptr || !parse_u64(v, 1, &n)) {
        std::fprintf(stderr,
                     "bad --opt-level value (0 or 1; level 2 drops the "
                     "fault-overlay guarantees campaigns need)\n");
        return usage();
      }
      opt.opt_level = static_cast<dwt::rtl::compiled::OptLevel>(n);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = need_value("--threads");
      unsigned long long n = 0;
      if (v == nullptr || !parse_u64(v, 1024, &n)) {
        std::fprintf(stderr, "bad --threads value\n");
        return usage();
      }
      opt.threads = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--no-cone") == 0) {
      opt.cone = false;
    } else if (std::strcmp(argv[i], "--exec-tier") == 0) {
      // How the compiled engine walks its tape (full-range settles only;
      // force-pinned and cone-restricted evals always run the threaded tier).
      // Like --lanes/--threads/--opt-level this never changes the report
      // bytes.
      const char* v = need_value("--exec-tier");
      if (v == nullptr || !dwt::rtl::compiled::parse_exec_tier(v, &opt.exec_tier)) {
        std::fprintf(stderr,
                     "bad --exec-tier value (threaded, native or auto)\n");
        return usage();
      }
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      const char* v = need_value("--shards");
      unsigned long long n = 0;
      if (v == nullptr || !parse_u64(v, 1ull << 20, &n) || n < 1) {
        std::fprintf(stderr, "bad --shards value\n");
        return usage();
      }
      opt.shard_count = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--shard-index") == 0) {
      const char* v = need_value("--shard-index");
      unsigned long long n = 0;
      if (v == nullptr || !parse_u64(v, 1ull << 20, &n)) {
        std::fprintf(stderr, "bad --shard-index value\n");
        return usage();
      }
      opt.shard_index = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      const char* v = need_value("--checkpoint");
      if (v == nullptr) return usage();
      opt.checkpoint_file = v;
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      const char* v = need_value("--checkpoint-every");
      unsigned long long n = 0;
      if (v == nullptr || !parse_u64(v, 1ull << 32, &n) || n < 1) {
        std::fprintf(stderr, "bad --checkpoint-every value\n");
        return usage();
      }
      opt.checkpoint_every = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--no-trial-list") == 0) {
      opt.keep_trials = false;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = need_value("--out");
      if (v == nullptr) return usage();
      out_path = v;
    } else {
      return usage();
    }
  }
  if (!design_set) return usage();

  try {
    const dwt::explore::CampaignResult result =
        dwt::explore::run_campaign(opt);
    const std::string json = dwt::explore::to_json(result);
    if (out_path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else {
      if (!write_file_checked(out_path, json)) return 1;
      std::fprintf(stderr, "%s: %zu trials written\n", out_path.c_str(),
                   result.trials_run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
