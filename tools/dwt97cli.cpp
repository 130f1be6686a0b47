// dwt97cli -- command-line front end to the library.
//
//   dwt97cli compress      <in.pgm> <out.dwt> [--lossless] [--step S] [--octaves N]
//   dwt97cli decompress    <in.dwt> <out.pgm>
//   dwt97cli tile          <in.pgm> <out.pgm> [--octaves N] [--tile N]
//                          [--threads N] [--backend NAME] [--design D]
//                          [--adder ARCH] [--opt-level 0|1|2]
//                          [--exec-tier threaded|native|auto]
//   dwt97cli gen           <out.pgm> <width> <height> [seed]
//   dwt97cli synth         [design 1..5] [--adder ARCH]
//   dwt97cli verilog       <design 1..5> <out.v> [--adder ARCH]
//   dwt97cli psnr          <a.pgm> <b.pgm>
//   dwt97cli list-backends      (also accepted: --list-backends)
//   dwt97cli list-designs       (also accepted: --list-designs)
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "codec/codec.hpp"
#include "core/registry.hpp"
#include "dsp/dwt2d.hpp"
#include "dsp/image_gen.hpp"
#include "dsp/metrics.hpp"
#include "explore/explorer.hpp"
#include "fpga/report.hpp"
#include "hw/designs.hpp"
#include "hw/tile_scheduler.hpp"
#include "rtl/adder_arch.hpp"
#include "rtl/verilog_writer.hpp"

namespace {

using dwt::tools::parse_long;
using dwt::tools::read_file;
using dwt::tools::report_missing_value;
using dwt::tools::write_file;

std::string adder_arch_names() {
  std::string names;
  for (const dwt::rtl::AdderArch arch : dwt::rtl::all_adder_archs()) {
    if (!names.empty()) names += ", ";
    names += dwt::rtl::adder_name(arch);
  }
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dwt97cli compress   <in.pgm> <out.dwt> [--lossless] "
               "[--step S] [--octaves N]\n"
               "  dwt97cli decompress <in.dwt> <out.pgm>\n"
               "  dwt97cli tile       <in.pgm> <out.pgm> [--octaves N] "
               "[--tile N] [--threads N]\n"
               "                      [--backend NAME] [--design D] "
               "[--adder ARCH]\n"
               "                      [--opt-level 0|1|2] "
               "[--exec-tier threaded|native|auto]\n"
               "  dwt97cli gen        <out.pgm> <width> <height> [seed]\n"
               "  dwt97cli synth      [design 1..5] [--adder ARCH]\n"
               "  dwt97cli verilog    <design 1..5> <out.v> [--adder ARCH]\n"
               "  dwt97cli psnr       <a.pgm> <b.pgm>\n"
               "  dwt97cli list-backends\n"
               "  dwt97cli list-designs\n"
               "backends: %s\n"
               "adders:   %s\n",
               dwt::core::backend_names().c_str(), adder_arch_names().c_str());
  return 2;
}

bool parse_double(const char* s, double* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

int cmd_compress(int argc, char** argv) {
  if (argc < 4) return usage();
  dwt::codec::EncodeOptions opt;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lossless") == 0) {
      opt.mode = dwt::codec::CodecMode::kLossless53;
    } else if (std::strcmp(argv[i], "--step") == 0 && i + 1 < argc) {
      if (!parse_double(argv[++i], &opt.base_step) || opt.base_step <= 0.0) {
        std::fprintf(stderr, "bad --step value: %s\n", argv[i]);
        return usage();
      }
    } else if (std::strcmp(argv[i], "--octaves") == 0 && i + 1 < argc) {
      long octaves = 0;
      if (!parse_long(argv[++i], 1, 16, &octaves)) {
        std::fprintf(stderr, "bad --octaves value: %s\n", argv[i]);
        return usage();
      }
      opt.octaves = static_cast<int>(octaves);
    } else {
      (void)report_missing_value(argv[i], {"--step", "--octaves"});
      return usage();
    }
  }
  dwt::dsp::Image img = dwt::dsp::read_pgm(argv[2]);
  for (double& v : img.data()) v = std::round(v);
  const auto enc = dwt::codec::encode_image(img, opt);
  write_file(argv[3], enc.bytes);
  std::printf("%s: %zux%zu -> %zu bytes (%.2f bpp, %s)\n", argv[3],
              img.width(), img.height(), enc.bytes.size(),
              enc.bits_per_pixel(img.width(), img.height()),
              opt.mode == dwt::codec::CodecMode::kLossless53 ? "lossless 5/3"
                                                             : "lossy 9/7");
  return 0;
}

int cmd_decompress(int argc, char** argv) {
  if (argc != 4) return usage();
  const dwt::dsp::Image img = dwt::codec::decode_image(read_file(argv[2]));
  dwt::dsp::write_pgm(img, argv[3]);
  std::printf("%s: %zux%zu\n", argv[3], img.width(), img.height());
  return 0;
}

// Forward+inverse through the tile-parallel pipeline and write the
// reconstruction: a round-trip exerciser for the tile scheduler on real
// image files (any dimensions).
int cmd_tile(int argc, char** argv) {
  if (argc < 4) return usage();
  dwt::hw::TileOptions opt;
  opt.method = dwt::dsp::Method::kLiftingFixed;
  opt.octaves = 2;
  for (int i = 4; i < argc; ++i) {
    long v = 0;
    if (std::strcmp(argv[i], "--octaves") == 0 && i + 1 < argc) {
      if (!parse_long(argv[++i], 1, 16, &v)) {
        std::fprintf(stderr, "bad --octaves value: %s\n", argv[i]);
        return usage();
      }
      opt.octaves = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--tile") == 0 && i + 1 < argc) {
      if (!parse_long(argv[++i], 1, 1 << 20, &v)) {
        std::fprintf(stderr, "bad --tile value: %s\n", argv[i]);
        return usage();
      }
      opt.tile_w = static_cast<std::size_t>(v);
      opt.tile_h = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_long(argv[++i], 0, 1024, &v)) {
        std::fprintf(stderr, "bad --threads value: %s\n", argv[i]);
        return usage();
      }
      opt.threads = static_cast<unsigned>(v);
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      opt.backend = dwt::core::find_backend(argv[++i]);
      if (opt.backend == nullptr) {
        std::fprintf(stderr, "unknown backend: %s (have: %s)\n", argv[i],
                     dwt::core::backend_names().c_str());
        return usage();
      }
    } else if (std::strcmp(argv[i], "--design") == 0 && i + 1 < argc) {
      const std::optional<dwt::hw::DesignId> design =
          dwt::hw::parse_design(argv[++i]);
      if (!design) {
        std::fprintf(stderr, "bad --design value: %s\n", argv[i]);
        return usage();
      }
      opt.design = *design;
    } else if (std::strcmp(argv[i], "--adder") == 0 && i + 1 < argc) {
      // Adder-architecture override for the gate-level engines' datapath.
      // Every architecture streams bit-identical coefficients (the adders
      // are functionally equivalent), so like --opt-level this is an
      // area/f_max knob and a CI cross-check hook, not a mode switch.
      const std::optional<dwt::rtl::AdderArch> adder =
          dwt::rtl::parse_adder(argv[++i]);
      if (!adder) {
        std::fprintf(stderr, "bad --adder value: %s (have: %s)\n", argv[i],
                     adder_arch_names().c_str());
        return usage();
      }
      opt.adder = adder;
    } else if (std::strcmp(argv[i], "--opt-level") == 0 && i + 1 < argc) {
      // Tape optimization level for the rtl-compiled backend; other engines
      // ignore it.  Every level streams bit-identical output, so this is a
      // perf knob (and a CI cross-check hook), not a mode switch.
      if (!parse_long(argv[++i], 0, 2, &v)) {
        std::fprintf(stderr, "bad --opt-level value: %s\n", argv[i]);
        return usage();
      }
      opt.opt_level = static_cast<dwt::rtl::compiled::OptLevel>(v);
    } else if (std::strcmp(argv[i], "--exec-tier") == 0 && i + 1 < argc) {
      // How the rtl-compiled backend walks its tape: the threaded walker,
      // the JIT'd native tier, or auto (fastest supported).
      // Every tier writes bit-identical output; DWT_EXEC_TIER overrides.
      if (!dwt::rtl::compiled::parse_exec_tier(argv[++i], &opt.exec_tier)) {
        std::fprintf(stderr, "bad --exec-tier value: %s\n", argv[i]);
        return usage();
      }
    } else {
      (void)report_missing_value(
          argv[i], {"--octaves", "--tile", "--threads", "--backend",
                    "--design", "--adder", "--opt-level", "--exec-tier"});
      return usage();
    }
  }
  dwt::dsp::Image img = dwt::dsp::read_pgm(argv[2]);
  const dwt::dsp::Image original = img;
  dwt::dsp::level_shift_forward(img);
  dwt::dsp::round_coefficients(img);
  const dwt::hw::TileStats stats = dwt::hw::tile_forward(img, opt);
  // Backends without a 2-D inverse (the gate-level engines) invert through
  // the software path: their forward is bit-identical to kLiftingFixed.
  dwt::hw::TileOptions inv = opt;
  if (inv.backend != nullptr && !inv.backend->caps().inverse_2d) {
    inv.backend = nullptr;
  }
  (void)dwt::hw::tile_inverse(img, inv);
  dwt::dsp::level_shift_inverse(img);
  dwt::dsp::write_pgm(img, argv[3]);
  std::printf("%s: %zux%zu, %zu tiles on %u threads, round-trip %.2f dB\n",
              argv[3], img.width(), img.height(), stats.tiles,
              stats.threads_used,
              dwt::dsp::psnr(original.clamped_u8(), img.clamped_u8()));
  return 0;
}

// Writes a deterministic still-tone test image; lets CI exercise the PGM
// pipeline on arbitrary (e.g. odd) dimensions without binary fixtures.
int cmd_gen(int argc, char** argv) {
  if (argc < 5 || argc > 6) return usage();
  long w = 0, h = 0, seed = 1;
  if (!parse_long(argv[3], 1, 1 << 16, &w) ||
      !parse_long(argv[4], 1, 1 << 16, &h) ||
      (argc == 6 && !parse_long(argv[5], 0, 1L << 40, &seed))) {
    std::fprintf(stderr, "bad gen arguments\n");
    return usage();
  }
  dwt::dsp::Image img = dwt::dsp::make_still_tone_image(
      static_cast<std::size_t>(w), static_cast<std::size_t>(h),
      static_cast<std::uint64_t>(seed));
  dwt::dsp::write_pgm(img, argv[2]);
  std::printf("%s: %ldx%ld seed %ld\n", argv[2], w, h, seed);
  return 0;
}

int cmd_synth(int argc, char** argv) {
  std::optional<dwt::hw::DesignId> design;
  std::optional<dwt::rtl::AdderArch> adder;
  int i = 2;
  if (i < argc && std::strncmp(argv[i], "--", 2) != 0) {
    design = dwt::hw::parse_design(argv[i]);
    if (!design) return usage();
    ++i;
  }
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--adder") == 0 && i + 1 < argc) {
      adder = dwt::rtl::parse_adder(argv[++i]);
      if (!adder) {
        std::fprintf(stderr, "bad --adder value: %s (have: %s)\n", argv[i],
                     adder_arch_names().c_str());
        return usage();
      }
    } else {
      (void)report_missing_value(argv[i], {"--adder"});
      return usage();
    }
  }
  if (adder.has_value() && !design.has_value()) {
    std::fprintf(stderr, "--adder needs a design argument\n");
    return usage();
  }
  dwt::explore::Explorer explorer;
  if (design) {
    dwt::hw::DesignSpec spec = dwt::hw::design_spec(*design);
    if (adder.has_value()) {
      spec.config.adder_style = *adder;
      spec.name = dwt::hw::design_point_name(*design, adder);
    }
    const auto eval = explorer.evaluate(spec);
    std::printf("%s\n", eval.report.to_string().c_str());
    return 0;
  }
  std::printf("%s\n", dwt::fpga::format_table3_header().c_str());
  for (const auto& eval : explorer.evaluate_all()) {
    std::printf("%s\n", dwt::fpga::format_table3_row(eval.report).c_str());
  }
  return 0;
}

int cmd_verilog(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::optional<dwt::hw::DesignId> design =
      dwt::hw::parse_design(argv[2]);
  if (!design) return usage();
  std::optional<dwt::rtl::AdderArch> adder;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--adder") == 0 && i + 1 < argc) {
      adder = dwt::rtl::parse_adder(argv[++i]);
      if (!adder) {
        std::fprintf(stderr, "bad --adder value: %s (have: %s)\n", argv[i],
                     adder_arch_names().c_str());
        return usage();
      }
    } else {
      (void)report_missing_value(argv[i], {"--adder"});
      return usage();
    }
  }
  const auto dp =
      adder.has_value()
          ? dwt::hw::build_lifting_datapath(
                dwt::hw::design_config(*design, /*max_octaves=*/1, adder))
          : dwt::hw::build_design(*design);
  std::ofstream out(argv[3]);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", argv[3]);
    return 1;
  }
  dwt::rtl::write_verilog(dp.netlist, "dwt_lifting_core", out);
  std::printf("%s: design %d (%zu cells, latency %d)\n", argv[3],
              dwt::hw::design_index(*design), dp.netlist.cell_count(),
              dp.info.latency);
  return 0;
}

int cmd_list_backends() {
  std::printf("%-16s %-5s %-6s %-6s %-4s %-4s %s\n", "backend", "gates",
              "cycles", "exact", "2d", "inv", "description");
  for (const dwt::core::ExecutionBackend* b : dwt::core::all_backends()) {
    const dwt::core::BackendCaps caps = b->caps();
    std::printf("%-16s %-5s %-6s %-6s %-4s %-4s %s\n",
                std::string(b->name()).c_str(), caps.gate_level ? "yes" : "-",
                caps.cycle_accurate ? "yes" : "-",
                caps.bit_exact ? "yes" : "-", caps.forward_2d ? "yes" : "-",
                caps.inverse_2d ? "yes" : "-",
                std::string(b->description()).c_str());
  }
  return 0;
}

int cmd_list_designs() {
  std::printf("%-24s %-13s %-6s %-10s %-12s %s\n", "design", "adder", "depth",
              "area(LE)", "fmax(MHz)", "description");
  const auto table = dwt::hw::paper_table3();
  const auto designs = dwt::hw::all_designs();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    std::printf("%-24s %-13s %-6d %-10d %-12.1f %s\n", designs[i].name.c_str(),
                dwt::rtl::adder_name(designs[i].config.adder_style),
                table[i].pipeline_stages, table[i].area_les,
                table[i].fmax_mhz, designs[i].description.c_str());
  }
  // The (design x adder) variant points extend the space beyond paper
  // Table 3, so the published area/f_max columns do not apply; the pipeline
  // depth matches the base design (the adder swap is purely combinational).
  for (const dwt::hw::DesignSpec& spec : dwt::hw::adder_variant_designs()) {
    const int idx = dwt::hw::design_index(spec.id);
    std::printf("%-24s %-13s %-6d %-10s %-12s %s\n", spec.name.c_str(),
                dwt::rtl::adder_name(spec.config.adder_style),
                table[static_cast<std::size_t>(idx - 1)].pipeline_stages, "-",
                "-", spec.description.c_str());
  }
  return 0;
}

int cmd_psnr(int argc, char** argv) {
  if (argc != 4) return usage();
  const dwt::dsp::Image a = dwt::dsp::read_pgm(argv[2]);
  const dwt::dsp::Image b = dwt::dsp::read_pgm(argv[3]);
  std::printf("%.3f dB\n", dwt::dsp::psnr(a, b));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "compress") == 0) return cmd_compress(argc, argv);
    if (std::strcmp(argv[1], "decompress") == 0) {
      return cmd_decompress(argc, argv);
    }
    if (std::strcmp(argv[1], "tile") == 0) return cmd_tile(argc, argv);
    if (std::strcmp(argv[1], "gen") == 0) return cmd_gen(argc, argv);
    if (std::strcmp(argv[1], "synth") == 0) return cmd_synth(argc, argv);
    if (std::strcmp(argv[1], "verilog") == 0) return cmd_verilog(argc, argv);
    if (std::strcmp(argv[1], "psnr") == 0) return cmd_psnr(argc, argv);
    if (std::strcmp(argv[1], "list-backends") == 0 ||
        std::strcmp(argv[1], "--list-backends") == 0) {
      return cmd_list_backends();
    }
    if (std::strcmp(argv[1], "list-designs") == 0 ||
        std::strcmp(argv[1], "--list-designs") == 0) {
      return cmd_list_designs();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
