// Execution tiers for the compiled tape engine.
//
// The levelized instruction tape (see tape.hpp) can be executed two ways,
// bit-identical over the same LaneBlock<W> state:
//
//   kThreaded -- the portable walker and every simulator's default:
//                computed-goto direct-threaded dispatch (GNU labels-as-
//                values), each instruction jumping straight to the next
//                opcode's kernel; other compilers reach the same kernels
//                through a switch loop.
//   kNative   -- the tape lowered to straight-line x86-64 machine code in
//                an mmap'd executable buffer (native_block.hpp): scalar for
//                W=1, VEX/AVX2 for W=2/4.  Selected by runtime CPU-feature
//                detection; only full-range unforced evals run natively,
//                fault overlays and cone-restricted ranges drop to the
//                threaded tier so campaign results stay byte-identical.
//
// kAuto, the default everywhere a tier is plumbed through options structs,
// resolves to the fastest supported tier (native where the host allows,
// threaded otherwise).  The DWT_EXEC_TIER environment variable overrides
// every programmatic request -- the kill-switch that keeps the JIT off and
// the portable tier exercised.  It fails safe: "auto" and "native" follow
// the request/host as usual, and any other set value, recognized or not,
// forces the threaded tier.
#pragma once

#include <string>

namespace dwt::rtl::compiled {

enum class ExecTier {
  kAuto,      // resolve to the fastest supported tier
  kThreaded,  // computed-goto threaded dispatch
  kNative,    // JIT'd straight-line machine code
};

[[nodiscard]] const char* to_string(ExecTier tier);

/// Parses "auto" | "threaded" | "native".  Returns false (leaving *out
/// untouched) on anything else.
[[nodiscard]] bool parse_exec_tier(const std::string& text, ExecTier* out);

/// True when the native emitter can target this host for tapes of `words`
/// lane words per slot: x86-64 always for words == 1 (scalar 64-bit code),
/// AVX2 required for words == 2 or 4 (VEX 128/256-bit code).
[[nodiscard]] bool native_supported(unsigned words);

/// Maps a requested tier to the concrete tier that should run, applying (in
/// order): the DWT_EXEC_TIER environment override, kAuto resolution, and
/// the native-support fallback to kThreaded.  Never returns kAuto.
[[nodiscard]] ExecTier resolve_exec_tier(ExecTier requested, unsigned words);

}  // namespace dwt::rtl::compiled
