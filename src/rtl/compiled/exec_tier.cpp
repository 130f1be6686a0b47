#include "rtl/compiled/exec_tier.hpp"

#include <cstdlib>

namespace dwt::rtl::compiled {

const char* to_string(ExecTier tier) {
  switch (tier) {
    case ExecTier::kAuto:
      return "auto";
    case ExecTier::kThreaded:
      return "threaded";
    case ExecTier::kNative:
      return "native";
  }
  return "?";
}

bool parse_exec_tier(const std::string& text, ExecTier* out) {
  if (text == "auto") {
    *out = ExecTier::kAuto;
  } else if (text == "threaded") {
    *out = ExecTier::kThreaded;
  } else if (text == "native") {
    *out = ExecTier::kNative;
  } else {
    return false;
  }
  return true;
}

bool native_supported(unsigned words) {
#if defined(__x86_64__) || defined(_M_X64)
  if (words == 1) return true;
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  (void)words;
  return false;
#endif
#else
  (void)words;
  return false;
#endif
}

ExecTier resolve_exec_tier(ExecTier requested, unsigned words) {
  // The environment override wins over every programmatic request: it is
  // the operational kill-switch (disable the JIT fleet-wide) and the CI
  // lever that forces the portable tier through full workloads.  Only
  // "auto" and "native" leave the JIT reachable; any other value -- a
  // retired tier name or a typo included -- means threaded, so a
  // misspelled kill-switch never quietly turns the JIT back on.
  if (const char* env = std::getenv("DWT_EXEC_TIER")) {
    ExecTier from_env = ExecTier::kThreaded;
    if (!parse_exec_tier(env, &from_env) || from_env != ExecTier::kAuto) {
      requested = from_env;
    }
  }
  if (requested == ExecTier::kAuto) {
    requested =
        native_supported(words) ? ExecTier::kNative : ExecTier::kThreaded;
  }
  if (requested == ExecTier::kNative && !native_supported(words)) {
    return ExecTier::kThreaded;
  }
  return requested;
}

}  // namespace dwt::rtl::compiled
