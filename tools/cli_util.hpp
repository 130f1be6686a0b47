// Argument and file helpers shared by the dwt97cli and dwt97d front ends.
// Their diagnostics ("missing value for --flag", "cannot open PATH",
// "write failed for PATH") are pinned by the tools' ctests.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

namespace dwt::tools {

/// Strict numeric parsing: the whole token must be consumed and the value
/// must be in range, otherwise the command falls through to the usage error
/// (atoi-style silent zeros swallow typos like "--octaves 3x").
inline bool parse_long(const char* s, long min, long max, long* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  if (v < min || v > max) return false;
  *out = v;
  return true;
}

inline std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

inline void write_file(const std::string& path,
                       const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  // Check after the write AND the close: a full disk must exit nonzero, not
  // hand a truncated file to the next pipeline stage.
  out.close();
  if (!out) throw std::runtime_error("write failed for " + path);
}

/// True when `arg` is one of the value-taking `flags`: prints the missing-
/// value diagnostic so a trailing flag does not fall through as an unknown
/// argument.
inline bool report_missing_value(const char* arg,
                                 std::initializer_list<const char*> flags) {
  for (const char* f : flags) {
    if (std::strcmp(arg, f) == 0) {
      std::fprintf(stderr, "missing value for %s\n", f);
      return true;
    }
  }
  return false;
}

}  // namespace dwt::tools
