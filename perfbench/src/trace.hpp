// Span tracer for the benchmark's traced run.  Spans are recorded in this
// benchmark's own code, around each call into a library module's public
// functions, and named "<layer>.<function>" (layer = dsp, hw, compiled,
// core, fpga, explore, server, protocol, codec, or bench for the
// benchmark's own checks).  Every span keeps its parent (the innermost span
// open on the same thread when it started) and the id of the frame,
// request, pass or design point it belongs to.  Spans stay in memory and
// are written out once, when the run ends.
//
// Recording is off unless enabled, so the same instrumented loop serves
// the untraced measurement (end-to-end metrics) and the traced one.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t op = 0;      ///< frame / request / pass / point id
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the calling thread's innermost open span; returns
  /// its index, or -1 when tracing is off.
  std::int32_t open(const char* name, std::uint64_t op);
  void close(std::int32_t id);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

  [[nodiscard]] static std::int64_t now_ns();

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  bool enabled_ = false;
};

/// RAII span.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t op = 0)
      : id_(Tracer::instance().open(name, op)) {}
  ~Scope() { Tracer::instance().close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t id_;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  ///< duration minus the time direct children cover

  [[nodiscard]] double self_ms_per_call() const {
    return count == 0 ? 0.0 : self_ns / 1e6 / static_cast<double>(count);
  }
};

/// Per-name totals over the spans that start inside [t0, t1).
[[nodiscard]] std::map<std::string, SpanTotals> span_totals(
    const std::vector<Span>& spans, std::int64_t t0, std::int64_t t1);

/// Share of [t0, t1) covered by the union of the spans inside it.
[[nodiscard]] double span_coverage(const std::vector<Span>& spans,
                                   std::int64_t t0, std::int64_t t1);

/// Layer of a span name: its first dotted component, with protocol spans
/// folded into the server layer.
[[nodiscard]] std::string span_layer(const std::string& name);

}  // namespace perfbench
