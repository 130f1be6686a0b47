#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {
namespace {

thread_local std::vector<std::int32_t> open_stack;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t Tracer::open(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_stack.empty() ? -1 : open_stack.back();
  std::int32_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
  }
  open_stack.push_back(id);
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].start_ns = t;
  return id;
}

void Tracer::close(std::int32_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}\n";
  }
  out.close();
  if (!out) throw std::runtime_error("write failed for trace " + path);
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans,
                                              std::int64_t t0,
                                              std::int64_t t1) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.start_ns < t0 || s.start_ns >= t1) continue;
    SpanTotals& t = out[s.name];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return out;
}

double span_coverage(const std::vector<Span>& spans, std::int64_t t0,
                     std::int64_t t1) {
  if (t1 <= t0) return 0.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& s : spans) {
    const std::int64_t a = std::max(s.start_ns, t0);
    const std::int64_t b = std::min(s.end_ns, t1);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur_b) {
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) covered += cur_b - cur_a;
  return static_cast<double>(covered) / static_cast<double>(t1 - t0);
}

std::string span_layer(const std::string& name) {
  const std::string layer = name.substr(0, name.find('.'));
  return layer == "protocol" ? "server" : layer;
}

}  // namespace perfbench
