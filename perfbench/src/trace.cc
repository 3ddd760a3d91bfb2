#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/json.h"

namespace perfbench {

namespace {
std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}
}  // namespace

double uncovered(double start, double end, std::vector<std::pair<double, double>> children) {
  if (end <= start) return 0;
  for (auto& [s, e] : children) {
    s = std::clamp(s, start, end);
    e = std::clamp(e, start, end);
  }
  std::sort(children.begin(), children.end());
  double covered = 0;
  double reach = start;  // end of the union so far
  for (const auto& [s, e] : children) {
    if (e <= reach) continue;
    covered += e - std::max(s, reach);
    reach = e;
  }
  return (end - start) - covered;
}

SpanRecorder::SpanRecorder() : epoch_ns_(steady_ns()) {}

double SpanRecorder::now() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-9;
}

std::uint32_t SpanRecorder::begin_op() { return ++op_; }

std::uint32_t SpanRecorder::open(std::string name) {
  const std::uint32_t parent = open_.empty() ? 0 : open_.back();
  const double t = now();
  const std::uint32_t id = add(std::move(name), parent, t, t);
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(std::uint32_t id) {
  spans_[id - 1].end = now();
  // Scopes close in LIFO order; tolerate a stray id rather than corrupt the stack.
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

std::uint32_t SpanRecorder::add(std::string name, std::uint32_t parent, double start, double end) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.op = op_;
  s.name = std::move(name);
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<double> SpanRecorder::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent - 1].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = uncovered(spans_[i].start, spans_[i].end, std::move(children[i]));
  }
  return self;
}

std::map<std::string, double> SpanRecorder::layer_self_seconds() const {
  std::map<std::string, double> out;
  const std::vector<double> self = self_times();
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].layer()] += self[i];
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::vector<double> self = self_times();
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "\"start\":%.9f,\"end\":%.9f,\"self\":%.9f}\n", s.start,
                  s.end, self[i]);
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"name\":" << procheck::json_quote(s.name) << ',' << buf;
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
