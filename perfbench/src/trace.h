// Span recorder for the traced benchmark run. Spans are recorded from the
// benchmark's own code around each call it makes into a prochecker layer
// (nothing inside src/ is instrumented), kept in memory, and written out as
// JSONL when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One call into a layer. `name` is "<layer>.<call>" with the layer named
/// after its src/ module (e.g. "mc.check", "net.query_batch"); the layer is
/// the part before the first '.'. Times are seconds since the recorder was
/// created; `parent` is 0 for a root span.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t op = 0;
  std::string name;
  double start = 0;
  double end = 0;
  double duration() const { return end - start; }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// Length of [start, end] not covered by any of `children` (each clipped to
/// the interval first; children may nest, overlap each other, or run past
/// the parent on other threads).
double uncovered(double start, double end, std::vector<std::pair<double, double>> children);

/// Single-threaded recorder: spans are opened and closed on the thread
/// that runs the ops. Work that ran on other threads (the supervisor's workers) is
/// added afterwards with add() and an explicit parent.
class SpanRecorder {
 public:
  SpanRecorder();

  double now() const;

  /// Starts a new operation id; spans opened afterwards carry it.
  std::uint32_t begin_op();

  /// Opens a span as a child of the innermost open span; returns its id.
  std::uint32_t open(std::string name);
  void close(std::uint32_t id);
  /// Records a finished span (e.g. reconstructed from worker start marks).
  std::uint32_t add(std::string name, std::uint32_t parent, double start, double end);

  /// RAII wrapper around open/close.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name) : rec_(rec), id_(rec.open(std::move(name))) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t id() const { return id_; }

   private:
    SpanRecorder& rec_;
    std::uint32_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(std::uint32_t id) const { return spans_[id - 1]; }

  /// Self time of every span: its duration minus the part its children cover.
  std::vector<double> self_times() const;
  /// Per-layer totals of self time over all spans (seconds).
  std::map<std::string, double> layer_self_seconds() const;

  /// Writes one JSON object per span (id, parent, op, name, start, end,
  /// self); false on an I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::uint64_t epoch_ns_ = 0;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span ids
};

}  // namespace perfbench
