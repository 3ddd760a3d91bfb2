// The benchmark's workloads. Each one is a closed loop with a single
// client: main.cc calls op() and waits for its verdict before starting
// the next. An untraced op calls the program's public entry point exactly
// as a user would (ProChecker::analyze, resolve_side + diff_machines +
// triage, learn_mealy over a RemoteUeSul); a traced op makes the same calls
// stage by stage, with one span around each call into a layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};

/// Every per-layer metric the traced run reports, with its unit, in report
/// order. A workload that does not load a layer reports 0 for its metrics.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

class Workload {
 public:
  virtual ~Workload() = default;

  /// Loads what the timed loop needs (profiles, pinned answers, servers).
  /// setup_s times it in fresh processes (see main.cc).
  virtual void setup() = 0;
  virtual void teardown() {}

  /// One operation; "" when its verdict matches the pinned answer, else
  /// why it does not. `rec` is null for untraced ops.
  virtual std::string op(std::size_t index, SpanRecorder* rec) = 0;
  /// Untimed per-op follow-up of a traced op (probes that must not count
  /// into the op's wall time).
  virtual void after_traced_op(std::size_t /*index*/) {}

  /// Checks that need the whole run, made after the final teardown(), as
  /// (op index, reason); a failure of the run as a whole uses index = ops.
  virtual std::vector<std::pair<std::size_t, std::string>> verify() { return {}; }

  /// Per-layer metrics over the traced ops (keys from per_layer_metrics()),
  /// taken before the final teardown().
  virtual std::map<std::string, Metric> layer_metrics(const SpanRecorder& rec) = 0;

  /// How many leading op samples enter the timing statistics (a workload
  /// that cycles through a fixed input pool keeps whole cycles only).
  virtual std::size_t timed_samples(std::size_t n) const { return n; }

  /// CPU seconds spent outside this process (server children) so far.
  virtual double external_cpu_seconds() { return 0; }

  /// The workload's end-to-end figures under their own names (analyze_s,
  /// diff_s, learn_p50_ms, ...), computed from the untraced op wall times.
  virtual std::vector<std::pair<std::string, Metric>> named_metrics(
      const std::vector<double>& op_wall_s) = 0;
};

/// `answers_dir` holds the pinned known answers. Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& answers_dir);

/// The learn-remote input plan: op `index` learns profile `index % 3` with
/// the pool seed picked by the workload seed's rotation of that profile's
/// pool. Every run of 3 * kLearnPool ops covers each (profile, seed) once.
inline constexpr int kLearnPool = 8;
struct LearnPlan {
  int profile = 0;    // 0 cls, 1 srsue, 2 oai
  int pool_slot = 0;  // index into the profile's seed pool
  std::uint64_t learn_seed = 0;
};
LearnPlan learn_plan(std::uint64_t workload_seed, std::size_t index);

}  // namespace perfbench
