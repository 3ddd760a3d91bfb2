// Explicit-state checker over mc::Model: invariants (G p), never-claims on
// edges, and response liveness (G(trigger → F response)) with counterexample
// traces — the verification features of nuXmv the paper's pipeline uses.
//
// The CEGAR loop's "property refinement" is realized by the `banned` command
// mask in CheckOptions: adversary actions the cryptographic verifier
// adjudicated infeasible are excluded from the next verification iteration.
//
// A Checker explores the model on the fly, or — when handed the model's
// ReachGraph (reach_graph.h) — walks the stored graph instead; both give the
// same counterexamples and the same CheckStats counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "mc/model.h"

namespace procheck::mc {

class ReachGraph;

struct TraceStep {
  std::string label;
  CommandMeta meta;
  State post;
};

struct CounterExample {
  std::vector<TraceStep> steps;  // from the initial state
  /// For liveness violations, index into `steps` where the lasso loop
  /// begins; -1 for finite safety traces.
  int loop_start = -1;

  std::string render(const Model& model) const;
  /// Graphviz rendering of the trace as a message-sequence-like chain
  /// (adversary steps highlighted; the lasso loop marked).
  std::string to_dot(const Model& model) const;
  /// The adversary steps of the trace (what the CPV must validate).
  std::vector<const TraceStep*> adversary_steps() const;
};

struct CheckStats {
  std::size_t states_explored = 0;
  std::size_t edges_explored = 0;
  /// Bytes held by the visited-state structures at the end of the search
  /// (interned-state arena + hash table + guard tables + search bookkeeping).
  /// Growth is monotonic, so this is also the peak.
  std::size_t visited_bytes = 0;
  double seconds = 0.0;
  bool bound_hit = false;     // exploration stopped at max_states
  bool deadline_hit = false;  // exploration stopped at max_seconds
  bool mem_hit = false;       // exploration stopped at max_visited_bytes
  bool cancelled = false;     // exploration stopped by a CancelToken

  /// True when the search stopped early: absence of a counterexample then
  /// means "not found within budget", not "verified".
  bool truncated() const { return bound_hit || deadline_hit || mem_hit || cancelled; }
};

/// Edge predicate over (pre-state, command, post-state). A search hands its
/// edges out as rows of values and copies them into States only for these;
/// an EdgeMatch is tested on the rows in place.
using EdgePred = std::function<bool(const State&, const Command&, const State&)>;

/// A compiled edge matcher: an edge matches when its command's entry in
/// `commands` is set and its pre-state holds every (variable, value) pair
/// of `pre_equals` (a negative variable or value never holds). The catalog's
/// matchers compile to this form (checker::MetaMatch::compile_match), so the
/// searches and ReachGraph::first_hits share one definition.
struct EdgeMatch {
  std::vector<std::uint8_t> commands;  // per command index: 1 = may match
  std::vector<std::pair<int, std::int32_t>> pre_equals;

  bool pre_holds(const std::int32_t* pre) const {
    for (const auto& [var, value] : pre_equals) {
      if (var < 0 || value < 0 || pre[var] != value) return false;
    }
    return true;
  }
  bool matches(const std::int32_t* pre, std::size_t cmd) const {
    return cmd < commands.size() && commands[cmd] != 0 && pre_holds(pre);
  }
};

struct CheckOptions {
  std::size_t max_states = 2'000'000;
  /// Wall-clock budget in seconds; 0 = unbounded. Exploration stops (with
  /// stats->deadline_hit) once exceeded — a guardrail, not a fairness bound.
  double max_seconds = 0.0;
  /// Approximate memory ceiling over the visited-state structures (the
  /// quantity reported as CheckStats::visited_bytes); 0 = unbounded.
  /// Polled cooperatively in the search loop, so the real footprint can
  /// overshoot by one poll interval — a supervisor guardrail against OOM,
  /// not an allocator limit.
  std::size_t max_visited_bytes = 0;
  /// Cooperative cancellation (the supervisor's watchdog): polled once per
  /// dequeued state (and periodically inside the liveness lasso search); a
  /// cancelled search stops with stats->cancelled set.
  const CancelToken* cancel = nullptr;
  /// Per command index: 1 = every edge of that command is pruned (CEGAR
  /// refinement of the threat model). Empty or shorter than the command
  /// list: the rest are allowed.
  std::vector<std::uint8_t> banned;
  /// When set, edges for which this returns false are pruned as well: a
  /// state-dependent ban, which materializes each edge's states.
  EdgePred allowed;
};

class Checker {
 public:
  /// `graph`, when given, must be ReachGraph::build(model) output; it must
  /// outlive the checker. Searches then walk it instead of exploring.
  explicit Checker(const Model& model, const ReachGraph* graph = nullptr);

  /// G good — returns a finite trace to a state violating `good`.
  std::optional<CounterExample> check_invariant(const Expr& good, CheckStats* stats,
                                                const CheckOptions& options = {}) const;

  /// "bad edge never fires" — returns a finite trace ending with the edge.
  std::optional<CounterExample> check_edge_never(const EdgeMatch& bad, CheckStats* stats,
                                                 const CheckOptions& options = {}) const;
  std::optional<CounterExample> check_edge_never(const EdgePred& bad, CheckStats* stats,
                                                 const CheckOptions& options = {}) const;

  /// G(trigger → F response) over edges — returns a lasso trace on which a
  /// trigger fires and the loop never answers it. Deadlocked states stutter.
  std::optional<CounterExample> check_response(const EdgeMatch& trigger,
                                               const EdgeMatch& response, CheckStats* stats,
                                               const CheckOptions& options = {}) const;
  std::optional<CounterExample> check_response(const EdgePred& trigger,
                                               const EdgePred& response, CheckStats* stats,
                                               const CheckOptions& options = {}) const;

 private:
  const Model& model_;
  const ReachGraph* graph_;
};

}  // namespace procheck::mc
