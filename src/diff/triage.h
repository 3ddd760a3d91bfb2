// Property-mapped divergence triage (DESIGN.md §16): labels every
// divergence from diff_machines as property-relevant (which catalog
// property, which side violates it) or behavioral-only.
//
// Candidate selection is static and cheap: each diverging edge is rebuilt as
// the CommandMeta(s) the threat composer would emit for it — one per
// admissible provenance — and matched against the 62-property catalog's
// declarative matchers. A second tier catches shared deviations that never
// pairwise-diverge (e.g. the I6 SMC-replay edge seeded in every profile):
// attack-mapped properties whose bad-edge matcher names a deviation-
// indicator atom and hits *both* sides become candidates too.
//
// Static matching alone over-approximates (a matcher with pre-state
// constraints matches many benign edges), so the verdict is always the model
// checker's: every candidate property is verified on BOTH sides under the
// analysis supervisor (crash isolation, watchdog deadlines, budget degrade —
// DESIGN.md §11) in one multi-model run: both sides share one pool of
// `jobs` workers, each side's graph build is a pool task, and a finished
// build submits that side's property tasks, so the smaller side is built
// and checked while the larger one is still building. The verdict matrix
// then classifies:
//
//   attack on exactly one side  -> divergent finding (that side violates)
//   attack on both sides        -> common finding (shared deviation)
//   inconclusive on either side -> inconclusive finding (budget tripped)
//   otherwise                   -> candidate dismissed; a divergence whose
//                                  candidates all dismissed is behavioral-only
//
// Verdicts are deterministic, land in catalog order by index, and each side
// keeps run_supervised's byte-determinism contract — so the triaged report
// stays byte-identical across runs and --jobs levels.
#pragma once

#include <cstddef>
#include <string>

#include "common/thread_pool.h"
#include "diff/diff.h"

namespace procheck::diff {

struct TriageOptions {
  /// Worker threads in total, shared by both sides' graph builds and
  /// property checks (not per side).
  std::size_t jobs = 1;
  /// Per-property CEGAR budgets (mirroring checker::AnalysisOptions): a
  /// pathological side degrades to a structured inconclusive finding.
  std::size_t max_states = 1'000'000;
  int max_cegar_iterations = 16;
  /// Watchdog wall-clock deadline per property per side (seconds; 0 = none,
  /// matching checker::AnalysisOptions — wall-clock watchdogs trade the
  /// byte-identity-across-machines guarantee for boundedness, so they are
  /// opt-in here exactly as in `analyze`).
  double deadline_per_property = 0.0;
  /// Extra degraded attempts for properties that trip a budget.
  int retries = 0;
  /// Cooperative run-level cancellation.
  const CancelToken* cancel = nullptr;
};

/// Where triage's model checking went, per side: the shared reachable graph
/// and the never-claim scan (checker::SupervisedRun's graph_* / scan_*
/// fields). All zero when triage model-checked nothing.
struct TriageStats {
  struct SideGraph {
    std::size_t graph_states = 0;
    std::size_t graph_edges = 0;
    double graph_build_seconds = 0;
    std::size_t scan_answered = 0;
    double scan_seconds = 0;
    /// Why the side's properties explored the model on their own.
    std::string graph_note;
  };
  SideGraph left, right;
};

/// Runs triage over `report` (in place): attaches property ids to each
/// divergence and fills report.findings. A report that is inconclusive or
/// has no divergences is returned unchanged. `stats` (optional) receives
/// the per-side graph and scan measurements.
void triage(DiffReport& report, const Side& left, const Side& right,
            const TriageOptions& options = {}, TriageStats* stats = nullptr);

}  // namespace procheck::diff
