// Analysis supervisor (DESIGN.md §11 "Failure containment & resume").
//
// Layered between ProChecker::analyze and the per-property CEGAR workers:
// each property runs crash-isolated under a cooperative watchdog (wall-clock
// deadline + approximate memory ceiling polled in the MC hot loop), so any
// single property can throw, trip a budget, or be cancelled and the catalog
// run still completes with a structured outcome for every property. Failed
// or inconclusive properties are retried on a degrade ladder (shrinking
// state/deadline budgets, exponential backoff); the final attempt falls back
// to kInconclusive with the failure class embedded. Every completed outcome
// is appended to a crash-safe JSONL journal (common/journal.h), and a
// resumed run adopts journaled outcomes instead of re-verifying them —
// reproducing a verdict report byte-identical to an uninterrupted run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checker/cegar.h"
#include "checker/property.h"
#include "common/supervise.h"
#include "cpv/lte_crypto.h"
#include "fsm/fsm.h"
#include "threat/compose.h"

namespace procheck::checker {

/// The supervisor's structured per-property outcome: the verdict plus the
/// containment metadata (what failed, how many attempts were consumed).
struct PropertyOutcome {
  PropertyResult result;
  int attempts = 1;
  supervise::Failure failure = supervise::Failure::kNone;
  /// Failure detail of the last attempt (exception message, tripped budget).
  std::string diagnostics;
  /// True when the outcome was adopted from the run journal (not re-verified).
  bool resumed = false;
};

/// The shared settings (retries, backoff, journal, resume, tag, cancel) live
/// in supervise::Options; a retry after a resource failure shrinks
/// max_states and the per-attempt deadline by degrade_factor.
struct SupervisorOptions : supervise::Options {
  /// max_states never degrades below this.
  std::size_t degrade_floor_states = 4096;

  /// Per-attempt watchdog wall-clock deadline (seconds); 0 = none.
  double deadline_per_property = 0.0;
  /// Approximate per-property memory ceiling (bytes over the MC's
  /// visited-state structures, polled cooperatively); 0 = none.
  std::size_t mem_ceiling_bytes = 0;

  /// Fingerprint of the analysis options that shape verdicts (budgets,
  /// property selection — anything jobs-independent; see
  /// checker::analysis_options_hash). Recorded in the journal header; a
  /// --resume against a journal written under a *different* fingerprint is
  /// refused. "" disables the check.
  std::string options_hash;

  std::size_t jobs = 1;
  /// Test hook: invoked at the start of every attempt; a throw simulates a
  /// worker crash inside the MC/CEGAR loop.
  std::function<void(const std::string& property_id, int attempt)> fault_hook;
  /// Test hook: invoked at the start of each model's graph-build task with
  /// the model's index; a throw simulates a crash in the build.
  std::function<void(std::size_t model)> build_fault_hook;
};

struct SupervisedRun : supervise::Status {
  /// One outcome per selected property, in selection (catalog) order.
  std::vector<PropertyOutcome> outcomes;
  std::size_t resumed = 0;    // outcomes adopted from the journal
  std::size_t cancelled = 0;  // properties interrupted by the CancelToken
  /// The shared reachable graph (DESIGN.md §10): states and edges of the
  /// graph every property was checked against, 0 when none was built (no
  /// property left to verify, or the build tripped a budget and every
  /// property explored on its own), and the seconds the build took —
  /// including a build that was abandoned.
  std::size_t graph_states = 0;
  std::size_t graph_edges = 0;
  double graph_build_seconds = 0;
  /// The never-claim scan over the graph (ReachGraph::first_hits): the
  /// kEdgeNever properties it scanned (their first CEGAR iteration is read
  /// off the scan), and the seconds it took (0 / 0 without a graph).
  std::size_t scan_answered = 0;
  double scan_seconds = 0;
  /// Why the properties explored the model on their own although they had
  /// work to do: "build stopped at a budget" or "build failed: <what>";
  /// empty when the graph was built or the run was cancelled.
  std::string graph_note;
};

/// One model of a multi-model run: its threat model, its UE machine and the
/// properties to check on it.
struct SupervisedModel {
  const threat::ThreatModel& tm;
  const fsm::Fsm& ue_fsm;
  const std::vector<const PropertyDef*>& selected;
};

/// Runs `selected` under supervision. Exceptions never escape a worker:
/// every property produces a PropertyOutcome. The verdicts are byte-for-byte
/// deterministic across jobs levels and across interrupt/resume cycles for
/// deterministic budgets (see DESIGN.md §11 for the determinism argument).
///
/// The unrefined model's reachable graph is built once (mc::ReachGraph)
/// under one property's first-attempt budgets; every property then queries
/// it. One scan of the graph answers the first iteration of every
/// never-claim. A build that trips a budget or throws yields no graph and
/// each property explores the model on its own, exactly as without one.
SupervisedRun run_supervised(const threat::ThreatModel& tm, const fsm::Fsm& ue_fsm,
                             const std::vector<const PropertyDef*>& selected,
                             const cpv::LteCryptoModel::Options& crypto_options,
                             const CegarOptions& cegar, const SupervisorOptions& options);

/// Checks several models under one pool of `options.jobs` workers and
/// returns one SupervisedRun per model, in `models` order — each equal to
/// that model's one-model run. Each model's graph build plus never-claim
/// scan is a pool task, submitted before any property task; a finished
/// build submits its model's property tasks, so one model's properties run
/// while another is still building. Every graph stays alive until the run
/// ends. A run journal holds one model's outcomes: with more than one model
/// a `journal_path` is refused (every run comes back aborted).
std::vector<SupervisedRun> run_supervised(const std::vector<SupervisedModel>& models,
                                          const cpv::LteCryptoModel::Options& crypto_options,
                                          const CegarOptions& cegar,
                                          const SupervisorOptions& options);

/// The verdict's journal and triage token ("verified", "attack",
/// "not_applicable", "inconclusive").
std::string_view status_token(PropertyResult::Status s);

/// Journal record codec. Encodes the deterministic slice of an outcome
/// (verdict, note, refinements, equivalence, counterexample, containment
/// metadata) as a single-line JSON object; timing/footprint stats are
/// deliberately excluded (they are not part of the determinism contract).
std::string encode_outcome(const PropertyOutcome& outcome);
/// Strict inverse; nullopt on any malformation (the record is then treated
/// as absent and the property re-verified — safe by construction).
std::optional<PropertyOutcome> decode_outcome(std::string_view json);

}  // namespace procheck::checker
