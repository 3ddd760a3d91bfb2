#include "checker/cegar.h"

#include <algorithm>
#include <set>

#include "mc/reach_graph.h"

namespace procheck::checker {

namespace {

/// Applicability: every atom in requires_atoms must appear somewhere in the
/// UE FSM's condition or action vocabulary.
bool applicable(const PropertyDef& prop, const fsm::Fsm& ue_fsm) {
  for (const std::string& atom : prop.requires_atoms) {
    if (ue_fsm.conditions().count(atom) == 0 && ue_fsm.actions().count(atom) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

PropertyResult check_property(const threat::ThreatModel& tm, const fsm::Fsm& ue_fsm,
                              const PropertyDef& prop, const cpv::LteCryptoModel& crypto,
                              const CegarOptions& options, const mc::ReachGraph* graph,
                              std::optional<std::uint32_t> first_hit) {
  PropertyResult result;
  result.property_id = prop.id;
  result.attack_id = prop.attack_id;

  if (!applicable(prop, ue_fsm)) {
    result.status = PropertyResult::Status::kNotApplicable;
    result.note = "procedure not implemented by this stack";
    return result;
  }

  mc::Checker checker(tm.model, graph);
  std::set<std::string> banned;
  // Per command index, whether its label is in `banned`: the search's ban.
  std::vector<std::uint8_t> banned_cmd(tm.model.commands().size(), 0);

  mc::EdgeMatch bad, trigger, response;
  const bool never = prop.kind == PropertyDef::Kind::kEdgeNever;
  if (!graph || !never) first_hit.reset();
  if (never) {
    bad = prop.bad.compile_match(tm);
  } else {
    trigger = prop.trigger.compile_match(tm);
    response = prop.response.compile_match(tm);
  }

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (options.cancel && options.cancel->cancelled()) {
      result.status = PropertyResult::Status::kInconclusive;
      result.note = "cancelled before iteration " + std::to_string(result.iterations + 1);
      return result;
    }
    ++result.iterations;
    mc::CheckOptions mc_options;
    mc_options.max_states = options.max_states;
    mc_options.max_visited_bytes = options.max_visited_bytes;
    mc_options.cancel = options.cancel;
    if (options.max_seconds > 0) {
      const double remaining = options.max_seconds - result.total_seconds;
      if (remaining <= 0) {
        result.status = PropertyResult::Status::kInconclusive;
        result.note = "wall-clock budget exhausted (" + std::to_string(options.max_seconds) +
                      "s) before iteration " + std::to_string(result.iterations);
        return result;
      }
      mc_options.max_seconds = remaining;
    }
    if (!banned.empty()) mc_options.banned = banned_cmd;

    mc::CheckStats stats;
    std::optional<mc::CounterExample> cex;
    if (first_hit && banned.empty()) {  // the unrefined iteration, read off the scan
      cex = graph->edge_never_answer(*first_hit, mc_options.max_states, &stats);
    } else if (never) {
      cex = checker.check_edge_never(bad, &stats, mc_options);
    } else {
      cex = checker.check_response(trigger, response, &stats, mc_options);
    }
    result.last_stats = stats;
    result.total_seconds += stats.seconds;
    result.total_states += stats.states_explored;
    result.peak_visited_bytes = std::max(result.peak_visited_bytes, stats.visited_bytes);

    if (!cex) {
      if (stats.truncated()) {
        // The search stopped at a budget without finding a violation: the
        // unexplored remainder may still hold one, so this is not a verdict.
        const char* why = stats.bound_hit      ? "state bound"
                          : stats.deadline_hit ? "wall-clock deadline"
                          : stats.mem_hit      ? "memory ceiling"
                                               : "cancellation";
        result.status = PropertyResult::Status::kInconclusive;
        result.note = std::string("search budget exhausted (") + why + " after " +
                      std::to_string(stats.states_explored) +
                      " states); no counterexample found in the explored fragment";
        return result;
      }
      result.status = PropertyResult::Status::kVerified;
      result.note = banned.empty() ? "verified" : "verified after CEGAR refinement";
      return result;
    }

    // CPV validation of every adversary-dependent consumption in the trace.
    std::vector<std::pair<std::string, std::string>> infeasible;
    for (const mc::TraceStep& step : cex->steps) {
      if (step.meta.kind != mc::CommandMeta::Kind::kDeliver) continue;
      if (step.meta.provenance == mc::kProvGenuine) continue;
      cpv::StepVerdict v = crypto.judge_delivery(step.meta);
      if (!v.feasible) infeasible.emplace_back(step.label, v.reason);
    }

    if (!infeasible.empty()) {
      for (const auto& [label, reason] : infeasible) {
        banned.insert(label);
        result.refinements.push_back("banned " + label + ": " + reason);
      }
      for (const mc::Command& cmd : tm.model.commands()) {
        if (banned.count(cmd.label) > 0) banned_cmd[cmd.index] = 1;
      }
      continue;  // spurious counterexample ruled out; re-verify
    }

    // Cryptographically realizable. Linkability properties additionally
    // require the observational-equivalence confirmation.
    if (!prop.equivalence_message.empty()) {
      cpv::EquivalenceVerdict eq = crypto.distinguishability(
          ue_fsm, prop.equivalence_message, prop.equivalence_victim_atoms);
      result.equivalence = eq;
      if (!eq.distinguishable) {
        result.status = PropertyResult::Status::kVerified;
        result.note = "counterexample reachable but observationally equivalent: " + eq.reason;
        return result;
      }
      result.note = eq.reason;
    } else {
      result.note = "realizable counterexample";
    }
    result.status = PropertyResult::Status::kAttack;
    result.counterexample = std::move(cex);
    return result;
  }

  // Refinement did not converge within the iteration budget. Every produced
  // counterexample was spurious, but the refined model was never fully
  // re-verified — that is inconclusive, not verified.
  result.status = PropertyResult::Status::kInconclusive;
  result.note = "CEGAR iteration budget exhausted (" + std::to_string(options.max_iterations) +
                " iterations); all counterexamples so far were spurious";
  return result;
}

}  // namespace procheck::checker
