#include "checker/supervisor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "common/json.h"
#include "mc/reach_graph.h"

namespace procheck::checker {

using supervise::Failure;

// Journal record codec: JSON via the shared minimal parser/encoder in
// common/json.h. The parser is strict — any malformation fails the whole
// record, which the resume path treats as "absent" (the property is simply
// re-verified).

std::string_view status_token(PropertyResult::Status s) {
  switch (s) {
    case PropertyResult::Status::kVerified:
      return "verified";
    case PropertyResult::Status::kAttack:
      return "attack";
    case PropertyResult::Status::kNotApplicable:
      return "not_applicable";
    case PropertyResult::Status::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

namespace {

std::optional<PropertyResult::Status> status_from_token(std::string_view t) {
  if (t == "verified") return PropertyResult::Status::kVerified;
  if (t == "attack") return PropertyResult::Status::kAttack;
  if (t == "not_applicable") return PropertyResult::Status::kNotApplicable;
  if (t == "inconclusive") return PropertyResult::Status::kInconclusive;
  return std::nullopt;
}

}  // namespace

std::string encode_outcome(const PropertyOutcome& outcome) {
  const PropertyResult& r = outcome.result;
  std::string out = "{\"kind\":\"outcome\"";
  out += ",\"id\":" + json_quote(r.property_id);
  out += ",\"attack\":" + json_quote(r.attack_id);
  out += ",\"status\":\"" + std::string(status_token(r.status)) + "\"";
  out += ",\"note\":" + json_quote(r.note);
  out += ",\"iters\":" + std::to_string(r.iterations);
  out += ",\"attempts\":" + std::to_string(outcome.attempts);
  out += ",\"failure\":\"" + std::string(supervise::to_string(outcome.failure)) + "\"";
  out += ",\"diag\":" + json_quote(outcome.diagnostics);
  out += ",\"refs\":" + json_quote_array(r.refinements);
  if (r.equivalence) {
    out += ",\"equiv\":{\"dist\":" + std::string(r.equivalence->distinguishable ? "true" : "false");
    out += ",\"victim\":" + json_quote(r.equivalence->victim_response);
    out += ",\"other\":" + json_quote(r.equivalence->other_response);
    out += ",\"reason\":" + json_quote(r.equivalence->reason) + "}";
  }
  if (r.counterexample) {
    out += ",\"cex\":{\"loop\":" + std::to_string(r.counterexample->loop_start);
    out += ",\"steps\":[";
    for (std::size_t i = 0; i < r.counterexample->steps.size(); ++i) {
      const mc::TraceStep& step = r.counterexample->steps[i];
      if (i > 0) out += ',';
      out += "{\"label\":" + json_quote(step.label);
      out += ",\"actor\":" + std::to_string(static_cast<int>(step.meta.actor));
      out += ",\"ckind\":" + std::to_string(static_cast<int>(step.meta.kind));
      out += ",\"msg\":" + json_quote(step.meta.message);
      out += ",\"prov\":" + std::to_string(step.meta.provenance);
      out += ",\"from\":" + json_quote(step.meta.from_state);
      out += ",\"to\":" + json_quote(step.meta.to_state);
      out += ",\"atoms\":" +
             json_quote_array({step.meta.atoms.begin(), step.meta.atoms.end()});
      out += ",\"acts\":" +
             json_quote_array({step.meta.actions.begin(), step.meta.actions.end()});
      out += ",\"post\":[";
      for (std::size_t k = 0; k < step.post.size(); ++k) {
        if (k > 0) out += ',';
        out += std::to_string(step.post[k]);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += '}';
  return out;
}

std::optional<PropertyOutcome> decode_outcome(std::string_view json) {
  std::optional<Json> v = json_parse(json);
  if (!v || !v->is(Json::Type::kObject)) return std::nullopt;
  if (v->get_str("kind") != "outcome") return std::nullopt;

  PropertyOutcome out;
  PropertyResult& r = out.result;
  r.property_id = v->get_str("id");
  if (r.property_id.empty()) return std::nullopt;
  r.attack_id = v->get_str("attack");
  std::optional<PropertyResult::Status> status = status_from_token(v->get_str("status"));
  if (!status) return std::nullopt;
  r.status = *status;
  r.note = v->get_str("note");
  r.iterations = static_cast<int>(v->get_int("iters"));
  out.attempts = static_cast<int>(v->get_int("attempts", 1));
  std::optional<Failure> failure = supervise::parse_failure(v->get_str("failure"));
  if (!failure) return std::nullopt;
  out.failure = *failure;
  out.diagnostics = v->get_str("diag");

  if (const Json* refs = v->find("refs")) {
    if (!refs->is(Json::Type::kArray)) return std::nullopt;
    for (const Json& item : refs->arr) {
      if (!item.is(Json::Type::kString)) return std::nullopt;
      r.refinements.push_back(item.s);
    }
  }
  if (const Json* equiv = v->find("equiv")) {
    if (!equiv->is(Json::Type::kObject)) return std::nullopt;
    cpv::EquivalenceVerdict eq;
    eq.distinguishable = equiv->get_bool("dist");
    eq.victim_response = equiv->get_str("victim");
    eq.other_response = equiv->get_str("other");
    eq.reason = equiv->get_str("reason");
    r.equivalence = std::move(eq);
  }
  if (const Json* cex = v->find("cex")) {
    if (!cex->is(Json::Type::kObject)) return std::nullopt;
    mc::CounterExample trace;
    trace.loop_start = static_cast<int>(cex->get_int("loop", -1));
    const Json* steps = cex->find("steps");
    if (!steps || !steps->is(Json::Type::kArray)) return std::nullopt;
    for (const Json& item : steps->arr) {
      if (!item.is(Json::Type::kObject)) return std::nullopt;
      mc::TraceStep step;
      step.label = item.get_str("label");
      step.meta.actor = static_cast<mc::CommandMeta::Actor>(item.get_int("actor"));
      step.meta.kind = static_cast<mc::CommandMeta::Kind>(item.get_int("ckind"));
      step.meta.message = item.get_str("msg");
      step.meta.provenance = static_cast<int>(item.get_int("prov"));
      step.meta.from_state = item.get_str("from");
      step.meta.to_state = item.get_str("to");
      if (const Json* atoms = item.find("atoms")) {
        for (const Json& a : atoms->arr) step.meta.atoms.insert(a.s);
      }
      if (const Json* acts = item.find("acts")) {
        for (const Json& a : acts->arr) step.meta.actions.insert(a.s);
      }
      if (const Json* post = item.find("post")) {
        for (const Json& p : post->arr) {
          if (!p.is(Json::Type::kInt)) return std::nullopt;
          step.post.push_back(static_cast<std::int32_t>(p.i));
        }
      }
      trace.steps.push_back(std::move(step));
    }
    r.counterexample = std::move(trace);
  }
  return out;
}

// --- The supervisor ---------------------------------------------------------

namespace {

/// min over the positive operands (0 = "unbounded" on either side).
template <typename T>
T min_bound(T a, T b) {
  return a <= 0 ? b : b <= 0 ? a : std::min(a, b);
}

Failure classify(const PropertyResult& r) {
  if (r.status != PropertyResult::Status::kInconclusive) return Failure::kNone;
  const mc::CheckStats& s = r.last_stats;
  if (s.cancelled || r.note.find("cancelled") != std::string::npos) {
    return Failure::kCancelled;
  }
  if (s.mem_hit) return Failure::kMemCeiling;
  if (s.deadline_hit || r.note.find("wall-clock") != std::string::npos) {
    return Failure::kDeadline;
  }
  return Failure::kBudget;
}

/// An outcome the property's search never produced: an inconclusive row
/// carrying the containment class.
PropertyOutcome failed_outcome(const PropertyDef& prop, Failure failure, std::string diagnostics,
                               std::string note) {
  PropertyOutcome out;
  out.failure = failure;
  out.diagnostics = std::move(diagnostics);
  out.result.status = PropertyResult::Status::kInconclusive;
  out.result.property_id = prop.id;
  out.result.attack_id = prop.attack_id;
  out.result.note = std::move(note);
  return out;
}

PropertyOutcome exception_outcome(const PropertyDef& prop, const std::string& what) {
  return failed_outcome(prop, Failure::kException, what, supervise::worker_exception(what));
}

/// One property under the watchdog + retry/degrade ladder. Exceptions from
/// the MC/CEGAR loop (or the test fault hook) never escape.
PropertyOutcome run_one_property(const threat::ThreatModel& tm, const fsm::Fsm& ue_fsm,
                                 const PropertyDef& prop, const cpv::LteCryptoModel& crypto,
                                 const CegarOptions& base, const SupervisorOptions& options,
                                 const mc::ReachGraph* graph,
                                 std::optional<std::uint32_t> first_hit) {
  std::size_t max_states = base.max_states;
  double deadline = min_bound(base.max_seconds, options.deadline_per_property);
  const std::size_t ceiling = min_bound(base.max_visited_bytes, options.mem_ceiling_bytes);

  PropertyOutcome out;
  const auto attempt = [&](int k) {
    CegarOptions per_attempt = base;
    per_attempt.max_states = max_states;
    per_attempt.max_seconds = deadline;
    per_attempt.max_visited_bytes = ceiling;
    per_attempt.cancel = options.cancel;
    if (options.fault_hook) options.fault_hook(prop.id, k);
    out.result = check_property(tm, ue_fsm, prop, crypto, per_attempt, graph, first_hit);
    out.failure = classify(out.result);
    out.diagnostics = out.failure == Failure::kNone ? std::string() : out.result.note;
    return out.failure;
  };
  // Each retry after a resource trip gets a smaller search, so a property
  // that OOMs or wedges converges to an explicit kInconclusive.
  const auto degrade = [&] {
    max_states = std::max<std::size_t>(
        options.degrade_floor_states,
        static_cast<std::size_t>(static_cast<double>(max_states) * options.degrade_factor));
    if (deadline > 0) deadline = std::max(0.01, deadline * options.degrade_factor);
  };
  const auto contain = [&](const std::string& what) { out = exception_outcome(prop, what); };
  // A failed last attempt already stands as a structured kInconclusive.
  out.attempts =
      supervise::run_ladder(options, "supervisor", &out.result.note, attempt, contain, degrade)
          .attempts;
  return out;
}

/// One model's state while a run is in flight: what is left to verify,
/// which outcomes are in, and its graph with the scan's answers.
struct ModelState {
  std::vector<std::size_t> work;
  std::vector<char> done;
  std::optional<mc::ReachGraph> graph;
  std::vector<std::optional<std::uint32_t>> first_hit;
};

/// Builds `model`'s shared reachable graph under the budgets of one
/// property's first attempt (so a run whose budgets would truncate a single
/// search never trades it for a graph), then answers every never-claim's
/// first iteration with one scan of it (a property that is not applicable
/// returns before it reads its answer). A budget trip or a cancel leaves
/// `state` without a graph.
void build_graph(const SupervisedModel& model, const CegarOptions& cegar,
                 const SupervisorOptions& options, ModelState& state, SupervisedRun& run) {
  mc::CheckOptions build;
  build.max_states = cegar.max_states;
  build.max_seconds = min_bound(cegar.max_seconds, options.deadline_per_property);
  build.max_visited_bytes = min_bound(cegar.max_visited_bytes, options.mem_ceiling_bytes);
  build.cancel = options.cancel;
  mc::CheckStats stats;
  state.graph = mc::ReachGraph::build(model.tm.model, build, &stats);
  run.graph_build_seconds = stats.seconds;
  if (!state.graph) {
    if (!stats.cancelled) run.graph_note = "build stopped at a budget";
    return;
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::size_t> owner;
  std::vector<mc::EdgeMatch> matchers;
  for (std::size_t i : state.work) {
    if (model.selected[i]->kind != PropertyDef::Kind::kEdgeNever) continue;
    owner.push_back(i);
    matchers.push_back(model.selected[i]->bad.compile_match(model.tm));
  }
  const std::vector<std::uint32_t> hits = state.graph->first_hits(matchers);
  for (std::size_t k = 0; k < owner.size(); ++k) state.first_hit[owner[k]] = hits[k];
  run.graph_states = state.graph->states();
  run.graph_edges = state.graph->edges();
  run.scan_answered = owner.size();
  run.scan_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

SupervisedRun run_supervised(const threat::ThreatModel& tm, const fsm::Fsm& ue_fsm,
                             const std::vector<const PropertyDef*>& selected,
                             const cpv::LteCryptoModel::Options& crypto_options,
                             const CegarOptions& cegar, const SupervisorOptions& options) {
  return std::move(
      run_supervised({{tm, ue_fsm, selected}}, crypto_options, cegar, options).front());
}

std::vector<SupervisedRun> run_supervised(const std::vector<SupervisedModel>& models,
                                          const cpv::LteCryptoModel::Options& crypto_options,
                                          const CegarOptions& cegar,
                                          const SupervisorOptions& options) {
  std::vector<SupervisedRun> runs(models.size());
  const auto refuse = [&runs](const std::string& reason) {
    for (SupervisedRun& run : runs) {
      run.aborted = true;
      run.abort_reason = reason;
    }
    return runs;
  };
  if (models.size() > 1 && !options.journal_path.empty()) {
    return refuse("a run journal holds one model's outcomes; " +
                  std::to_string(models.size()) + " models were given");
  }

  // A refused run (journal locked by a live run, or written under other
  // options) verifies nothing.
  supervise::JournalSession journal;
  if (!journal.open(options, "analyze", options.options_hash)) return refuse(journal.refusal());

  std::map<std::string, PropertyOutcome> adopted;
  for (const std::string& payload : journal.resumed()) {
    std::optional<PropertyOutcome> outcome = decode_outcome(payload);
    if (outcome) adopted[outcome->result.property_id] = std::move(*outcome);
  }
  journal.rewrite(journal.resumed());
  std::mutex journal_mutex;

  std::vector<ModelState> states(models.size());
  std::size_t total_work = 0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const std::vector<const PropertyDef*>& selected = models[m].selected;
    SupervisedRun& run = runs[m];
    ModelState& state = states[m];
    run.outcomes.resize(selected.size());
    state.done.assign(selected.size(), 0);
    state.first_hit.resize(selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i) {
      auto it = adopted.find(selected[i]->id);
      if (it != adopted.end()) {
        run.outcomes[i] = it->second;
        run.outcomes[i].resumed = true;
        state.done[i] = 1;
        ++run.resumed;
      } else {
        state.work.push_back(i);
      }
    }
    total_work += state.work.size();
  }

  // Journal-first publication: an outcome is recorded durably before it is
  // considered done, so a crash between the two re-verifies (never loses)
  // at most the in-flight property. Cancelled outcomes are interruptions,
  // not verdicts — they are never journaled, so resume re-verifies them.
  auto record = [&](std::size_t m, std::size_t i, PropertyOutcome outcome) {
    if (outcome.failure != Failure::kCancelled && !options.journal_path.empty()) {
      std::lock_guard<std::mutex> lock(journal_mutex);
      journal.append(encode_outcome(outcome));
      journal.commit();
    }
    runs[m].outcomes[i] = std::move(outcome);
    states[m].done[i] = 1;
  };

  // One worker per job; at jobs=1 the single worker builds, then runs the
  // properties in selection order.
  ThreadPool pool(std::min(std::max<std::size_t>(1, options.jobs), total_work));
  const auto shed_if_cancelled = [&] {
    if (!options.cancel || !options.cancel->cancelled()) return false;
    // Shed everything not yet started; what it drops is reported as
    // cancelled below.
    pool.cancel_pending();
    return true;
  };
  // Verifiers are reused across properties (and models: a verifier depends
  // on crypto_options only) through a free-list (the cpv::Knowledge
  // saturation cache stays warm) but never shared concurrently.
  std::mutex crypto_mutex;
  std::vector<std::unique_ptr<cpv::LteCryptoModel>> idle_verifiers;
  const auto check = [&](std::size_t m, std::size_t i) {
    const PropertyDef& prop = *models[m].selected[i];
    // Catch-all even outside run_one_property: a throwing task would
    // reach std::terminate through the pool, taking down the whole run.
    try {
      if (shed_if_cancelled()) return;
      std::unique_ptr<cpv::LteCryptoModel> crypto;
      {
        std::lock_guard<std::mutex> lock(crypto_mutex);
        if (!idle_verifiers.empty()) {
          crypto = std::move(idle_verifiers.back());
          idle_verifiers.pop_back();
        }
      }
      if (!crypto) crypto = std::make_unique<cpv::LteCryptoModel>(crypto_options);
      const mc::ReachGraph* graph = states[m].graph ? &*states[m].graph : nullptr;
      PropertyOutcome outcome = run_one_property(models[m].tm, models[m].ue_fsm, prop, *crypto,
                                                 cegar, options, graph, states[m].first_hit[i]);
      {
        std::lock_guard<std::mutex> lock(crypto_mutex);
        idle_verifiers.push_back(std::move(crypto));
      }
      record(m, i, std::move(outcome));
    } catch (const std::exception& e) {
      record(m, i, exception_outcome(prop, e.what()));
    } catch (...) {
      record(m, i, exception_outcome(prop, "unknown exception type"));
    }
  };
  // A build task owns its model's graph and scan answers until it submits
  // the model's property tasks; they only read them. A build that throws
  // leaves the model on the per-property path, like a tripped budget.
  const auto build = [&](std::size_t m) {
    ModelState& state = states[m];
    SupervisedRun& run = runs[m];
    std::optional<std::string> failure;
    try {
      if (shed_if_cancelled()) return;
      if (options.build_fault_hook) options.build_fault_hook(m);
      build_graph(models[m], cegar, options, state, run);
    } catch (const std::exception& e) {
      failure = e.what();
    } catch (...) {
      failure = "unknown exception type";
    }
    if (failure) {
      // The scan's answers are written only after it returns, so none are
      // left behind.
      state.graph.reset();
      run.graph_note = "build failed: " + *failure;
    }
    for (std::size_t i : state.work) pool.submit([&check, m, i] { check(m, i); });
  };
  for (std::size_t m = 0; m < models.size(); ++m) {
    if (!states[m].work.empty()) pool.submit([&build, m] { build(m); });
  }
  pool.wait();

  for (std::size_t m = 0; m < models.size(); ++m) {
    SupervisedRun& run = runs[m];
    const std::vector<const PropertyDef*>& selected = models[m].selected;
    // Properties never started (cancelled run / shed tasks) still get a
    // structured outcome — the report has one row per selected property.
    for (std::size_t i = 0; i < selected.size(); ++i) {
      if (states[m].done[i]) continue;
      run.outcomes[i] = failed_outcome(*selected[i], Failure::kCancelled, "run cancelled",
                                       "cancelled before verification started");
      run.outcomes[i].attempts = 0;
    }
    for (const PropertyOutcome& outcome : run.outcomes) {
      if (outcome.failure == Failure::kCancelled) ++run.cancelled;
    }
    run.journal_records = journal.records();
    run.journal_error = journal.error().empty() ? journal.note() : journal.error();
  }
  return runs;
}

}  // namespace procheck::checker
