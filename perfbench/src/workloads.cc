#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "affinity.h"
#include "checker/prochecker.h"
#include "checker/report.h"
#include "diff/diff.h"
#include "diff/sources.h"
#include "diff/triage.h"
#include "instrument/trace_log.h"
#include "learner/lstar.h"
#include "net/remote_sul.h"
#include "net/wire.h"
#include "server_proc.h"
#include "stats.h"
#include "testing/conformance.h"
#include "timing_sul.h"

namespace perfbench {

namespace {

using procheck::checker::ImplementationReport;
using procheck::checker::PropertyResult;
using Clock = std::chrono::steady_clock;

constexpr int kJobs = 2;  // half the 4-core reference host; see BENCHMARK.json
constexpr const char* kPsk = "perfbench-psk";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read pinned answers " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// "" when equal, else how many lines are missing from / extra in `got`.
std::string compare_lines(const std::string& what, const std::string& expected,
                          const std::string& got) {
  if (expected == got) return "";
  const std::vector<std::string> e = lines_of(expected);
  const std::vector<std::string> g = lines_of(got);
  const std::multiset<std::string> es(e.begin(), e.end());
  const std::multiset<std::string> gs(g.begin(), g.end());
  std::size_t missing = 0;
  std::size_t extra = 0;
  for (const std::string& line : es) missing += gs.count(line) < es.count(line) ? 1 : 0;
  for (const std::string& line : gs) extra += es.count(line) < gs.count(line) ? 1 : 0;
  return what + " differs from the pinned answer (" + std::to_string(missing) + " lines missing, " +
         std::to_string(extra) + " extra)";
}

/// Sum of self time of spans named `prefix`* per traced op.
double self_per_op(const SpanRecorder& rec, const std::string& prefix, std::size_t ops) {
  if (ops == 0) return 0;
  const std::vector<double> self = rec.self_times();
  double total = 0;
  for (const Span& s : rec.spans()) {
    if (s.name.rfind(prefix, 0) == 0) total += self[s.id - 1];
  }
  return total / static_cast<double>(ops);
}

double per_op(double total, std::size_t ops) {
  return ops == 0 ? 0 : total / static_cast<double>(ops);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void put(std::map<std::string, Metric>& m, const std::string& name, double value) {
  for (const auto& [n, unit] : per_layer_metrics()) {
    if (n == name) {
      m[name] = Metric{value, unit};
      return;
    }
  }
  throw std::logic_error("unlisted per-layer metric " + name);
}

procheck::ue::StackProfile profile_by_index(int i) {
  switch (i) {
    case 0:
      return procheck::ue::StackProfile::cls();
    case 1:
      return procheck::ue::StackProfile::srsue();
    default:
      return procheck::ue::StackProfile::oai();
  }
}

// ---------------------------------------------------------------------------
// catalog-cls: one full-catalog analyze of the cls profile at jobs=2.
// ---------------------------------------------------------------------------

class CatalogWorkload final : public Workload {
 public:
  explicit CatalogWorkload(std::string answers_dir) : answers_dir_(std::move(answers_dir)) {}

  void setup() override {
    profile_ = procheck::ue::StackProfile::cls();
    expected_ = read_file(answers_dir_ + "/cls_verdicts.txt");
  }

  std::string op(std::size_t, SpanRecorder* rec) override {
    ImplementationReport report;
    if (rec == nullptr) {
      procheck::checker::AnalysisOptions options;
      options.jobs = kJobs;
      report = procheck::checker::ProChecker::analyze(profile_, options);
    } else {
      report = traced_analyze(*rec);
    }
    if (report.inconclusive_count() > 0) {
      return std::to_string(report.inconclusive_count()) + " inconclusive verdicts";
    }
    return compare_lines("cls verdict block", expected_,
                         procheck::checker::render_verdicts(report));
  }

  std::map<std::string, Metric> layer_metrics(const SpanRecorder& rec) override {
    std::map<std::string, Metric> m;
    const std::size_t n = ops_;
    put(m, "testing.conformance_s", self_per_op(rec, "testing.", n));
    put(m, "instrument.log_records", per_op(log_records_, n));
    put(m, "extractor.extract_s", self_per_op(rec, "extractor.", n));
    put(m, "extractor.transitions", per_op(transitions_, n));
    put(m, "threat.compose_s", self_per_op(rec, "threat.", n));
    put(m, "threat.commands", per_op(commands_, n));
    put(m, "mc.s", per_op(mc_seconds_, n));
    put(m, "mc.states", per_op(states_, n));
    put(m, "mc.states_per_verdict", ratio(states_, verdicts_));
    put(m, "mc.states_per_s", ratio(states_, mc_seconds_));
    put(m, "mc.bytes_per_state", ratio(last_bytes_, last_states_));
    put(m, "mc.peak_visited_mb", peak_visited_ / (1024.0 * 1024.0));
    put(m, "checker.property_p50_ms", median(property_s_) * 1e3);
    put(m, "checker.property_max_ms",
        property_s_.empty() ? 0 : *std::max_element(property_s_.begin(), property_s_.end()) * 1e3);
    put(m, "checker.cegar_iterations", per_op(iterations_, n));
    put(m, "checker.cegar_self_s", per_op(cegar_self_, n));
    put(m, "checker.supervise_s", per_op(supervise_s_, n));
    put(m, "checker.pool_util", ratio(busy_s_, kJobs * supervise_s_));
    put(m, "checker.start_lag_p50_ms", median(start_lag_s_) * 1e3);
    put(m, "cpv.judgements", per_op(judgements_, n));
    put(m, "cpv.judge_us", ratio(judge_s_, judge_calls_) * 1e6);
    return m;
  }

  void after_traced_op(std::size_t) override { replay_judgements(); }

  std::vector<std::pair<std::string, Metric>> named_metrics(
      const std::vector<double>& wall) override {
    return {{"analyze_s", {median(wall), "s"}}};
  }

 private:
  /// ProChecker::analyze, stage by stage in its order, with a span per call.
  ImplementationReport traced_analyze(SpanRecorder& rec) {
    namespace ck = procheck::checker;
    namespace ex = procheck::extractor;
    ImplementationReport report;
    report.profile_name = profile_.name;
    ++ops_;

    procheck::instrument::TraceLogger trace;
    {
      SpanRecorder::Scope s(rec, "testing.run_conformance");
      report.conformance = procheck::testing::run_conformance(profile_, trace);
    }
    report.log_records = trace.records().size();
    log_records_ += static_cast<double>(report.log_records);

    ex::Signatures sigs = ex::ue_signatures(profile_);
    ex::ExtractionOptions rich_opts;
    rich_opts.initial_state = "EMM_DEREGISTERED";
    {
      SpanRecorder::Scope s(rec, "extractor.extract");
      report.extracted = ex::extract(trace.records(), sigs, rich_opts);
    }
    ex::ExtractionOptions flat_opts = rich_opts;
    flat_opts.chain_substates = false;
    {
      SpanRecorder::Scope s(rec, "extractor.extract_basic");
      report.checking_model = ex::extract_basic(trace.records(), sigs, flat_opts);
    }
    transitions_ += static_cast<double>(report.checking_model.stats().transitions);

    std::optional<procheck::threat::ThreatModel> tm;
    {
      SpanRecorder::Scope s(rec, "threat.compose");
      tm.emplace(ck::ProChecker::build_threat_model(report.checking_model));
    }
    commands_ += static_cast<double>(tm->model.commands().size());

    const ck::AnalysisOptions options;  // analyze's defaults, jobs aside
    crypto_options_.usim_freshness_limit = profile_.sqn_freshness_limit.has_value();
    ck::CegarOptions cegar;
    cegar.max_states = options.max_states;
    cegar.max_iterations = options.max_cegar_iterations;
    cegar.max_seconds = options.max_seconds_per_property;
    std::vector<const ck::PropertyDef*> selected;
    for (const ck::PropertyDef& prop : ck::property_catalog()) selected.push_back(&prop);

    ck::SupervisorOptions sup;
    sup.retries = options.retries;
    sup.backoff_seconds = options.retry_backoff_seconds;
    sup.run_tag = profile_.name;
    sup.options_hash = ck::analysis_options_hash(options, profile_);
    sup.jobs = kJobs;
    // The supervisor's public start-of-attempt hook gives each property's
    // start on its worker; the next start on the same worker ends it.
    struct Mark {
      std::thread::id worker;
      std::string property;
      double at;
    };
    std::mutex marks_mu;
    std::vector<Mark> marks;
    sup.fault_hook = [&](const std::string& id, int) {
      const double at = rec.now();
      std::lock_guard<std::mutex> lock(marks_mu);
      marks.push_back({std::this_thread::get_id(), id, at});
    };

    const std::uint32_t sup_span = rec.open("checker.run_supervised");
    const double sup_start = rec.now();
    ck::SupervisedRun run =
        ck::run_supervised(*tm, report.checking_model, selected, crypto_options_, cegar, sup);
    rec.close(sup_span);
    const double sup_end = rec.span(sup_span).end;
    supervise_s_ += sup_end - sup_start;

    std::map<std::string, const PropertyResult*> result_of;
    for (const ck::PropertyOutcome& o : run.outcomes) result_of[o.result.property_id] = &o.result;
    std::map<std::thread::id, std::vector<const Mark*>> by_worker;
    for (const Mark& mk : marks) by_worker[mk.worker].push_back(&mk);
    for (auto& [worker, list] : by_worker) {
      std::sort(list.begin(), list.end(), [](const Mark* a, const Mark* b) { return a->at < b->at; });
      start_lag_s_.push_back(list.front()->at - sup_start);
      for (std::size_t k = 0; k < list.size(); ++k) {
        const PropertyResult* r = result_of.count(list[k]->property) ? result_of[list[k]->property]
                                                                      : nullptr;
        const double mc_s = r != nullptr ? r->total_seconds : 0;
        // A worker's last property has no later start mark: it ends after
        // its MC seconds (its CEGAR overhead beyond that is not observable).
        const double end = k + 1 < list.size() ? list[k + 1]->at
                                               : std::min(sup_end, list[k]->at + mc_s);
        const std::uint32_t prop = rec.add("checker.property", sup_span, list[k]->at, end);
        rec.add("mc.check", prop, list[k]->at, std::min(end, list[k]->at + mc_s));
        property_s_.push_back(end - list[k]->at);
        busy_s_ += end - list[k]->at;
        cegar_self_ += std::max(0.0, end - list[k]->at - mc_s);
      }
    }

    for (ck::PropertyOutcome& outcome : run.outcomes) {
      const PropertyResult& r = outcome.result;
      if (r.status == PropertyResult::Status::kAttack && !r.attack_id.empty()) {
        report.attacks_found.insert(r.attack_id);
      }
      mc_seconds_ += r.total_seconds;
      states_ += static_cast<double>(r.total_states);
      verdicts_ += 1;
      iterations_ += r.iterations;
      last_bytes_ += static_cast<double>(r.last_stats.visited_bytes);
      last_states_ += static_cast<double>(r.last_stats.states_explored);
      peak_visited_ = std::max(peak_visited_, static_cast<double>(r.peak_visited_bytes));
      if (r.counterexample) last_counterexamples_.push_back(*r.counterexample);
      report.results.push_back(r);
      report.outcomes.push_back(std::move(outcome));
    }
    return report;
  }

  /// cpv.judge_delivery replayed on every adversary-dependent step of the
  /// last traced op's counterexamples (the steps CEGAR submits to the CPV).
  void replay_judgements() {
    std::vector<const procheck::mc::CommandMeta*> steps;
    for (const procheck::mc::CounterExample& cex : last_counterexamples_) {
      for (const procheck::mc::TraceStep& step : cex.steps) {
        if (step.meta.kind != procheck::mc::CommandMeta::Kind::kDeliver) continue;
        if (step.meta.provenance == procheck::mc::kProvGenuine) continue;
        steps.push_back(&step.meta);
      }
    }
    judgements_ += static_cast<double>(steps.size());
    if (!steps.empty()) {
      const procheck::cpv::LteCryptoModel crypto(crypto_options_);
      constexpr int kReps = 200;  // one call is far below the clock's resolution
      const auto t0 = Clock::now();
      for (int rep = 0; rep < kReps; ++rep) {
        for (const procheck::mc::CommandMeta* meta : steps) {
          feasible_ += crypto.judge_delivery(*meta).feasible ? 1 : 0;
        }
      }
      judge_s_ += seconds_since(t0);
      judge_calls_ += static_cast<double>(kReps) * static_cast<double>(steps.size());
    }
    last_counterexamples_.clear();
  }

  std::string answers_dir_;
  procheck::ue::StackProfile profile_;
  std::string expected_;
  procheck::cpv::LteCryptoModel::Options crypto_options_;
  std::vector<procheck::mc::CounterExample> last_counterexamples_;
  std::size_t ops_ = 0;
  double log_records_ = 0, transitions_ = 0, commands_ = 0;
  double mc_seconds_ = 0, states_ = 0, verdicts_ = 0, iterations_ = 0;
  double last_bytes_ = 0, last_states_ = 0, peak_visited_ = 0;
  double supervise_s_ = 0, busy_s_ = 0, cegar_self_ = 0;
  std::vector<double> property_s_, start_lag_s_;
  double judgements_ = 0, judge_s_ = 0, judge_calls_ = 0;
  std::size_t feasible_ = 0;  // consumes every verdict, so no call is elided
};

// ---------------------------------------------------------------------------
// diff-srsue-oai: `diff profile:srsue profile:oai`, triaged at jobs=2.
// ---------------------------------------------------------------------------

/// The candidate properties triage model-checks, selected the way
/// diff/triage.cc selects them (that set is not exposed by triage()). Each
/// traced op checks that every finding's property is in it, so a change to
/// triage's selection fails the run instead of skewing diff.triage_checks.
std::set<std::string> triage_candidates(const procheck::diff::DiffReport& report,
                              const procheck::diff::Side& left,
                              const procheck::diff::Side& right) {
  namespace ck = procheck::checker;
  namespace mc = procheck::mc;
  auto metas_of = [](const procheck::fsm::Transition& t) {
    procheck::threat::ConditionSplit cond = procheck::threat::split_conditions(t.conditions);
    std::vector<mc::CommandMeta> out;
    mc::CommandMeta base;
    base.actor = mc::CommandMeta::Actor::kUe;
    base.message = cond.message;
    base.atoms = t.conditions;
    base.actions = t.actions;
    base.from_state = t.from;
    base.to_state = t.to;
    if (cond.is_trigger || cond.message.empty()) {
      base.kind = mc::CommandMeta::Kind::kInternal;
      out.push_back(base);
      return out;
    }
    base.kind = mc::CommandMeta::Kind::kDeliver;
    for (std::int32_t prov : procheck::threat::admissible_provenance(t)) {
      base.provenance = prov;
      out.push_back(base);
    }
    return out;
  };
  auto matches = [](const ck::PropertyDef& prop, const std::vector<mc::CommandMeta>& metas) {
    for (const mc::CommandMeta& m : metas) {
      if (prop.kind == ck::PropertyDef::Kind::kEdgeNever ? prop.bad.matches_meta(m)
                                                         : prop.trigger.matches_meta(m) ||
                                                               prop.response.matches_meta(m)) {
        return true;
      }
    }
    return false;
  };
  auto edge_metas = [&](const procheck::fsm::Fsm& machine, const std::string& label) {
    for (const procheck::fsm::Transition& t : machine.transitions()) {
      if (t.label() == label) return metas_of(t);
    }
    return std::vector<mc::CommandMeta>();
  };
  std::set<std::string> candidates;
  for (const procheck::diff::Divergence& d : report.divergences) {
    for (const auto& metas : {edge_metas(left.machine, d.left_edge),
                              edge_metas(right.machine, d.right_edge)}) {
      for (const ck::PropertyDef& prop : ck::property_catalog()) {
        if (matches(prop, metas)) candidates.insert(prop.id);
      }
    }
  }
  for (const ck::PropertyDef& prop : ck::property_catalog()) {
    if (prop.attack_id.empty() || prop.kind != ck::PropertyDef::Kind::kEdgeNever) continue;
    bool deviation = false;
    for (const std::string& a : prop.bad.atoms_all) {
      deviation = deviation || procheck::threat::is_replay_tolerant_atom(a) ||
                  a == "plain_accepted_after_ctx=1";
    }
    if (!deviation) continue;
    bool both = true;
    for (const procheck::diff::Side* side : {&left, &right}) {
      bool hit = false;
      for (const procheck::fsm::Transition& t : side->machine.transitions()) {
        hit = hit || matches(prop, metas_of(t));
      }
      both = both && hit;
    }
    if (both) candidates.insert(prop.id);
  }
  return candidates;
}

class DiffWorkload final : public Workload {
 public:
  explicit DiffWorkload(std::string answers_dir) : answers_dir_(std::move(answers_dir)) {}

  void setup() override {
    left_profile_ = procheck::ue::StackProfile::srsue();
    right_profile_ = procheck::ue::StackProfile::oai();
    expected_ = read_file(answers_dir_ + "/srsue_oai_findings.txt");
  }

  std::string op(std::size_t, SpanRecorder* rec) override {
    namespace df = procheck::diff;
    df::TriageOptions topts;
    topts.jobs = kJobs;
    df::DiffReport report;
    if (rec == nullptr) {
      const df::SideResult left = df::resolve_side("profile:srsue");
      const df::SideResult right = df::resolve_side("profile:oai");
      if (!left.ok || !right.ok) return "side did not resolve: " + left.error + right.error;
      report = df::diff_machines(left.side, right.side);
      df::triage(report, left.side, right.side, topts);
    } else {
      ++ops_;
      const df::Side left = traced_resolve(*rec, "profile:srsue", left_profile_);
      const df::Side right = traced_resolve(*rec, "profile:oai", right_profile_);
      {
        SpanRecorder::Scope s(*rec, "diff.diff_machines");
        report = df::diff_machines(left, right);
      }
      product_pairs_ += static_cast<double>(report.product_pairs);
      {
        SpanRecorder::Scope s(*rec, "diff.triage");
        df::triage(report, left, right, topts);
      }
      const std::set<std::string> candidates = triage_candidates(report, left, right);
      for (const df::Finding& f : report.findings) {
        if (candidates.count(f.property_id) == 0) {
          return "finding " + f.property_id + " is not among the replicated triage candidates";
        }
      }
      // Both sides model-check every candidate.
      triage_checks_ += 2.0 * static_cast<double>(candidates.size());
    }
    if (report.inconclusive) return "diff inconclusive: " + report.note;
    const std::string text = report.render();
    const std::size_t at = text.find("findings:");
    return compare_lines("srsue-vs-oai findings block", expected_,
                         at == std::string::npos ? "" : text.substr(at));
  }

  std::map<std::string, Metric> layer_metrics(const SpanRecorder& rec) override {
    std::map<std::string, Metric> m;
    const std::size_t n = ops_;
    put(m, "testing.conformance_s", self_per_op(rec, "testing.", n));
    put(m, "instrument.log_records", per_op(log_records_, n));
    put(m, "extractor.extract_s", self_per_op(rec, "extractor.", n));
    put(m, "extractor.transitions", per_op(transitions_, n));
    // The whole resolve_side span, not only its own self time.
    double resolve = 0;
    for (const Span& s : rec.spans()) {
      if (s.name == "diff.resolve_side") resolve += s.duration();
    }
    put(m, "diff.resolve_s", per_op(resolve, n));
    put(m, "diff.walk_s", self_per_op(rec, "diff.diff_machines", n));
    put(m, "diff.product_pairs", per_op(product_pairs_, n));
    put(m, "diff.triage_s", self_per_op(rec, "diff.triage", n));
    put(m, "diff.triage_checks", per_op(triage_checks_, n));
    return m;
  }

  std::vector<std::pair<std::string, Metric>> named_metrics(
      const std::vector<double>& wall) override {
    return {{"diff_s", {median(wall), "s"}}};
  }

 private:
  /// diff::resolve_side for a profile: side, stage by stage.
  procheck::diff::Side traced_resolve(SpanRecorder& rec, const std::string& spec,
                                      const procheck::ue::StackProfile& profile) {
    SpanRecorder::Scope outer(rec, "diff.resolve_side");
    procheck::instrument::TraceLogger trace;
    {
      SpanRecorder::Scope s(rec, "testing.run_conformance");
      procheck::testing::run_conformance(profile, trace);
    }
    std::vector<procheck::instrument::LogRecord> records;
    {
      SpanRecorder::Scope s(rec, "instrument.parse_log");
      records = procheck::instrument::parse_log(trace.text());
    }
    log_records_ += static_cast<double>(records.size());
    procheck::extractor::ExtractionOptions opts;
    opts.initial_state = "EMM_DEREGISTERED";
    opts.chain_substates = false;
    procheck::diff::Side side;
    side.name = spec;
    {
      SpanRecorder::Scope s(rec, "extractor.extract_basic");
      side.machine = procheck::extractor::extract_basic(
          records, procheck::extractor::ue_signatures(profile), opts);
    }
    transitions_ += static_cast<double>(side.machine.stats().transitions);
    return side;
  }

  std::string answers_dir_;
  procheck::ue::StackProfile left_profile_, right_profile_;
  std::string expected_;
  std::size_t ops_ = 0;
  double log_records_ = 0, transitions_ = 0, product_pairs_ = 0, triage_checks_ = 0;
};

// ---------------------------------------------------------------------------
// learn-remote: one converged L* learn per op through a fresh RemoteUeSul
// session against per-profile SulServer processes.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kDefaultLearnSeed = 0xC0FFEE;  // LearnOptions' default
constexpr std::uint64_t kPoolSeed = 0x5EED9001;

std::uint64_t pool_seed(int profile, int slot) {
  // Slot 0 is the learner's default seed, whose machine sizes are pinned.
  return slot == 0 ? kDefaultLearnSeed : derive_learn_seed(kPoolSeed, profile, slot);
}

/// Canonical text of a learned machine (what "byte-identical" compares).
std::string machine_text(const procheck::learner::LearnResult& r) {
  std::string out = "initial " + std::to_string(r.machine.initial) + " states " +
                    std::to_string(r.machine.state_count) + "\n";
  for (const auto& [key, value] : r.machine.delta) {
    out += std::to_string(key.first) + ' ' + key.second + " -> " + std::to_string(value.first) +
           ' ' + value.second + '\n';
  }
  out += "mq " + std::to_string(r.membership_queries) + " eq " +
         std::to_string(r.equivalence_queries) + " cex " + std::to_string(r.counterexamples) +
         " hits " + std::to_string(r.cache_hits) + " prefix_hits " +
         std::to_string(r.cache_prefix_hits) + " misses " + std::to_string(r.cache_misses) + "\n";
  return out;
}

double children_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

class LearnWorkload final : public Workload {
 public:
  LearnWorkload(std::uint64_t seed, std::string answers_dir)
      : seed_(seed), answers_dir_(std::move(answers_dir)) {}

  void setup() override {
    pinned_.clear();
    std::istringstream in(read_file(answers_dir_ + "/learned_machines.txt"));
    std::string name;
    int states = 0;
    std::size_t transitions = 0;
    while (in >> name >> states >> transitions) pinned_[name] = {states, transitions};
    for (int p = 0; p < 3; ++p) {
      if (pinned_.count(profile_by_index(p).name) == 0) {
        throw std::runtime_error("learned_machines.txt has no entry for " +
                                 profile_by_index(p).name);
      }
    }
    cpu_base_ = children_cpu_seconds();
    // The learner and the servers it forks share one CPU (affinity.h). A
    // pipelined batch window therefore never overlaps client and server
    // work; with them on two CPUs, the idle CPU's wake-up on every batch
    // made learn latency spread 43% between runs on a loaded host.
    pin_.emplace();
    for (int p = 0; p < 3; ++p) {
      servers_.push_back(std::make_unique<ServerProcess>(profile_by_index(p), kPsk));
    }
  }

  void teardown() override {
    // Each child needs up to one accept poll interval to stop: stop them
    // all at once, then wait.
    for (auto& server : servers_) server->request_stop();
    for (auto& server : servers_) {
      if (server->stop() != 0) server_errors_ = true;
    }
    servers_.clear();
  }

  std::string op(std::size_t index, SpanRecorder* rec) override {
    const LearnPlan plan = learn_plan(seed_, index);
    procheck::net::RemoteSulOptions ropts;
    ropts.port = servers_[static_cast<std::size_t>(plan.profile)]->port();
    ropts.psk = kPsk;
    procheck::learner::LearnOptions lopts;
    lopts.seed = plan.learn_seed;

    Done done{plan.profile, plan.pool_slot, ""};
    procheck::learner::LearnResult result;
    // The session span covers the client's whole life: its lazy connect
    // happens inside the first SUL call, its goodbye in the destructor.
    const std::uint32_t session = rec != nullptr ? rec->open("net.session") : 0;
    {
      procheck::net::RemoteUeSul remote(ropts);
      if (rec == nullptr) {
        result = procheck::learner::learn_mealy(remote, lopts);
      } else {
        TimingSul timing(remote, *rec);
        const std::uint32_t learn = rec->open("learner.learn_mealy");
        result = procheck::learner::learn_mealy(timing, lopts);
        rec->close(learn);
        traced_.learn_s += rec->span(learn).duration();
        traced_.inside_s += timing.inside_seconds();
        traced_.ops += 1;
        traced_.queries += static_cast<double>(result.membership_queries);
        traced_.answered += static_cast<double>(result.cache_hits + result.cache_prefix_hits);
        traced_.lookups += static_cast<double>(result.cache_hits + result.cache_prefix_hits +
                                               result.cache_misses);
        traced_.batches += static_cast<double>(result.batch_queries);
        traced_.batched += static_cast<double>(result.batched_words);
        const TimingSul::Calls& c = timing.calls();
        batch_rtt_s_.insert(batch_rtt_s_.end(), c.batch.begin(), c.batch.end());
        word_rtt_s_.insert(word_rtt_s_.end(), c.word.begin(), c.word.end());
        last_words_ = timing.take_words();
      }
      const procheck::net::RemoteSulStats st = remote.stats();
      retries_ += static_cast<double>(st.reconnects + st.rpc_timeouts + st.framing_errors);
      // Recorded before the session's memory is released: the allocator's
      // deferred cleanup of it then lands in later program calls, not here.
      done.text = machine_text(result);
    }
    if (rec != nullptr) rec->close(session);
    queries_.push_back(static_cast<double>(result.membership_queries));
    done_.push_back(std::move(done));
    last_profile_ = plan.profile;

    if (result.inconclusive) return "learn inconclusive: " + result.note;
    if (!result.converged) return "learn did not converge";
    if (plan.pool_slot == 0) {
      const auto& [states, transitions] = pinned_.at(profile_by_index(plan.profile).name);
      const std::size_t learned = result.machine.delta.size();
      if (result.machine.state_count != states || learned != transitions) {
        return profile_by_index(plan.profile).name + " learned " +
               std::to_string(result.machine.state_count) + " states / " +
               std::to_string(learned) + " transitions, pinned " +
               std::to_string(states) + " / " + std::to_string(transitions);
      }
    }
    return "";
  }

  void after_traced_op(std::size_t) override {
    for (auto& word : last_words_) {
      if (replay_words_.size() >= kReplayWords) break;
      replay_words_.emplace_back(last_profile_, std::move(word));
    }
    last_words_.clear();
    // Session set-up cost: a fresh session's connect + PSK handshake + one
    // empty-word round trip, once the learn's session has been released.
    ServerProcess& server = *servers_[static_cast<std::size_t>(last_profile_)];
    server.wait_idle();
    procheck::net::RemoteSulOptions ropts;
    ropts.port = server.port();
    ropts.psk = kPsk;
    const auto t0 = Clock::now();
    {
      procheck::net::RemoteUeSul probe(ropts);
      probe.query_word({});
      connect_s_.push_back(seconds_since(t0));
    }
    server.wait_idle();
  }

  std::vector<std::pair<std::size_t, std::string>> verify() override {
    // Every learned machine must be byte-identical (machine and query
    // counters) to an in-process learn_mealy with the same seed.
    std::map<std::pair<int, int>, std::string> reference;
    std::vector<std::pair<std::size_t, std::string>> failures;
    for (std::size_t i = 0; i < done_.size(); ++i) {
      const Done& d = done_[i];
      auto key = std::make_pair(d.profile, d.slot);
      if (reference.count(key) == 0) {
        procheck::learner::UeSul local(profile_by_index(d.profile));
        procheck::learner::LearnOptions lopts;
        lopts.seed = pool_seed(d.profile, d.slot);
        reference[key] = machine_text(procheck::learner::learn_mealy(local, lopts));
      }
      if (reference[key] != d.text) {
        failures.emplace_back(i, "remote learn differs from the in-process learn with seed " +
                                     std::to_string(pool_seed(d.profile, d.slot)));
      }
    }
    if (server_errors_) failures.emplace_back(done_.size(), "a SUL server reported session errors");
    return failures;
  }

  std::size_t timed_samples(std::size_t n) const override {
    constexpr std::size_t kCycle = 3 * kLearnPool;
    return n >= kCycle ? n - n % kCycle : n;
  }

  double external_cpu_seconds() override { return children_cpu_seconds() - cpu_base_; }

  std::map<std::string, Metric> layer_metrics(const SpanRecorder&) override {
    std::map<std::string, Metric> m;
    const double n = traced_.ops;
    put(m, "learner.self_s", ratio(traced_.learn_s - traced_.inside_s, n));
    put(m, "learner.membership_queries", ratio(traced_.queries, n));
    put(m, "learner.cache_answered_frac", ratio(traced_.answered, traced_.lookups));
    put(m, "learner.words_per_batch", ratio(traced_.batched, traced_.batches));
    put(m, "learner.queries_per_s", ratio(traced_.queries, traced_.learn_s));
    put(m, "net.batch_rtt_p50_us", percentile(batch_rtt_s_, 50) * 1e6);
    put(m, "net.batch_rtt_p99_us", percentile(batch_rtt_s_, 99) * 1e6);
    put(m, "net.word_rtt_p50_us", percentile(word_rtt_s_, 50) * 1e6);
    put(m, "net.connect_ms", median(connect_s_) * 1e3);
    ServerCounters total;
    for (auto& server : servers_) {
      const ServerCounters c = server->counters();
      total.word_queries += c.word_queries;
      total.batched_words += c.batched_words;
      total.prefix_hits += c.prefix_hits;
      total.bytes_in += c.bytes_in;
      total.bytes_out += c.bytes_out;
    }
    const double words = static_cast<double>(total.word_queries + total.batched_words);
    put(m, "net.bytes_per_word", ratio(static_cast<double>(total.bytes_in + total.bytes_out), words));
    put(m, "net.server_prefix_hit_frac",
        ratio(static_cast<double>(total.prefix_hits), static_cast<double>(total.batched_words)));
    put(m, "net.codec_ns_per_word", codec_ns_per_word());
    put(m, "net.retries", ratio(retries_, static_cast<double>(done_.size())));
    put(m, "ue.word_us", ue_word_us());
    return m;
  }

  std::vector<std::pair<std::string, Metric>> named_metrics(
      const std::vector<double>& wall) override {
    const TailSummary t = summarize(wall);
    double queries = 0;
    double seconds = 0;
    for (std::size_t i = 0; i < wall.size(); ++i) {
      queries += queries_[i];
      seconds += wall[i];
    }
    return {{"learn_p50_ms", {t.p50 * 1e3, "ms"}},
            {"learn_p90_ms", {percentile(wall, 90) * 1e3, "ms"}},
            {"queries_per_s", {ratio(queries, seconds), "1/s"}}};
  }

 private:
  static constexpr std::size_t kReplayWords = 4000;

  /// Wire-codec cost per word: each traced learn's words, cut into batches
  /// of the default size, through encode_batch + encode_frame and back.
  double codec_ns_per_word() const {
    namespace net = procheck::net;
    std::vector<std::vector<std::string>> batch;
    std::size_t words = 0;
    std::size_t ok = 0;
    const auto t0 = Clock::now();
    auto flush = [&] {
      net::Frame f;
      f.type = net::FrameType::kQueryBatch;
      f.payload = net::encode_batch(batch);
      const net::Decoded d = net::decode_frame(net::encode_frame(f));
      if (d.status == net::DecodeStatus::kFrame &&
          net::decode_batch(d.frame.payload, net::kMaxBatchWords)) {
        ++ok;
      }
      words += batch.size();
      batch.clear();
    };
    for (const auto& [profile, word] : replay_words_) {
      batch.push_back(word);
      if (batch.size() == static_cast<std::size_t>(net::kDefaultBatchWords)) flush();
    }
    if (!batch.empty()) flush();
    const double s = seconds_since(t0);
    return ok == 0 ? 0 : s * 1e9 / static_cast<double>(words);
  }

  /// In-process UeSul::query_word on the words the traced learns sent.
  double ue_word_us() const {
    std::vector<std::unique_ptr<procheck::learner::UeSul>> suls;
    for (int p = 0; p < 3; ++p) {
      suls.push_back(std::make_unique<procheck::learner::UeSul>(profile_by_index(p)));
    }
    std::size_t outputs = 0;
    const auto t0 = Clock::now();
    for (const auto& [profile, word] : replay_words_) {
      outputs += suls[static_cast<std::size_t>(profile)]->query_word(word).size();
    }
    const double s = seconds_since(t0);
    return outputs == 0 ? 0 : s * 1e6 / static_cast<double>(replay_words_.size());
  }

  struct Done {
    int profile;
    int slot;
    std::string text;  // machine_text() of the learn
  };
  struct TracedTotals {
    double ops = 0, learn_s = 0, inside_s = 0, queries = 0, answered = 0, lookups = 0;
    double batches = 0, batched = 0;
  };

  std::uint64_t seed_;
  std::string answers_dir_;
  std::map<std::string, std::pair<int, std::size_t>> pinned_;
  std::optional<OneCpu> pin_;
  std::vector<std::unique_ptr<ServerProcess>> servers_;
  bool server_errors_ = false;
  double cpu_base_ = 0;
  std::vector<Done> done_;
  std::vector<double> queries_;
  int last_profile_ = 0;
  TracedTotals traced_;
  std::vector<double> batch_rtt_s_, word_rtt_s_, connect_s_;
  std::vector<std::pair<int, std::vector<std::string>>> replay_words_;
  std::vector<std::vector<std::string>> last_words_;  // the last traced learn's words
  double retries_ = 0;
};

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"testing.conformance_s", "s"},
      {"instrument.log_records", "count"},
      {"extractor.extract_s", "s"},
      {"extractor.transitions", "count"},
      {"threat.compose_s", "s"},
      {"threat.commands", "count"},
      {"mc.s", "s"},
      {"mc.states", "count"},
      {"mc.states_per_verdict", "count"},
      {"mc.states_per_s", "1/s"},
      {"mc.bytes_per_state", "B"},
      {"mc.peak_visited_mb", "MiB"},
      {"checker.property_p50_ms", "ms"},
      {"checker.property_max_ms", "ms"},
      {"checker.cegar_iterations", "count"},
      {"checker.cegar_self_s", "s"},
      {"checker.supervise_s", "s"},
      {"checker.pool_util", "ratio"},
      {"checker.start_lag_p50_ms", "ms"},
      {"cpv.judgements", "count"},
      {"cpv.judge_us", "us"},
      {"diff.resolve_s", "s"},
      {"diff.walk_s", "s"},
      {"diff.product_pairs", "count"},
      {"diff.triage_s", "s"},
      {"diff.triage_checks", "count"},
      {"learner.self_s", "s"},
      {"learner.membership_queries", "count"},
      {"learner.cache_answered_frac", "ratio"},
      {"learner.words_per_batch", "count"},
      {"learner.queries_per_s", "1/s"},
      {"net.batch_rtt_p50_us", "us"},
      {"net.batch_rtt_p99_us", "us"},
      {"net.word_rtt_p50_us", "us"},
      {"net.connect_ms", "ms"},
      {"net.bytes_per_word", "B"},
      {"net.server_prefix_hit_frac", "ratio"},
      {"net.codec_ns_per_word", "ns"},
      {"net.retries", "count"},
      {"ue.word_us", "us"},
  };
  return kMetrics;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& answers_dir) {
  if (name == "catalog-cls") return std::make_unique<CatalogWorkload>(answers_dir);
  if (name == "diff-srsue-oai") return std::make_unique<DiffWorkload>(answers_dir);
  if (name == "learn-remote") return std::make_unique<LearnWorkload>(seed, answers_dir);
  return nullptr;
}

LearnPlan learn_plan(std::uint64_t workload_seed, std::size_t index) {
  LearnPlan plan;
  plan.profile = static_cast<int>(index % 3);
  const std::uint64_t rotation = derive_learn_seed(workload_seed, plan.profile, 0) % kLearnPool;
  plan.pool_slot = static_cast<int>((rotation + index / 3) % kLearnPool);
  plan.learn_seed = pool_seed(plan.profile, plan.pool_slot);
  return plan;
}

}  // namespace perfbench
