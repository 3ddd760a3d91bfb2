// prochecker — command-line driver for the full pipeline.
//
// Subcommands:
//   instrument <source-file> [--header <header-file>]
//       Source-to-source instrumentation of an external codebase (prints
//       the instrumented translation unit).
//   conformance --profile <cls|srsue|oai> [--log <file>]
//       Runs the conformance suite against the selected stack and writes
//       the information-rich execution log.
//   extract --profile <cls|srsue|oai> [--log <file>] [--dot] [--basic]
//       Extracts the FSM (from a log file, or from a fresh conformance run
//       when --log is omitted) and prints its statistics or DOT rendering.
//   analyze --profile <cls|srsue|oai> [--properties S01,P01,...]
//           [--freshness-limit <L>]
//       The end-to-end 62-property analysis; prints verdicts and attack
//       traces.
//   chaos --profile <cls|srsue|oai> [--intensity <p>]
//       Re-runs the conformance suite under each fault-injection regime and
//       reports degradation vs the fault-free baseline.
//   serve-sul --profile <cls|srsue|oai> [--port <N>] [--bind <addr>] [--psk <key>]
//       Exposes the profile's UE stack as a multi-session remote SUL over
//       the framed wire protocol (DESIGN.md §12–13) for `learn --remote` /
//       `conformance --remote` on the other end. Each connection gets its
//       own isolated SUL session; admission, quotas, PSK auth, and graceful
//       drain (first ctrl-c) are configurable.
//   learn --profile <cls|srsue|oai> [--remote <host:port>] [--seed <S>]
//         [--journal <file>] [--resume <file>] [--arbitrate <k/n>]
//         [--deadline <S>] [--retries <N>]
//       Active L* learning of the UE Mealy machine — in-process by default,
//       or against a serve-sul endpoint with --remote (fault-tolerant
//       transport; degraded runs end inconclusive, never hang). Runs under
//       the learning supervisor (DESIGN.md §15): a crash-safe observation
//       journal makes `--resume` continue byte-identically from any kill
//       point, contradictory answers are arbitrated k-of-n, and watchdogs
//       bound every attempt.
//   diff <left> <right> [--json] [--dot] [--jobs <N>]
//       Differential cross-implementation analysis (DESIGN.md §16): builds
//       one FSM per side (profile:<name>, log:[<profile>:]<path>,
//       learn:<name>, or remote:<host:port>), walks the synchronous product
//       to enumerate divergences with minimal distinguishing sequences, and
//       triages each against the 62-property catalog. Exit 0 when
//       behaviorally equivalent, 1 on divergence, 3 when a side or the walk
//       was inconclusive.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/prochecker.h"
#include "checker/report.h"
#include "common/strings.h"
#include "diff/report_json.h"
#include "diff/sources.h"
#include "diff/triage.h"
#include "common/thread_pool.h"
#include "extractor/extractor.h"
#include "instrument/source_instrumentor.h"
#include "learner/learn_supervisor.h"
#include "learner/lstar.h"
#include "net/remote_conformance.h"
#include "net/remote_sul.h"
#include "net/sul_server.h"
#include "testing/chaos.h"
#include "testing/conformance.h"

namespace {

using namespace procheck;

int usage() {
  std::fprintf(stderr,
               "usage: prochecker"
               " <instrument|conformance|extract|analyze|chaos|serve-sul|learn|diff>"
               " [options]\n"
               "  instrument <source-file> [--header <header-file>]\n"
               "  conformance --profile <cls|srsue|oai> [--log <file>] [--remote <host:port>]"
               " [--psk <key>]\n"
               "  extract --profile <cls|srsue|oai> [--log <file>] [--dot] [--basic]"
               " [--recovery]\n"
               "  analyze --profile <cls|srsue|oai> [--properties <ids>]"
               " [--freshness-limit <L>] [--max-states <N>] [--budget-seconds <S>]"
               " [--jobs <N>]\n"
               "          [--retries <N>] [--deadline-per-property <S>]"
               " [--mem-ceiling-mb <M>] [--journal <file>] [--resume <file>]\n"
               "  chaos --profile <cls|srsue|oai> [--intensity <p>] [--jobs <N>]\n"
               "  serve-sul --profile <cls|srsue|oai> [--port <N>] [--bind <addr>]"
               " [--psk <key>] [--max-sessions <N>]\n"
               "            [--quota-queries <N>] [--quota-bytes <N>] [--quota-seconds <S>]"
               " [--idle-timeout <S>]\n"
               "            [--drain-seconds <S>] [--stats]\n"
               "  learn --profile <cls|srsue|oai> [--remote <host:port>] [--psk <key>]"
               " [--seed <S>] [--dot]\n"
               "        [--journal <file>] [--resume <file>] [--arbitrate <k/n>]"
               " [--deadline <S>] [--retries <N>]\n"
               "        (--resume continues a killed run from its journal;"
               " --arbitrate 0/0 disables k-of-n re-querying)\n"
               "  diff <left> <right> [--json] [--dot] [--jobs <N>] [--psk <key>]\n"
               "       [--max-pairs <N>] [--max-states <N>]"
               " [--deadline-per-property <S>] [--retries <N>]\n"
               "       (sides: profile:<cls|srsue|oai>, log:[<profile>:]<path>,"
               " learn:<name>, remote:<host:port>;\n"
               "        exit 0 equivalent, 1 divergent, 3 inconclusive)\n");
  return 2;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  static Args parse(int argc, char** argv, int from) {
    Args args;
    for (int i = from; i < argc; ++i) {
      std::string a = argv[i];
      if (starts_with(a, "--")) {
        std::string key = a.substr(2);
        if (key == "dot" || key == "basic" || key == "traces" || key == "dot-traces" ||
            key == "recovery" || key == "stats" || key == "json") {
          args.options[key] = "1";
        } else if (i + 1 < argc) {
          args.options[key] = argv[++i];
        }
      } else {
        args.positional.push_back(std::move(a));
      }
    }
    return args;
  }

  std::string get(const std::string& key, const std::string& dflt = "") const {
    auto it = options.find(key);
    return it == options.end() ? dflt : it->second;
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

// Numeric option parsing: a malformed value is a usage error, not a crash.
std::optional<std::uint64_t> parse_u64(const std::string& text) {
  try {
    std::size_t pos = 0;
    std::uint64_t v = std::stoull(text, &pos);
    if (pos != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> parse_double(const std::string& text) {
  try {
    std::size_t pos = 0;
    double v = std::stod(text, &pos);
    if (pos != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

int bad_option(const char* flag, const std::string& value) {
  std::fprintf(stderr, "invalid value for --%s: '%s'\n", flag, value.c_str());
  return 2;
}

// --jobs N: worker threads for property/regime fan-out. Defaults to one per
// hardware thread; 0 or garbage is a usage error like the other numerics.
std::optional<std::size_t> parse_jobs(const Args& args) {
  if (!args.has("jobs")) return ThreadPool::default_parallelism();
  auto v = parse_u64(args.get("jobs"));
  if (!v || *v == 0 || *v > 1024) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

int cmd_instrument(const Args& args) {
  if (args.positional.empty()) return usage();
  auto source = read_file(args.positional[0]);
  if (!source) {
    std::fprintf(stderr, "cannot read %s\n", args.positional[0].c_str());
    return 1;
  }
  std::vector<std::string> globals;
  if (args.has("header")) {
    auto header = read_file(args.get("header"));
    if (!header) {
      std::fprintf(stderr, "cannot read %s\n", args.get("header").c_str());
      return 1;
    }
    globals = instrument::harvest_globals(*header);
  }
  auto out = instrument::instrument_source(*source, globals);
  std::fprintf(stderr, "instrumented %d functions (%d enter, %d global, %d local probes)\n",
               out.stats.functions_instrumented, out.stats.enter_probes,
               out.stats.global_probes, out.stats.local_probes);
  std::printf("%s", out.text.c_str());
  return 0;
}

// --remote host:port: differential conformance against a serve-sul endpoint
// (scripted flows; expectations from the local reference stack). Exit 0 when
// every scenario passes, 1 on behavioral divergence, 3 when the transport
// degraded and verdicts are inconclusive.
int cmd_remote_conformance(const ue::StackProfile& profile, const std::string& endpoint,
                           const std::string& psk) {
  auto ep = net::parse_endpoint(endpoint);
  if (!ep) return bad_option("remote", endpoint);
  net::RemoteSulOptions ropts;
  ropts.host = ep->first;
  ropts.port = ep->second;
  ropts.psk = psk;
  net::RemoteUeSul sul(ropts);
  net::RemoteConformanceReport report = net::run_remote_conformance(profile, sul);
  std::fputs(report.render().c_str(), stdout);
  if (!report.conclusive()) {
    const std::string why = sul.unavailable_reason();
    std::fprintf(stderr, "transport degraded (%ld unavailable answers%s%s): inconclusive\n",
                 sul.stats().unavailable_answers, why.empty() ? "" : "; ", why.c_str());
    return 3;
  }
  return report.failed() == 0 ? 0 : 1;
}

int cmd_conformance(ue::StackProfile profile, const Args& args) {
  if (args.has("remote")) {
    return cmd_remote_conformance(profile, args.get("remote"), args.get("psk"));
  }
  instrument::TraceLogger trace;
  testing::ConformanceReport report = testing::run_conformance(profile, trace);
  for (const testing::TestResult& r : report.results) {
    std::printf("%-18s %s\n", r.id.c_str(), r.passed ? "PASS" : "FAIL");
  }
  std::printf("%d/%d passed, handler coverage %.0f%%, %zu log records\n", report.passed(),
              report.total(), report.handler_coverage * 100, trace.records().size());
  if (args.has("log")) {
    std::ofstream out(args.get("log"));
    out << trace.text();
    std::printf("log written to %s\n", args.get("log").c_str());
  }
  return 0;
}

int cmd_extract(ue::StackProfile profile, const Args& args) {
  std::string log_text;
  if (args.has("log")) {
    auto text = read_file(args.get("log"));
    if (!text) {
      std::fprintf(stderr, "cannot read %s\n", args.get("log").c_str());
      return 1;
    }
    log_text = std::move(*text);
  } else {
    instrument::TraceLogger trace;
    testing::run_conformance(profile, trace);
    log_text = trace.text();
  }

  extractor::ExtractionOptions opts;
  opts.initial_state = "EMM_DEREGISTERED";
  opts.chain_substates = !args.has("basic");
  extractor::ExtractionDiagnostics diag;
  if (args.has("recovery")) {
    opts.recovery = true;
    opts.diagnostics = &diag;
  }
  instrument::ParseStats parse_stats;
  std::vector<instrument::LogRecord> records = instrument::parse_log(log_text, &parse_stats);
  fsm::Fsm m = args.has("basic")
                   ? extractor::extract_basic(records, extractor::ue_signatures(profile), opts)
                   : extractor::extract(records, extractor::ue_signatures(profile), opts);
  if (args.has("recovery")) {
    std::fprintf(stderr,
                 "parse: %zu lines, %zu records, %zu skipped, %zu truncated\n"
                 "blocks: %zu total, %zu extracted, %zu quarantined\n",
                 parse_stats.lines, parse_stats.records, parse_stats.skipped,
                 parse_stats.truncated, diag.blocks_total, diag.blocks_extracted,
                 diag.quarantined.size());
    for (const auto& q : diag.quarantined) {
      std::fprintf(stderr, "  quarantined block %zu (%s): %s\n", q.block_index,
                   q.incoming.c_str(), q.reason.c_str());
    }
  }
  if (args.has("dot")) {
    std::printf("%s", m.to_dot("ue_" + profile.name).c_str());
    return 0;
  }
  auto s = m.stats();
  std::printf("FSM: %zu states, %zu transitions, %zu conditions, %zu actions\n", s.states,
              s.transitions, s.conditions, s.actions);
  for (const fsm::Transition& t : m.transitions()) {
    std::printf("  %s\n", t.label().c_str());
  }
  return 0;
}

int cmd_analyze(ue::StackProfile profile, const Args& args) {
  if (args.has("freshness-limit")) {
    auto v = parse_u64(args.get("freshness-limit"));
    if (!v) return bad_option("freshness-limit", args.get("freshness-limit"));
    profile.sqn_freshness_limit = *v;
  }
  checker::AnalysisOptions options;
  if (args.has("max-states")) {
    auto v = parse_u64(args.get("max-states"));
    if (!v) return bad_option("max-states", args.get("max-states"));
    options.max_states = *v;
  }
  if (args.has("budget-seconds")) {
    auto v = parse_double(args.get("budget-seconds"));
    if (!v || *v < 0) return bad_option("budget-seconds", args.get("budget-seconds"));
    options.max_seconds_per_property = *v;
  }
  if (args.has("properties")) {
    for (const std::string& id : split(args.get("properties"), ',')) {
      options.only_properties.insert(std::string(trim(id)));
    }
  }
  auto jobs = parse_jobs(args);
  if (!jobs) return bad_option("jobs", args.get("jobs"));
  options.jobs = static_cast<int>(*jobs);

  // Supervisor knobs (watchdogs, retries, journal/resume — DESIGN.md §11).
  if (args.has("retries")) {
    auto v = parse_u64(args.get("retries"));
    if (!v || *v > 16) return bad_option("retries", args.get("retries"));
    options.retries = static_cast<int>(*v);
  }
  if (args.has("deadline-per-property")) {
    auto v = parse_double(args.get("deadline-per-property"));
    if (!v || *v < 0) {
      return bad_option("deadline-per-property", args.get("deadline-per-property"));
    }
    options.deadline_per_property = *v;
  }
  if (args.has("mem-ceiling-mb")) {
    auto v = parse_u64(args.get("mem-ceiling-mb"));
    if (!v || *v == 0 || *v > (1u << 20)) {
      return bad_option("mem-ceiling-mb", args.get("mem-ceiling-mb"));
    }
    options.mem_ceiling_bytes = *v * 1024 * 1024;
  }
  if (args.has("journal")) options.journal_path = args.get("journal");
  if (args.has("resume")) {
    options.journal_path = args.get("resume");
    options.resume = true;
  }

  checker::ImplementationReport rep = checker::ProChecker::analyze(profile, options);
  if (rep.aborted) {
    // Structured refusal (journal locked by a live run, or --resume against
    // an options-incompatible journal): no verdicts were produced.
    std::fprintf(stderr, "error: analyze aborted: %s\n", rep.abort_reason.c_str());
    return 1;
  }

  // The verdict block is the canonical deterministic rendering: a resumed
  // run must reproduce it byte-for-byte (journal/resume status goes to
  // stderr so it never perturbs the comparison).
  std::fputs(checker::render_verdicts(rep).c_str(), stdout);
  if (args.has("traces") || args.has("dot-traces")) {
    threat::ThreatModel tm = checker::ProChecker::build_threat_model(rep.checking_model);
    for (const checker::PropertyResult& r : rep.results) {
      if (!r.counterexample) continue;
      if (args.has("traces")) {
        std::printf("-- trace %s --\n%s", r.property_id.c_str(),
                    r.counterexample->render(tm.model).c_str());
      }
      if (args.has("dot-traces")) {
        std::printf("%s", r.counterexample->to_dot(tm.model).c_str());
      }
    }
  }
  if (rep.resumed_count > 0) {
    std::fprintf(stderr, "resumed %zu of %zu properties from %s\n", rep.resumed_count,
                 rep.results.size(), options.journal_path.c_str());
  }
  if (rep.cancelled_count > 0) {
    std::fprintf(stderr, "%zu properties cancelled before completion\n", rep.cancelled_count);
  }
  if (!rep.journal_error.empty()) {
    std::fprintf(stderr, "journal warning: %s\n", rep.journal_error.c_str());
  }
  return 0;
}

std::sig_atomic_t volatile g_interrupted = 0;

int cmd_serve_sul(ue::StackProfile profile, const Args& args) {
  net::SulServerOptions options;
  if (args.has("port")) {
    auto v = parse_u64(args.get("port"));
    if (!v || *v > 65535) return bad_option("port", args.get("port"));
    options.port = static_cast<std::uint16_t>(*v);
  }
  if (args.has("bind")) options.bind_host = args.get("bind");
  if (args.has("psk")) options.psk = args.get("psk");
  if (args.has("max-sessions")) {
    auto v = parse_u64(args.get("max-sessions"));
    if (!v || *v == 0 || *v > 64) return bad_option("max-sessions", args.get("max-sessions"));
    options.max_sessions = static_cast<int>(*v);
  }
  if (args.has("quota-queries")) {
    auto v = parse_u64(args.get("quota-queries"));
    if (!v) return bad_option("quota-queries", args.get("quota-queries"));
    options.max_session_queries = static_cast<long>(*v);
  }
  if (args.has("quota-bytes")) {
    auto v = parse_u64(args.get("quota-bytes"));
    if (!v) return bad_option("quota-bytes", args.get("quota-bytes"));
    options.max_session_bytes = static_cast<long>(*v);
  }
  if (args.has("quota-seconds")) {
    auto v = parse_double(args.get("quota-seconds"));
    if (!v || *v < 0) return bad_option("quota-seconds", args.get("quota-seconds"));
    options.max_session_seconds = *v;
  }
  if (args.has("idle-timeout")) {
    auto v = parse_double(args.get("idle-timeout"));
    if (!v || *v < 0) return bad_option("idle-timeout", args.get("idle-timeout"));
    options.idle_timeout_seconds = *v;
  }
  if (args.has("drain-seconds")) {
    auto v = parse_double(args.get("drain-seconds"));
    if (!v || *v < 0) return bad_option("drain-seconds", args.get("drain-seconds"));
    options.drain_deadline_seconds = *v;
  }

  net::SulServer server(profile, options);
  if (!server.start()) {
    const std::string why = server.start_error();
    std::fprintf(stderr, "cannot serve on %s:%u%s%s\n", options.bind_host.c_str(),
                 options.port, why.empty() ? "" : ": ", why.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serving %s SUL on %s:%u (%d sessions max%s; ctrl-c drains, twice stops)\n",
               profile.name.c_str(), options.bind_host.c_str(), server.port(),
               options.max_sessions, options.psk.empty() ? "" : ", PSK auth");
  std::signal(SIGINT, [](int) { g_interrupted = g_interrupted + 1; });
  std::signal(SIGTERM, [](int) { g_interrupted = 2; });

  // First interrupt drains (no new sessions; in-flight words finish, each
  // session gets a structured close); the second — or a drained-out server —
  // stops hard.
  bool draining = false;
  while (g_interrupted < 2) {
    if (g_interrupted == 1 && !draining) {
      draining = true;
      server.drain();
      std::fprintf(stderr, "draining %d active sessions (ctrl-c again to force stop)\n",
                   server.active_sessions());
    }
    if (draining && server.active_sessions() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  net::SulServerStats stats = server.stats();
  std::fprintf(stderr, "served %ld connections, %ld resets, %ld steps\n", stats.connections,
               stats.resets, stats.steps);
  if (args.has("stats")) std::fputs(server.render_stats().c_str(), stderr);
  return 0;
}

int cmd_learn(ue::StackProfile profile, const Args& args) {
  learner::LearnSupervisorOptions sup;
  sup.run_tag = profile.name;
  if (args.has("seed")) {
    auto v = parse_u64(args.get("seed"));
    if (!v) return bad_option("seed", args.get("seed"));
    sup.learn.seed = *v;
  }

  // Supervisor knobs (crash-safe journal, arbitration, watchdogs —
  // DESIGN.md §15), mirroring analyze's journal/resume discipline.
  if (args.has("journal")) sup.journal_path = args.get("journal");
  if (args.has("resume")) {
    sup.journal_path = args.get("resume");
    sup.resume = true;
  }
  if (args.has("arbitrate")) {
    // "k/n": commit a cell only when k of n fresh re-queries agree ("0/0"
    // disables arbitration — first observation wins).
    const std::string text = args.get("arbitrate");
    const std::size_t slash = text.find('/');
    std::optional<std::uint64_t> k, n;
    if (slash != std::string::npos) {
      k = parse_u64(text.substr(0, slash));
      n = parse_u64(text.substr(slash + 1));
    }
    if (!k || !n || *n > 99 || (*n > 0 && (*k <= *n / 2 || *k > *n))) {
      return bad_option("arbitrate", text);
    }
    sup.arbitration_k = static_cast<int>(*k);
    sup.arbitration_n = static_cast<int>(*n);
  }
  if (args.has("deadline")) {
    auto v = parse_double(args.get("deadline"));
    if (!v || *v < 0) return bad_option("deadline", args.get("deadline"));
    sup.deadline_seconds = *v;
  }
  if (args.has("retries")) {
    auto v = parse_u64(args.get("retries"));
    if (!v || *v > 16) return bad_option("retries", args.get("retries"));
    sup.retries = static_cast<int>(*v);
  }

  learner::SupervisedLearn run;
  if (args.has("remote")) {
    auto ep = net::parse_endpoint(args.get("remote"));
    if (!ep) return bad_option("remote", args.get("remote"));
    net::RemoteSulOptions ropts;
    ropts.host = ep->first;
    ropts.port = ep->second;
    ropts.psk = args.get("psk");
    ropts.heartbeat_seconds = 0.5;
    net::RemoteUeSul sul(ropts);
    run = learner::learn_supervised(sul, sup);
    net::RemoteSulStats stats = sul.stats();
    std::fprintf(stderr,
                 "transport: %ld connects (%ld re), %ld framing errors, %ld timeouts\n",
                 stats.connects, stats.reconnects, stats.framing_errors, stats.rpc_timeouts);
    std::fprintf(stderr,
                 "breaker: %s (%ld opens, %ld half-open probes, %ld unavailable answers)\n",
                 std::string(net::to_string(sul.breaker())).c_str(), stats.breaker_opens,
                 stats.breaker_probes, stats.unavailable_answers);
    std::fprintf(stderr,
                 "batching: negotiated %d words, %ld batches (%ld words), %ld word queries\n",
                 sul.negotiated_batch_words(), stats.batch_queries, stats.batched_words,
                 stats.word_queries);
    // Structured server refusals (busy, draining, auth_failed, quota trips,
    // upgrade_required) surface here so an inconclusive run names its cause.
    const std::string reason = sul.last_close_reason();
    if (!reason.empty()) {
      std::fprintf(stderr, "server close: %s\n", reason.c_str());
    }
  } else {
    learner::UeSul sul(profile);
    run = learner::learn_supervised(sul, sup);
  }

  if (run.aborted) {
    // Structured refusal (journal locked by a live run, or --resume against
    // an options-incompatible journal): no query was issued.
    std::fprintf(stderr, "error: learn aborted: %s\n", run.abort_reason.c_str());
    return 1;
  }
  const learner::LearnResult& result = run.result;
  // Journal/supervisor status goes to stderr so the deterministic stdout
  // rendering stays byte-comparable between interrupted and clean runs.
  if (!sup.journal_path.empty()) {
    std::fprintf(stderr, "journal: %zu records at %s (%zu adopted, %zu replayed)\n",
                 run.journal_records, sup.journal_path.c_str(), run.adopted, run.replayed);
    if (!run.journal_note.empty()) {
      std::fprintf(stderr, "journal note: %s\n", run.journal_note.c_str());
    }
    if (!run.journal_error.empty()) {
      std::fprintf(stderr, "journal warning: %s\n", run.journal_error.c_str());
    }
  }
  if (run.attempts > 1 || run.failure != learner::LearnFailure::kNone) {
    std::fprintf(stderr, "supervisor: %d attempt(s), last failure: %s%s%s\n", run.attempts,
                 std::string(learner::to_string(run.failure)).c_str(),
                 run.diagnostics.empty() ? "" : " — ", run.diagnostics.c_str());
  }
  if (result.arbitrations > 0 || !result.quarantined.empty()) {
    std::fprintf(stderr,
                 "arbitration: %ld conflicts, %ld re-queries, %ld overridden edges,"
                 " %zu quarantined cells\n",
                 result.arbitrations, result.arbitration_requeries,
                 result.arbitration_overrides, result.quarantined.size());
    for (const std::string& q : result.quarantined) {
      std::fprintf(stderr, "  quarantined: %s\n", q.c_str());
    }
  }

  if (result.inconclusive) {
    std::fprintf(stderr, "error: learning inconclusive: %s\n", result.note.c_str());
    return 3;
  }
  // Deterministic rendering (the FSM view): remote runs over lossless chaos
  // regimes must reproduce the in-process output byte-for-byte.
  fsm::Fsm m = result.machine.to_fsm();
  if (args.has("dot")) {
    std::printf("%s", m.to_dot("learned_" + profile.name).c_str());
  } else {
    auto s = m.stats();
    std::printf("learned Mealy machine: %d states, %zu transitions\n",
                result.machine.state_count, s.transitions);
    for (const fsm::Transition& t : m.transitions()) {
      std::printf("  %s\n", t.label().c_str());
    }
  }
  std::fprintf(stderr,
               "%ld membership queries, %ld equivalence rounds, %ld counterexamples,"
               " %ld resets, %ld steps, %s\n",
               result.membership_queries, result.equivalence_queries, result.counterexamples,
               result.sul_resets, result.sul_steps,
               result.converged ? "converged" : "round budget exhausted");
  const long lookups = result.cache_hits + result.cache_prefix_hits + result.cache_misses;
  std::fprintf(stderr,
               "query cache: %ld hits, %ld prefix hits, %ld misses (%.0f%% answered),"
               " %ld batches (%ld words)%s\n",
               result.cache_hits, result.cache_prefix_hits, result.cache_misses,
               lookups > 0 ? 100.0 * static_cast<double>(result.cache_hits) /
                                 static_cast<double>(lookups)
                           : 0.0,
               result.batch_queries, result.batched_words,
               result.nondeterministic_cached > 0 ? " [nondeterministic outputs!]" : "");
  return 0;
}

int cmd_chaos(ue::StackProfile profile, const Args& args) {
  double intensity = 0.1;
  if (args.has("intensity")) {
    auto v = parse_double(args.get("intensity"));
    if (!v || *v < 0 || *v > 1) return bad_option("intensity", args.get("intensity"));
    intensity = *v;
  }
  auto jobs = parse_jobs(args);
  if (!jobs) return bad_option("jobs", args.get("jobs"));

  std::vector<testing::ChaosReport> reports =
      testing::run_chaos_matrix(profile, intensity, *jobs);
  bool all_explained = true;
  for (const testing::ChaosReport& rep : reports) {
    std::printf("%-14s %2d/%2d passed (baseline %2d/%2d), %zu channel faults, FSM %s%s\n",
                rep.regime.c_str(), rep.chaos.passed(), rep.chaos.total(),
                rep.baseline.passed(), rep.baseline.total(), rep.channel.total_faults(),
                rep.fsm_identical ? "identical" : "DIVERGED",
                rep.degraded() ? (rep.explained() ? " [degraded, diagnosed]" : " [UNEXPLAINED]")
                               : "");
    for (const std::string& d : rep.diagnostics) std::printf("    %s\n", d.c_str());
    all_explained = all_explained && rep.explained();
  }
  std::printf("%zu regimes, %s\n", reports.size(),
              all_explained ? "all degradations diagnosed" : "UNEXPLAINED degradation");
  return all_explained ? 0 : 1;
}

// prochecker diff <left> <right> (or --left/--right): the differential
// cross-implementation pipeline (DESIGN.md §16). Exit 0 equivalent, 1
// divergent, 3 inconclusive (a side degraded, or the product walk tripped a
// budget); usage errors stay 2.
int cmd_diff(const Args& args) {
  std::string left_spec = args.get("left");
  std::string right_spec = args.get("right");
  if (left_spec.empty() && !args.positional.empty()) left_spec = args.positional[0];
  if (right_spec.empty() && args.positional.size() > 1) right_spec = args.positional[1];
  if (left_spec.empty() || right_spec.empty()) return usage();

  diff::SourceOptions src;
  src.psk = args.get("psk");
  if (args.has("seed")) {
    auto v = parse_u64(args.get("seed"));
    if (!v) return bad_option("seed", args.get("seed"));
    src.learn_seed = *v;
  }

  diff::SideResult left = diff::resolve_side(left_spec, src);
  diff::SideResult right = diff::resolve_side(right_spec, src);
  for (const diff::SideResult* side : {&left, &right}) {
    if (side->ok) continue;
    std::fprintf(stderr, "error: %s\n", side->error.c_str());
    // A degraded-but-well-formed side (remote down, learning inconclusive)
    // is an inconclusive comparison, not a usage error.
    return (left.inconclusive || right.inconclusive) ? 3 : usage();
  }

  diff::DiffOptions dopts;
  if (args.has("max-pairs")) {
    auto v = parse_u64(args.get("max-pairs"));
    if (!v || *v == 0) return bad_option("max-pairs", args.get("max-pairs"));
    dopts.max_product_pairs = static_cast<std::size_t>(*v);
  }

  diff::TriageOptions topts;
  auto jobs = parse_jobs(args);
  if (!jobs) return bad_option("jobs", args.get("jobs"));
  topts.jobs = *jobs;
  if (args.has("max-states")) {
    auto v = parse_u64(args.get("max-states"));
    if (!v || *v == 0) return bad_option("max-states", args.get("max-states"));
    topts.max_states = static_cast<std::size_t>(*v);
  }
  if (args.has("deadline-per-property")) {
    auto v = parse_double(args.get("deadline-per-property"));
    if (!v || *v < 0) {
      return bad_option("deadline-per-property", args.get("deadline-per-property"));
    }
    topts.deadline_per_property = *v;
  }
  if (args.has("retries")) {
    auto v = parse_u64(args.get("retries"));
    if (!v || *v > 16) return bad_option("retries", args.get("retries"));
    topts.retries = static_cast<int>(*v);
  }

  diff::DiffReport report = diff::diff_machines(left.side, right.side, dopts);
  diff::triage(report, left.side, right.side, topts);
  if (args.has("json")) {
    std::printf("%s\n", diff::encode_report(report).c_str());
  } else if (args.has("dot")) {
    std::printf("%s", report.to_dot().c_str());
  } else {
    std::fputs(report.render().c_str(), stdout);
  }
  return report.exit_code();
}

// Every profile-driven subcommand resolves --profile the same way; main()
// does it once and hands the handler a concrete StackProfile (by value —
// analyze patches mitigation knobs into its copy).
int with_profile(const Args& args, int (*handler)(ue::StackProfile, const Args&)) {
  auto profile = ue::StackProfile::by_name(args.get("profile"));
  if (!profile) return usage();
  return handler(std::move(*profile), args);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  Args args = Args::parse(argc, argv, 2);
  if (cmd == "instrument") return cmd_instrument(args);
  if (cmd == "conformance") return with_profile(args, cmd_conformance);
  if (cmd == "extract") return with_profile(args, cmd_extract);
  if (cmd == "analyze") return with_profile(args, cmd_analyze);
  if (cmd == "chaos") return with_profile(args, cmd_chaos);
  if (cmd == "serve-sul") return with_profile(args, cmd_serve_sul);
  if (cmd == "learn") return with_profile(args, cmd_learn);
  if (cmd == "diff") return cmd_diff(args);
  return usage();
}
