// Transport-cost bench for the remote-SUL boundary (DESIGN.md §12).
//
// Measures membership-query throughput for the same L* workload in three
// placements of the learner/SUL boundary:
//
//   in-process      — learner::UeSul, the PR-3 baseline (no transport);
//   remote          — RemoteUeSul → SulServer over clean loopback TCP
//                     (framing + CRC + syscall cost per query);
//   remote+chaos    — the same link through ChaosProxy under a lossless
//                     delay/fragment regime (what fault tolerance costs when
//                     faults actually fire).
//
// Standalone (no google-benchmark) because each row needs its own
// server/proxy lifecycle; wall-clock timing over thousands of queries is
// stable enough for the comparison this table makes.
//
// --clients runs the concurrent-learner mode instead of the sweep over 1/2/4/8
// sessions against one multi-session server; each client pushes the full
// workload through its own session and the table reports aggregate plus
// per-session throughput. --write-json records everything machine-readably.
//
// --rtt-ms M adds the RTT-amortization sweep for the wire-v3 word protocol:
// the same workload through a chaos proxy that delays every chunk ~M ms, once
// per protocol shape — word-level (batch 1) and batched (--batch N, default
// 16). On loopback the RTT is ~zero and the shapes tie; with a real RTT the
// word-level shape pays two delays per query and the batched shape amortizes
// two delays across a whole batch, which is the point of wire v3.
//
// --journal measures what the crash-safe learn journal (DESIGN.md §15) costs
// where it matters: a full supervised learn over the word protocol through a
// ~2 ms delay proxy (so the fsync cadence has real RPC latency to amortize
// against), journaled vs unjournaled, median of 3 interleaved runs each.
// The mode exits nonzero when the overhead exceeds 3% — the regression gate
// for the journaling fast path.
//
//   ./bench_remote_sul [--words N] [--clients N] [--rtt-ms M] [--batch N]
//                      [--journal] [--write-json [path]]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "learner/learn_supervisor.h"
#include "learner/lstar.h"
#include "learner/sul.h"
#include "net/chaos_proxy.h"
#include "net/remote_sul.h"
#include "net/sul_server.h"
#include "ue/profile.h"

namespace {

using namespace procheck;

struct Workload {
  std::vector<std::vector<std::string>> words;
  long total_steps = 0;
};

// The same deterministic query mix for every row: random words over the
// learning alphabet, the shape L*'s table-filling traffic has.
Workload make_workload(int count) {
  Workload w;
  Rng rng(0xB35C);
  const auto& alphabet = learner::input_alphabet();
  for (int i = 0; i < count; ++i) {
    std::vector<std::string> word;
    const int len = 1 + static_cast<int>(rng.next_below(7));
    for (int k = 0; k < len; ++k) {
      word.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
    w.total_steps += len;
    w.words.push_back(std::move(word));
  }
  return w;
}

struct Row {
  const char* name;
  double seconds = 0;
  double queries_per_sec = 0;
  double us_per_step = 0;
  std::string note;
};

Row run_row(const char* name, learner::Sul& sul, const Workload& w) {
  const auto start = std::chrono::steady_clock::now();
  for (const auto& word : w.words) sul.run(word);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  Row row;
  row.name = name;
  row.seconds = seconds;
  row.queries_per_sec = static_cast<double>(w.words.size()) / seconds;
  row.us_per_step = seconds * 1e6 / static_cast<double>(w.total_steps);
  return row;
}

struct ClientsSample {
  int clients = 0;
  double wall_seconds = 0;       // slowest session (the user-visible wall)
  double aggregate_qps = 0;      // clients * words / wall
  double per_session_qps = 0;    // mean of each session's own throughput
  long server_sessions = 0;
};

// N learners, each with its own session on one multi-session server, each
// pushing the full workload. Aggregate throughput tells you what the server
// sustains; per-session throughput tells you what each learner still sees.
ClientsSample run_clients(int clients, const Workload& w,
                          const ue::StackProfile& profile) {
  net::SulServerOptions sopts;
  sopts.max_sessions = clients;
  net::SulServer server(profile, sopts);
  ClientsSample sample;
  sample.clients = clients;
  if (!server.start()) {
    std::fprintf(stderr, "error: cannot start loopback SUL server\n");
    return sample;
  }
  std::vector<double> session_seconds(static_cast<std::size_t>(clients), 0);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      net::RemoteSulOptions opts;
      opts.port = server.port();
      net::RemoteUeSul sul(opts);
      const auto t0 = std::chrono::steady_clock::now();
      for (const auto& word : w.words) sul.run(word);
      session_seconds[static_cast<std::size_t>(i)] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    });
  }
  for (std::thread& t : threads) t.join();
  sample.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  server.stop();
  sample.server_sessions = server.stats().sessions_admitted;
  const double queries = static_cast<double>(w.words.size());
  sample.aggregate_qps =
      static_cast<double>(clients) * queries / sample.wall_seconds;
  for (double s : session_seconds) {
    if (s > 0) sample.per_session_qps += queries / s;
  }
  sample.per_session_qps /= static_cast<double>(clients);
  return sample;
}

struct RttRow {
  int batch = 1;  // 1 = one kQueryWord per word
  double seconds = 0;
  double queries_per_sec = 0;
  long server_resets = 0;  // what prefix-sorted execution actually saved
  long server_steps = 0;
};

// One protocol shape through a delaying (but lossless) proxy. The learner-side
// traffic is identical in all shapes — only the wire shape changes — so the
// rows are directly comparable.
RttRow run_rtt_row(int batch, int rtt_ms, const Workload& w,
                   const ue::StackProfile& profile) {
  RttRow row;
  row.batch = batch;
  net::SulServer server(profile);
  if (!server.start()) {
    std::fprintf(stderr, "error: cannot start loopback SUL server\n");
    return row;
  }
  net::ChaosProxyOptions popts;
  popts.upstream_port = server.port();
  popts.faults.delay = 1.0;  // every chunk pays the synthetic RTT
  popts.max_delay_ms = rtt_ms;
  net::ChaosProxy proxy(popts);
  if (!proxy.start()) {
    std::fprintf(stderr, "error: cannot start chaos proxy\n");
    return row;
  }
  net::RemoteSulOptions opts;
  opts.port = proxy.port();
  opts.max_batch_words = batch;
  opts.call_deadline_seconds = 5.0;  // the delays are the point, not a fault
  net::RemoteUeSul sul(opts);
  const auto start = std::chrono::steady_clock::now();
  if (batch > 1) {
    // The learner hands whole rounds to query_batch; feed it group-sized
    // slices so the client's chunking + in-flight window do the batching.
    std::size_t i = 0;
    while (i < w.words.size()) {
      const std::size_t n = std::min<std::size_t>(w.words.size() - i,
                                                  static_cast<std::size_t>(batch) * 4);
      std::vector<std::vector<std::string>> group(
          w.words.begin() + static_cast<std::ptrdiff_t>(i),
          w.words.begin() + static_cast<std::ptrdiff_t>(i + n));
      sul.query_batch(group);
      i += n;
    }
  } else {
    for (const auto& word : w.words) sul.run(word);
  }
  row.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  row.queries_per_sec = static_cast<double>(w.words.size()) / row.seconds;
  server.stop();
  const net::SulServerStats sstats = server.stats();
  row.server_resets = sstats.resets;
  row.server_steps = sstats.steps;
  return row;
}

struct JournalOverhead {
  bool measured = false;
  double unjournaled_seconds = 0;  // median of 3
  double journaled_seconds = 0;    // median of 3
  double overhead_pct = 0;
  long journal_records = 0;
};

// One supervised learn over the word protocol through a delaying proxy;
// journaled when `journal_path` is non-empty. Returns wall seconds.
double run_supervised_learn(std::uint16_t port, const std::string& journal_path,
                            long* records_out) {
  if (!journal_path.empty()) {
    std::remove(journal_path.c_str());
    std::remove((journal_path + ".lock").c_str());
    std::remove((journal_path + ".tmp").c_str());
  }
  net::RemoteSulOptions opts;
  opts.port = port;
  opts.max_batch_words = 1;  // one kQueryWord per word: every query pays the RTT
  opts.call_deadline_seconds = 5.0;
  net::RemoteUeSul sul(opts);
  learner::LearnSupervisorOptions lopts;
  lopts.learn.eq_test_words = 20;
  lopts.learn.eq_test_max_length = 4;
  lopts.learn.seed = 0xBE7C;
  lopts.journal_path = journal_path;
  lopts.run_tag = "cls";
  const auto start = std::chrono::steady_clock::now();
  const learner::SupervisedLearn run = learner::learn_supervised(sul, lopts);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!run.result.converged) {
    std::fprintf(stderr, "error: journal bench learn did not converge: %s\n",
                 run.result.note.c_str());
    return -1;
  }
  if (records_out != nullptr) *records_out = static_cast<long>(run.journal_records);
  return seconds;
}

JournalOverhead run_journal_overhead(const ue::StackProfile& profile) {
  JournalOverhead jo;
  net::SulServer server(profile);
  if (!server.start()) {
    std::fprintf(stderr, "error: cannot start loopback SUL server\n");
    return jo;
  }
  net::ChaosProxyOptions popts;
  popts.upstream_port = server.port();
  popts.faults.delay = 1.0;
  popts.max_delay_ms = 2;  // every chunk pays ~2 ms: realistic RPC latency
  net::ChaosProxy proxy(popts);
  if (!proxy.start()) {
    std::fprintf(stderr, "error: cannot start chaos proxy\n");
    return jo;
  }
  const std::string path = "/tmp/bench_learn_journal.journal";
  std::vector<double> plain, journaled;
  for (int round = 0; round < 3; ++round) {  // interleaved: drift hits both arms
    const double u = run_supervised_learn(proxy.port(), "", nullptr);
    const double j = run_supervised_learn(proxy.port(), path, &jo.journal_records);
    if (u < 0 || j < 0) return jo;
    plain.push_back(u);
    journaled.push_back(j);
  }
  std::sort(plain.begin(), plain.end());
  std::sort(journaled.begin(), journaled.end());
  jo.unjournaled_seconds = plain[1];
  jo.journaled_seconds = journaled[1];
  jo.overhead_pct =
      (jo.journaled_seconds - jo.unjournaled_seconds) / jo.unjournaled_seconds * 100.0;
  jo.measured = true;
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  std::remove((path + ".tmp").c_str());
  return jo;
}

void write_json(const std::string& path, const Workload& w,
                const std::vector<Row>& rows,
                const std::vector<ClientsSample>& sweep, int rtt_ms,
                const std::vector<RttRow>& rtt_rows,
                const JournalOverhead& jo) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"remote_sul\",\n");
  // Detected core count: client-sweep scaling curves are only comparable
  // between machines once normalized by this (EXPERIMENTS.md §multicore).
  std::fprintf(f, "  \"hardware_concurrency\": %zu,\n", ThreadPool::default_parallelism());
  std::fprintf(f, "  \"words\": %zu,\n  \"steps\": %ld,\n", w.words.size(),
               w.total_steps);
  std::fprintf(f, "  \"placements\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"seconds\": %.3f,"
                 " \"queries_per_sec\": %.0f, \"us_per_step\": %.2f}%s\n",
                 r.name, r.seconds, r.queries_per_sec, r.us_per_step,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"clients_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ClientsSample& s = sweep[i];
    std::fprintf(f,
                 "    {\"clients\": %d, \"wall_seconds\": %.3f,"
                 " \"aggregate_qps\": %.0f, \"per_session_qps\": %.0f,"
                 " \"server_sessions\": %ld}%s\n",
                 s.clients, s.wall_seconds, s.aggregate_qps, s.per_session_qps,
                 s.server_sessions, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"rtt_ms\": %d,\n  \"rtt_sweep\": [\n", rtt_ms);
  for (std::size_t i = 0; i < rtt_rows.size(); ++i) {
    const RttRow& r = rtt_rows[i];
    std::fprintf(f,
                 "    {\"batch\": %d, \"seconds\": %.3f, \"queries_per_sec\": %.0f,"
                 " \"server_resets\": %ld, \"server_steps\": %ld}%s\n",
                 r.batch, r.seconds, r.queries_per_sec, r.server_resets, r.server_steps,
                 i + 1 < rtt_rows.size() ? "," : "");
  }
  if (jo.measured) {
    std::fprintf(f,
                 "  ],\n  \"journal_overhead\": {\"rtt_ms\": 2, \"batch\": 1,"
                 " \"unjournaled_seconds\": %.3f, \"journaled_seconds\": %.3f,"
                 " \"overhead_pct\": %.2f, \"journal_records\": %ld}\n}\n",
                 jo.unjournaled_seconds, jo.journaled_seconds, jo.overhead_pct,
                 jo.journal_records);
  } else {
    std::fprintf(f, "  ]\n}\n");
  }
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int count = 2000;
  int clients_override = 0;
  int rtt_ms = 0;
  int batch_size = 16;
  bool journal_mode = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--words") == 0 && i + 1 < argc) {
      count = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients_override = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rtt-ms") == 0 && i + 1 < argc) {
      rtt_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc &&
               std::atoi(argv[i + 1]) >= 1) {
      batch_size = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      journal_mode = true;
    } else if (std::strcmp(argv[i], "--write-json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-')
                      ? argv[++i]
                      : "BENCH_remote_sul.json";
    } else {
      std::fprintf(stderr,
                   "usage: bench_remote_sul [--words N] [--clients N] [--rtt-ms M]"
                   " [--batch N] [--journal] [--write-json [path]]\n");
      return 2;
    }
  }
  const Workload w = make_workload(count);
  const ue::StackProfile profile = ue::StackProfile::cls();
  std::printf("remote-SUL transport cost: %zu words, %ld steps\n\n", w.words.size(),
              w.total_steps);

  std::vector<Row> rows;

  {
    learner::UeSul sul(profile);
    rows.push_back(run_row("in-process", sul, w));
  }

  {
    net::SulServer server(profile);
    if (!server.start()) {
      std::fprintf(stderr, "error: cannot start loopback SUL server\n");
      return 1;
    }
    net::RemoteSulOptions opts;
    opts.port = server.port();
    net::RemoteUeSul sul(opts);
    rows.push_back(run_row("remote (loopback)", sul, w));
    rows.back().note = "framing + CRC + TCP round-trip per query";
  }

  {
    net::SulServer server(profile);
    if (!server.start()) {
      std::fprintf(stderr, "error: cannot start loopback SUL server\n");
      return 1;
    }
    net::ChaosProxyOptions popts;
    popts.upstream_port = server.port();
    popts.faults.delay = 0.05;
    popts.faults.fragment = 0.05;
    popts.max_delay_ms = 2;
    net::ChaosProxy proxy(popts);
    if (!proxy.start()) {
      std::fprintf(stderr, "error: cannot start chaos proxy\n");
      return 1;
    }
    net::RemoteSulOptions opts;
    opts.port = proxy.port();
    net::RemoteUeSul sul(opts);
    rows.push_back(run_row("remote + chaos (lossless)", sul, w));
    const auto stats = proxy.stats();
    rows.back().note = std::to_string(stats.faults()) + " proxy faults injected";
  }

  std::printf("%-28s %10s %12s %12s  %s\n", "placement", "seconds", "queries/s", "us/step",
              "note");
  for (const Row& row : rows) {
    std::printf("%-28s %10.3f %12.0f %12.2f  %s\n", row.name, row.seconds,
                row.queries_per_sec, row.us_per_step, row.note.c_str());
  }
  std::printf(
      "\nThe gap between rows 1 and 2 is the price of the socket boundary; the\n"
      "gap between rows 2 and 3 is the price of tolerated faults (retries,\n"
      "reconnects, replay). Correctness is identical in all three placements —\n"
      "the net suite pins remote learning byte-identical to in-process.\n");

  // Concurrent-learner mode: N sessions on one server, each running the full
  // workload. On a single-core host aggregate throughput is flat and
  // per-session throughput divides by N; the sweep exists so multi-core hosts
  // can see (and regress against) the session-per-thread scaling.
  std::vector<ClientsSample> sweep;
  std::vector<int> client_counts;
  if (clients_override > 0) {
    client_counts.push_back(clients_override);
  } else {
    client_counts = {1, 2, 4, 8};
  }
  std::printf("\nconcurrent learners (one session each, full workload each):\n");
  std::printf("%8s %12s %14s %18s %10s\n", "clients", "wall s", "aggregate q/s",
              "per-session q/s", "sessions");
  for (int n : client_counts) {
    sweep.push_back(run_clients(n, w, profile));
    const ClientsSample& s = sweep.back();
    std::printf("%8d %12.3f %14.0f %18.0f %10ld\n", s.clients, s.wall_seconds,
                s.aggregate_qps, s.per_session_qps, s.server_sessions);
  }

  // RTT-amortization sweep (wire v3). A smaller sub-workload keeps the
  // word-level row tolerable: at M ms per chunk it pays ~2·M ms per query.
  std::vector<RttRow> rtt_rows;
  if (rtt_ms > 0) {
    Workload rw = w;
    const std::size_t rtt_words = std::min<std::size_t>(rw.words.size(), 300);
    if (rw.words.size() > rtt_words) {
      rw.words.resize(rtt_words);
      rw.total_steps = 0;
      for (const auto& word : rw.words) rw.total_steps += static_cast<long>(word.size());
    }
    std::printf("\nRTT amortization at ~%d ms per chunk (%zu words):\n", rtt_ms,
                rw.words.size());
    std::printf("%-22s %10s %12s %10s %10s %9s\n", "protocol shape", "seconds",
                "queries/s", "resets", "steps", "speedup");
    const std::vector<int> shapes = {1, batch_size > 1 ? batch_size : 16};
    double base_qps = 0;
    for (int b : shapes) {
      rtt_rows.push_back(run_rtt_row(b, rtt_ms, rw, profile));
      const RttRow& r = rtt_rows.back();
      if (b == 1) base_qps = r.queries_per_sec;
      char name[48];
      if (b == 1) {
        std::snprintf(name, sizeof(name), "word-level (batch=1)");
      } else {
        std::snprintf(name, sizeof(name), "batched    (batch=%d)", b);
      }
      std::printf("%-22s %10.3f %12.0f %10ld %10ld %8.1fx\n", name, r.seconds,
                  r.queries_per_sec, r.server_resets, r.server_steps,
                  base_qps > 0 ? r.queries_per_sec / base_qps : 0.0);
    }
  }

  // Journal-overhead gate: a supervised learn through a ~2 ms delay proxy
  // over the word protocol, journaled vs not, median of 3 each.
  JournalOverhead jo;
  if (journal_mode) {
    std::printf("\nlearn-journal overhead (word protocol, ~2 ms RTT, median of 3):\n");
    jo = run_journal_overhead(profile);
    if (!jo.measured) return 1;
    std::printf("%-22s %10.3f s\n", "unjournaled learn", jo.unjournaled_seconds);
    std::printf("%-22s %10.3f s  (%ld records)\n", "journaled learn", jo.journaled_seconds,
                jo.journal_records);
    std::printf("%-22s %9.2f %%\n", "overhead", jo.overhead_pct);
  }

  if (!json_path.empty()) write_json(json_path, w, rows, sweep, rtt_ms, rtt_rows, jo);

  if (journal_mode && jo.overhead_pct >= 3.0) {
    std::fprintf(stderr,
                 "error: journaled learning overhead %.2f%% exceeds the 3%% budget\n",
                 jo.overhead_pct);
    return 1;
  }
  return 0;
}
