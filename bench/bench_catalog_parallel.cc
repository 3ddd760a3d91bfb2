// Scalability of the full-catalog analysis (the RQ3 trajectory data): runs
// the complete 62-property verification of the CLS profile at jobs=1/2/4/8
// and reports wall-clock seconds, model-checker throughput (states/sec)
// and the peak visited-set footprint of any single property search.
//
//   bench_catalog_parallel [--profile <cls|srsue|oai>] [--write-json <path>]
//                          [--supervised]
//
// --write-json emits BENCH_catalog.json (machine-readable trajectory file;
// run from the repo root to place it there). Every run's report is checked
// against the jobs=1 report — a determinism violation fails the benchmark.
//
// --supervised additionally measures the fault-free cost of the analysis
// supervisor (retries armed + durable journal) against an adjacent jobs=1
// baseline and fails the benchmark if the overhead exceeds 3%.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "checker/prochecker.h"
#include "common/journal.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace {

using namespace procheck;

struct RunSample {
  int jobs = 1;
  double wall_seconds = 0;
  double extraction_seconds = 0;
  std::size_t states = 0;
  std::size_t peak_visited_bytes = 0;
  int verified = 0;
  int attacks = 0;
};

std::string fingerprint(const checker::ImplementationReport& rep) {
  std::string out;
  for (const checker::PropertyResult& r : rep.results) {
    out += r.property_id;
    out += ':';
    out += std::to_string(static_cast<int>(r.status));
    out += ':';
    out += std::to_string(r.refinements.size());
    out += ':';
    out += r.counterexample ? std::to_string(r.counterexample->steps.size()) : "-";
    out += ';';
  }
  for (const std::string& id : rep.attacks_found) {
    out += id;
    out += ',';
  }
  return out;
}

RunSample run_catalog(const ue::StackProfile& profile, int jobs, std::string* print,
                      const std::string& journal_path = {}, int retries = 0) {
  checker::AnalysisOptions options;
  options.jobs = jobs;
  options.retries = retries;
  options.journal_path = journal_path;
  auto t0 = std::chrono::steady_clock::now();
  checker::ImplementationReport rep = checker::ProChecker::analyze(profile, options);
  RunSample s;
  s.jobs = jobs;
  s.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  s.extraction_seconds = rep.extraction_seconds;
  s.verified = rep.verified_count();
  s.attacks = rep.attack_count();
  for (const checker::PropertyResult& r : rep.results) {
    s.states += r.total_states;
    s.peak_visited_bytes = std::max(s.peak_visited_bytes, r.peak_visited_bytes);
  }
  *print = fingerprint(rep);
  return s;
}

struct SupervisedSample {
  bool measured = false;
  double baseline_wall = 0;
  double supervised_wall = 0;
  double overhead_pct = 0;
  std::size_t journal_records = 0;
};

void write_json(const std::string& path, const std::string& profile,
                const std::vector<RunSample>& runs, const SupervisedSample& sup) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"catalog_parallel\",\n");
  std::fprintf(f, "  \"profile\": \"%s\",\n", profile.c_str());
  std::fprintf(f, "  \"properties\": 62,\n");
  std::fprintf(f, "  \"hardware_concurrency\": %zu,\n", ThreadPool::default_parallelism());
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunSample& s = runs[i];
    std::fprintf(f,
                 "    {\"jobs\": %d, \"wall_seconds\": %.3f, \"states\": %zu,"
                 " \"states_per_sec\": %.0f, \"peak_visited_bytes\": %zu,"
                 " \"verified\": %d, \"attacks\": %d}%s\n",
                 s.jobs, s.wall_seconds, s.states,
                 s.wall_seconds > 0 ? static_cast<double>(s.states) / s.wall_seconds : 0.0,
                 s.peak_visited_bytes, s.verified, s.attacks,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  double j1 = runs.front().wall_seconds;
  double j8 = runs.back().wall_seconds;
  std::fprintf(f, "  \"speedup_max_jobs_vs_jobs1\": %.2f%s\n", j8 > 0 ? j1 / j8 : 0.0,
               sup.measured ? "," : "");
  if (sup.measured) {
    std::fprintf(f,
                 "  \"supervised\": {\"baseline_wall_seconds\": %.3f,"
                 " \"supervised_wall_seconds\": %.3f, \"overhead_pct\": %.2f,"
                 " \"journal_records\": %zu}\n",
                 sup.baseline_wall, sup.supervised_wall, sup.overhead_pct,
                 sup.journal_records);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string profile_name = "cls";
  std::string json_path;
  bool supervised = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--profile" && i + 1 < argc) {
      profile_name = argv[++i];
    } else if (a == "--write-json") {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "BENCH_catalog.json";
    } else if (a == "--supervised") {
      supervised = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_catalog_parallel [--profile <cls|srsue|oai>]"
                   " [--write-json [path]] [--supervised]\n");
      return 2;
    }
  }
  const std::optional<ue::StackProfile> found = ue::StackProfile::by_name(profile_name);
  if (!found) {
    std::fprintf(stderr, "unknown profile %s\n", profile_name.c_str());
    return 2;
  }
  const ue::StackProfile& profile = *found;

  std::vector<RunSample> runs;
  std::string reference;
  for (int jobs : {1, 2, 4, 8}) {
    std::string print;
    RunSample s = run_catalog(profile, jobs, &print);
    if (jobs == 1) {
      reference = print;
    } else if (print != reference) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: jobs=%d report differs from jobs=1\n",
                   jobs);
      return 1;
    }
    std::printf("jobs=%d: %.2fs wall, %zu states (%.0f states/sec), peak visited %.1f MiB\n",
                s.jobs, s.wall_seconds, s.states,
                s.wall_seconds > 0 ? static_cast<double>(s.states) / s.wall_seconds : 0.0,
                static_cast<double>(s.peak_visited_bytes) / (1024.0 * 1024.0));
    std::fflush(stdout);
    runs.push_back(s);
  }

  TextTable t({"jobs", "wall (s)", "states/sec", "peak visited (MiB)", "speedup vs jobs=1"});
  for (const RunSample& s : runs) {
    char wall[32], rate[32], mem[32], speedup[32];
    std::snprintf(wall, sizeof(wall), "%.2f", s.wall_seconds);
    std::snprintf(rate, sizeof(rate), "%.0f",
                  s.wall_seconds > 0 ? static_cast<double>(s.states) / s.wall_seconds : 0.0);
    std::snprintf(mem, sizeof(mem), "%.1f",
                  static_cast<double>(s.peak_visited_bytes) / (1024.0 * 1024.0));
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  s.wall_seconds > 0 ? runs.front().wall_seconds / s.wall_seconds : 0.0);
    t.add_row({std::to_string(s.jobs), wall, rate, mem, speedup});
  }
  std::printf("\nFull-catalog analysis scalability (%s profile, %zu hardware threads)\n%s",
              profile.name.c_str(), ThreadPool::default_parallelism(), t.render().c_str());
  std::printf("Reports at every jobs level are identical (determinism contract held).\n");

  SupervisedSample sup;
  if (supervised) {
    // Fault-free supervisor overhead: retries armed, durable journal on, no
    // faults injected — the watchdog polling and journal fsyncs are the only
    // extra work. Measured against an *adjacent* jobs=1 baseline so machine
    // drift between the sweep above and this section cannot skew the ratio.
    std::string base_print;
    double base = run_catalog(profile, 1, &base_print).wall_seconds;
    const std::string journal = "/tmp/bench_catalog_journal.jsonl";
    std::remove(journal.c_str());
    std::string sup_print;
    RunSample s = run_catalog(profile, 1, &sup_print, journal, /*retries=*/2);
    if (sup_print != reference || base_print != reference) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: supervised report differs from jobs=1\n");
      return 1;
    }
    JournalLoad load = load_journal(journal);
    std::remove(journal.c_str());
    sup.measured = true;
    sup.baseline_wall = base;
    sup.supervised_wall = s.wall_seconds;
    sup.overhead_pct = base > 0 ? (s.wall_seconds - base) / base * 100.0 : 0.0;
    // Header line is bookkeeping, not an outcome.
    sup.journal_records = load.payloads.empty() ? 0 : load.payloads.size() - 1;
    std::printf(
        "\nSupervised overhead (jobs=1, fault-free): baseline %.2fs,"
        " supervised %.2fs, overhead %.2f%%, %zu journal records\n",
        sup.baseline_wall, sup.supervised_wall, sup.overhead_pct, sup.journal_records);
    if (sup.overhead_pct >= 3.0) {
      std::fprintf(stderr, "SUPERVISED OVERHEAD EXCEEDS 3%% (%.2f%%)\n", sup.overhead_pct);
      return 1;
    }
  }

  if (!json_path.empty()) write_json(json_path, profile.name, runs, sup);
  return 0;
}
