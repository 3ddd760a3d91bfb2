// Scalability of the full-catalog analysis (the RQ3 trajectory data): runs
// the complete 62-property verification of the CLS profile at jobs=1/2/4
// and reports wall-clock seconds, model-checker throughput (states/sec),
// the peak visited-set footprint of any single property search, and the
// shared reachable graph the searches walked (DESIGN.md §10): `states` sums
// the states each property's searches visited, `graph_states` the states
// interned once for all of them (before the shared graph, every search
// interned its own `states`), and `scan_answered` / `scan_seconds` the
// never-claims whose first iteration one scan of the graph answered.
// `walk_seconds` sums the properties' search time (PropertyResult::
// total_seconds) and splits out the two parts that still walk the graph:
// never-claims refined past their scanned first iteration, and the
// response (liveness) properties.
//
//   bench_catalog_parallel [--profile <cls|srsue|oai>] [--write-json <path>]
//                          [--supervised]
//
// --write-json emits BENCH_catalog.json (machine-readable trajectory file;
// run from the repo root to place it there). Every run's report is checked
// against the jobs=1 report — a determinism violation fails the benchmark.
//
// --supervised additionally measures the fault-free cost of the analysis
// supervisor (retries armed + durable journal) against jobs=1 baselines:
// kSupervisedPairs interleaved (baseline, supervised) pairs, alternating
// which run goes first, and fails the benchmark if the median of the
// per-pair overheads reaches 3%. One pair is not an estimate: single cls
// pairs range over tens of percent on a shared host. With --write-json the
// measurement is written (as the "supervised" block) before the gate
// decides the exit status.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
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
  std::size_t graph_states = 0;
  double graph_build_seconds = 0;
  std::size_t scan_answered = 0;
  double scan_seconds = 0;
  double walk_seconds = 0;
  double walk_refined_never_seconds = 0;
  double walk_response_seconds = 0;
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
  s.graph_states = rep.graph_states;
  s.graph_build_seconds = rep.graph_build_seconds;
  s.scan_answered = rep.scan_answered;
  s.scan_seconds = rep.scan_seconds;
  std::map<std::string, checker::PropertyDef::Kind> kind;
  for (const checker::PropertyDef& p : checker::property_catalog()) kind[p.id] = p.kind;
  for (const checker::PropertyResult& r : rep.results) {
    s.states += r.total_states;
    s.peak_visited_bytes = std::max(s.peak_visited_bytes, r.peak_visited_bytes);
    s.walk_seconds += r.total_seconds;
    if (kind[r.property_id] == checker::PropertyDef::Kind::kResponse) {
      s.walk_response_seconds += r.total_seconds;
    } else if (r.iterations > 1) {
      s.walk_refined_never_seconds += r.total_seconds;
    }
  }
  *print = fingerprint(rep);
  return s;
}

constexpr int kSupervisedPairs = 9;
constexpr double kSupervisedBoundPct = 3.0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct SupervisedSample {
  bool measured = false;
  int pairs = 0;
  double baseline_wall = 0;    // median over the pairs
  double supervised_wall = 0;  // median over the pairs
  double overhead_pct = 0;     // median of the per-pair overheads
  double min_pair_pct = 0;
  double max_pair_pct = 0;
  std::size_t journal_records = 0;

  bool within_bound() const { return overhead_pct < kSupervisedBoundPct; }
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
                 " \"graph_states\": %zu, \"graph_build_seconds\": %.3f,"
                 " \"scan_answered\": %zu, \"scan_seconds\": %.4f,"
                 " \"walk_seconds\": {\"all\": %.3f, \"refined_never\": %.3f,"
                 " \"response\": %.3f}, \"verified\": %d, \"attacks\": %d}%s\n",
                 s.jobs, s.wall_seconds, s.states,
                 s.wall_seconds > 0 ? static_cast<double>(s.states) / s.wall_seconds : 0.0,
                 s.peak_visited_bytes, s.graph_states, s.graph_build_seconds, s.scan_answered,
                 s.scan_seconds, s.walk_seconds, s.walk_refined_never_seconds,
                 s.walk_response_seconds, s.verified, s.attacks,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  double j1 = runs.front().wall_seconds;
  double jmax = runs.back().wall_seconds;
  std::fprintf(f, "  \"speedup_max_jobs_vs_jobs1\": %.2f%s\n", jmax > 0 ? j1 / jmax : 0.0,
               sup.measured ? "," : "");
  if (sup.measured) {
    std::fprintf(f,
                 "  \"supervised\": {\"pairs\": %d, \"estimator\": \"median of pair overheads\","
                 " \"baseline_wall_seconds\": %.3f, \"supervised_wall_seconds\": %.3f,"
                 " \"overhead_pct\": %.2f, \"min_pair_overhead_pct\": %.2f,"
                 " \"max_pair_overhead_pct\": %.2f, \"bound_pct\": %.1f,"
                 " \"within_bound\": %s, \"journal_records\": %zu}\n",
                 sup.pairs, sup.baseline_wall, sup.supervised_wall, sup.overhead_pct,
                 sup.min_pair_pct, sup.max_pair_pct, kSupervisedBoundPct,
                 sup.within_bound() ? "true" : "false", sup.journal_records);
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
  for (int jobs : {1, 2, 4}) {
    std::string print;
    RunSample s = run_catalog(profile, jobs, &print);
    if (jobs == 1) {
      reference = print;
    } else if (print != reference) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: jobs=%d report differs from jobs=1\n",
                   jobs);
      return 1;
    }
    std::printf(
        "jobs=%d: %.2fs wall, %zu states (%.0f states/sec), peak visited %.1f MiB,"
        " graph %zu states built in %.2fs, scan answered %zu never-claims in %.4fs,"
        " walks %.3fs (refined never-claims %.3fs, response %.3fs)\n",
        s.jobs, s.wall_seconds, s.states,
        s.wall_seconds > 0 ? static_cast<double>(s.states) / s.wall_seconds : 0.0,
        static_cast<double>(s.peak_visited_bytes) / (1024.0 * 1024.0), s.graph_states,
        s.graph_build_seconds, s.scan_answered, s.scan_seconds, s.walk_seconds,
        s.walk_refined_never_seconds, s.walk_response_seconds);
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
    // extra work. Each pair runs its baseline and supervised catalogs back
    // to back (the order alternates), so machine drift moves both alike.
    const std::string journal = "/tmp/bench_catalog_journal.jsonl";
    std::vector<double> base_walls, sup_walls, overheads;
    for (int pair = 0; pair < kSupervisedPairs; ++pair) {
      std::array<double, 2> wall{};  // baseline, supervised
      for (int k = 0; k < 2; ++k) {
        const bool is_supervised = (k == 0) == (pair % 2 == 1);
        std::string print;
        std::remove(journal.c_str());
        RunSample s = is_supervised ? run_catalog(profile, 1, &print, journal, /*retries=*/2)
                                    : run_catalog(profile, 1, &print);
        if (print != reference) {
          std::fprintf(stderr, "DETERMINISM VIOLATION: supervised report differs from jobs=1\n");
          return 1;
        }
        wall[is_supervised ? 1 : 0] = s.wall_seconds;
        if (is_supervised) {
          // Header line is bookkeeping, not an outcome.
          JournalLoad load = load_journal(journal);
          sup.journal_records = load.payloads.empty() ? 0 : load.payloads.size() - 1;
        }
      }
      base_walls.push_back(wall[0]);
      sup_walls.push_back(wall[1]);
      overheads.push_back(wall[0] > 0 ? (wall[1] - wall[0]) / wall[0] * 100.0 : 0.0);
    }
    std::remove(journal.c_str());
    sup.measured = true;
    sup.pairs = kSupervisedPairs;
    sup.baseline_wall = median(base_walls);
    sup.supervised_wall = median(sup_walls);
    sup.overhead_pct = median(overheads);
    sup.min_pair_pct = *std::min_element(overheads.begin(), overheads.end());
    sup.max_pair_pct = *std::max_element(overheads.begin(), overheads.end());
    std::printf(
        "\nSupervised overhead (jobs=1, fault-free, median of %d interleaved pairs):"
        " baseline %.2fs, supervised %.2fs, overhead %.2f%% (pairs %.2f%% .. %.2f%%),"
        " %zu journal records\n",
        sup.pairs, sup.baseline_wall, sup.supervised_wall, sup.overhead_pct, sup.min_pair_pct,
        sup.max_pair_pct, sup.journal_records);
  }

  // The measurement is written either way; the gate is the exit status.
  if (!json_path.empty()) write_json(json_path, profile.name, runs, sup);
  if (sup.measured && !sup.within_bound()) {
    std::fprintf(stderr, "SUPERVISED OVERHEAD EXCEEDS %.0f%% (median %.2f%%)\n",
                 kSupervisedBoundPct, sup.overhead_pct);
    return 1;
  }
  return 0;
}
