// Wall-clock of the triage step of `prochecker diff` (DESIGN.md §16): the
// candidate properties model-checked on both sides under one shared pool
// (DESIGN.md §11). Times triage of srsue vs oai at jobs=1/2/4 — the median
// of --reps repetitions per level, sides resolved and product-walked once —
// and reports each side's shared-graph build (states, seconds) and
// never-claim scan, taken from diff::TriageStats. Every triaged report is
// checked against the first jobs=1 report (render and JSON): a determinism
// violation fails the benchmark.
//
//   bench_diff_triage [--left <spec>] [--right <spec>] [--reps N]
//                     [--write-json [path]]
//
// --write-json emits BENCH_diff.json (run from the repo root to place it
// there).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/thread_pool.h"
#include "diff/diff.h"
#include "diff/report_json.h"
#include "diff/sources.h"
#include "diff/triage.h"

namespace {

using namespace procheck;

struct LevelSample {
  std::size_t jobs = 1;
  std::vector<double> walls;  // one triage wall per repetition
  // Medians over the repetitions, per side.
  diff::TriageStats::SideGraph left, right;
  std::size_t findings = 0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The first repetition's side, its seconds replaced by their medians.
diff::TriageStats::SideGraph median_side(const std::vector<diff::TriageStats::SideGraph>& reps) {
  std::vector<double> build, scan;
  for (const diff::TriageStats::SideGraph& s : reps) {
    build.push_back(s.graph_build_seconds);
    scan.push_back(s.scan_seconds);
  }
  diff::TriageStats::SideGraph out = reps.front();
  out.graph_build_seconds = median(build);
  out.scan_seconds = median(scan);
  return out;
}

void write_side(std::FILE* f, const char* name, const diff::TriageStats::SideGraph& s) {
  std::fprintf(f,
               "\"%s\": {\"graph_states\": %zu, \"graph_edges\": %zu,"
               " \"graph_build_seconds\": %.3f, \"scan_answered\": %zu,"
               " \"scan_seconds\": %.4f}",
               name, s.graph_states, s.graph_edges, s.graph_build_seconds, s.scan_answered,
               s.scan_seconds);
}

void write_json(const std::string& path, const std::string& left, const std::string& right,
                int reps, const std::vector<LevelSample>& levels) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"diff_triage\",\n");
  std::fprintf(f, "  \"left\": \"%s\",\n  \"right\": \"%s\",\n", left.c_str(), right.c_str());
  std::fprintf(f, "  \"hardware_concurrency\": %zu,\n", ThreadPool::default_parallelism());
  std::fprintf(f, "  \"repetitions\": %d,\n", reps);
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const LevelSample& s = levels[i];
    std::fprintf(f,
                 "    {\"jobs\": %zu, \"triage_wall_seconds\": %.3f, \"min\": %.3f,"
                 " \"max\": %.3f, \"findings\": %zu, ",
                 s.jobs, median(s.walls), *std::min_element(s.walls.begin(), s.walls.end()),
                 *std::max_element(s.walls.begin(), s.walls.end()), s.findings);
    write_side(f, "left", s.left);
    std::fprintf(f, ", ");
    write_side(f, "right", s.right);
    std::fprintf(f, "}%s\n", i + 1 < levels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  const double j1 = median(levels.front().walls);
  const double jmax = median(levels.back().walls);
  std::fprintf(f, "  \"speedup_max_jobs_vs_jobs1\": %.2f\n}\n", jmax > 0 ? j1 / jmax : 0.0);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string left_spec = "profile:srsue";
  std::string right_spec = "profile:oai";
  std::string json_path;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--left" && i + 1 < argc) {
      left_spec = argv[++i];
    } else if (a == "--right" && i + 1 < argc) {
      right_spec = argv[++i];
    } else if (a == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
      if (reps <= 0) {
        std::fprintf(stderr, "--reps must be a positive integer\n");
        return 2;
      }
    } else if (a == "--write-json") {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "BENCH_diff.json";
    } else {
      std::fprintf(stderr,
                   "usage: bench_diff_triage [--left <spec>] [--right <spec>] [--reps N]"
                   " [--write-json [path]]\n");
      return 2;
    }
  }
  const diff::SideResult left = diff::resolve_side(left_spec);
  const diff::SideResult right = diff::resolve_side(right_spec);
  if (!left.ok || !right.ok) {
    std::fprintf(stderr, "side did not resolve: %s%s\n", left.error.c_str(),
                 right.error.c_str());
    return 2;
  }
  const diff::DiffReport walked = diff::diff_machines(left.side, right.side);

  std::vector<LevelSample> levels;
  std::string reference;
  for (std::size_t jobs : {1, 2, 4}) {
    LevelSample level;
    level.jobs = jobs;
    std::vector<diff::TriageStats::SideGraph> lstats, rstats;
    for (int r = 0; r < reps; ++r) {
      diff::TriageOptions options;
      options.jobs = jobs;
      diff::DiffReport report = walked;
      diff::TriageStats stats;
      const auto t0 = std::chrono::steady_clock::now();
      diff::triage(report, left.side, right.side, options, &stats);
      level.walls.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
      const std::string print = report.render() + diff::encode_report(report);
      if (reference.empty()) {
        reference = print;
      } else if (print != reference) {
        std::fprintf(stderr, "DETERMINISM VIOLATION: jobs=%zu report differs from jobs=1\n",
                     jobs);
        return 1;
      }
      level.findings = report.findings.size();
      lstats.push_back(stats.left);
      rstats.push_back(stats.right);
    }
    level.left = median_side(lstats);
    level.right = median_side(rstats);
    std::printf(
        "jobs=%zu: triage %.3fs (median of %d), %s graph %zu states built in %.3fs,"
        " %s graph %zu states built in %.3fs\n",
        jobs, median(level.walls), reps, left_spec.c_str(), level.left.graph_states,
        level.left.graph_build_seconds, right_spec.c_str(), level.right.graph_states,
        level.right.graph_build_seconds);
    std::fflush(stdout);
    levels.push_back(std::move(level));
  }

  TextTable t({"jobs", "triage (s)", "left build (s)", "right build (s)", "speedup vs jobs=1"});
  for (const LevelSample& s : levels) {
    char wall[32], lb[32], rb[32], speedup[32];
    std::snprintf(wall, sizeof(wall), "%.3f", median(s.walls));
    std::snprintf(lb, sizeof(lb), "%.3f", s.left.graph_build_seconds);
    std::snprintf(rb, sizeof(rb), "%.3f", s.right.graph_build_seconds);
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  median(s.walls) > 0 ? median(levels.front().walls) / median(s.walls) : 0.0);
    t.add_row({std::to_string(s.jobs), wall, lb, rb, speedup});
  }
  std::printf("\nTriage of %s vs %s (%zu hardware threads)\n%s", left_spec.c_str(),
              right_spec.c_str(), ThreadPool::default_parallelism(), t.render().c_str());
  std::printf("Reports at every jobs level are identical (determinism contract held).\n");

  if (!json_path.empty()) write_json(json_path, left_spec, right_spec, reps, levels);
  return 0;
}
