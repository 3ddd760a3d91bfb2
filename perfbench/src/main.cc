// perfbench: runs one benchmark workload for a fixed time and prints its
// metrics. Normally started through perfbench/run.py, which builds it:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --answers <dir> [--trace-out <file.jsonl>]
//             [--commit <id>] [--source-digest <hex>]
//
// (--ready-fd <n> is internal: it makes the process a set-up timing probe.)
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exit 0 when every verdict matched the pinned answers, 1
// when one did not, 2 when the run could not start.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "affinity.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using Clock = std::chrono::steady_clock;

// setup_s is the time a fresh process of this binary takes from its start
// until the workload's set-up is done, which is what a user waits before
// the first op can start. It is repeated, at least kMinSetupReps times and
// for about half a second, and its median reported: the in-process part
// alone is a few microseconds whose speed differs by 2x between processes
// (memory layout), so sampling several processes is what makes it steady.
constexpr std::size_t kMinSetupReps = 9;
constexpr std::size_t kMaxSetupReps = 51;
constexpr double kSetupBudgetS = 0.5;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Starts this binary again with `args` plus --ready-fd, and returns the
/// seconds until it reports its set-up done; waits for it to exit.
double fresh_setup_seconds(const std::map<std::string, std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> words = {"perfbench"};
  for (const auto& [key, value] : args) {
    words.push_back("--" + key);
    words.push_back(value);
  }
  words.push_back("--ready-fd");
  words.push_back(std::to_string(fds[1]));
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);

  std::fflush(nullptr);
  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::fcntl(fds[1], F_SETFD, 0);  // the write end survives exec
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  char ready = 0;
  ssize_t n = 0;
  do {
    n = ::read(fds[0], &ready, 1);
  } while (n < 0 && errno == EINTR);
  const double dt = seconds_since(t0);
  ::close(fds[0]);
  int status = 0;
  if (pid > 0) {
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (pid < 0 || n != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a fresh set-up process failed");
  }
  return dt;
}

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

void print_metric(const std::string& name, const Metric& m, const std::string& note = "") {
  std::printf("  %-30s %16.6f %-6s %s\n", name.c_str(), m.value, m.unit.c_str(), note.c_str());
}

std::string json_metrics(const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("arguments come as --key value pairs");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("arguments come as --key value pairs");
  for (const char* required : {"workload", "seed", "seconds", "trace", "answers"}) {
    if (args.count(required) == 0) return usage((std::string("missing --") + required).c_str());
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (kSanitized || !kAssertsOff ||
      (build_type != "Release" && build_type != "RelWithDebInfo" && build_type != "MinSizeRel")) {
    return usage(("refusing to report from a " + build_type +
                  (kSanitized ? " sanitizer" : "") + " build: its numbers are not comparable")
                     .c_str());
  }

  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  try {
    seed = std::stoull(args["seed"]);
    seconds = std::stod(args["seconds"]);
    trace = std::stoi(args["trace"]) != 0;
  } catch (const std::exception&) {
    return usage("--seed, --seconds and --trace take numbers");
  }
  if (seconds <= 0) return usage("--seconds must be positive");
  const std::string workload_name = args["workload"];
  auto workload = perfbench::make_workload(workload_name, seed, args["answers"]);
  if (!workload) return usage(("unknown workload " + workload_name).c_str());

  for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
    if (!perfbench::valid_metric_name(name)) return usage(("bad metric name " + name).c_str());
  }

  if (args.count("ready-fd")) {  // a set-up timing process (fresh_setup_seconds)
    try {
      workload->setup();
      const int fd = std::stoi(args["ready-fd"]);
      if (::write(fd, "r", 1) != 1) return 2;
      ::close(fd);
      workload->teardown();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
      return 2;
    }
    return 0;
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "stamp {\"nproc\": %ld, \"hardware_concurrency\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"git_commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"workload\": \"%s\", \"workload_seed\": %llu, \"trace\": %d}\n",
      nproc, std::thread::hardware_concurrency(), build_type.c_str(), PERFBENCH_COMPILER,
      args.count("commit") ? args["commit"].c_str() : "unknown",
      args.count("source-digest") ? args["source-digest"].c_str() : "unknown",
      workload_name.c_str(), static_cast<unsigned long long>(seed), trace ? 1 : 0);

  std::vector<double> setup_s;
  double own_setup_s = 0;
  try {
    {
      const perfbench::OneCpu pin;  // parent and probe hand off on one CPU (affinity.h)
      const auto begin = Clock::now();
      while (setup_s.size() < kMinSetupReps ||
             (setup_s.size() < kMaxSetupReps && seconds_since(begin) < kSetupBudgetS)) {
        setup_s.push_back(fresh_setup_seconds(args));
      }
    }
    const auto t0 = Clock::now();
    workload->setup();
    own_setup_s = seconds_since(t0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 2;
  }

  // Closed loop, one client. A traced run alternates untraced and traced
  // ops so that the tracing overhead is measured on the same host state.
  perfbench::SpanRecorder rec;
  std::vector<double> wall, cpu, traced_wall;
  std::vector<std::uint32_t> roots;
  std::map<std::size_t, std::string> failures;
  std::size_t attempted = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool time_up = seconds_since(start) >= seconds;
    if (i > 0 && time_up && (!trace || (!wall.empty() && !traced_wall.empty()))) break;
    const bool traced = trace && i % 2 == 1;
    std::uint32_t root = 0;
    if (traced) {
      rec.begin_op();
      root = rec.open("bench.op");
    }
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::string why;
    try {
      // Traced and untraced ops come in pairs on the same input.
      why = workload->op(trace ? i / 2 : i, traced ? &rec : nullptr);
    } catch (const std::exception& e) {
      why = std::string("op threw: ") + e.what();
    }
    const double dt = seconds_since(t0);
    const double dcpu = process_cpu_seconds() - cpu0;
    if (traced) {
      rec.close(root);
      roots.push_back(root);
      traced_wall.push_back(dt);
      workload->after_traced_op(i / 2);
    } else {
      wall.push_back(dt);
      cpu.push_back(dcpu);
    }
    ++attempted;
    if (!why.empty()) failures.emplace(i, why);
  }
  const double run_s = seconds_since(start);

  std::map<std::string, Metric> layers;
  try {
    if (trace) layers = workload->layer_metrics(rec);
    workload->teardown();
    for (const auto& [i, why] : workload->verify()) failures.emplace(i, why);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: verification failed: %s\n", e.what());
    return 2;
  }
  for (const auto& [i, why] : failures) std::printf("FAIL op %zu: %s\n", i, why.c_str());

  const std::size_t ops = wall.size() + traced_wall.size();
  const double external_cpu_per_op =
      workload->external_cpu_seconds() / static_cast<double>(ops);
  const double fail_frac = static_cast<double>(failures.size()) / static_cast<double>(attempted);
  std::printf("workload %s: closed loop, 1 client, seed %llu, %zu ops in %.3f s, %zu failed\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed), attempted, run_s,
              failures.size());

  std::vector<std::pair<std::string, Metric>> result;
  bool coverage_ok = true;
  if (!trace) {
    wall.resize(workload->timed_samples(wall.size()));
    cpu.resize(wall.size());
    const perfbench::TailSummary t = perfbench::summarize(wall);
    std::string tail_note = "fewer than 20 samples: no tail percentile has >= 10 samples beyond it";
    if (t.tail_p) {
      tail_note = "p" + num(*t.tail_p) + " = " + num(t.tail * 1e3) +
                  " ms is the highest percentile with >= 10 samples beyond it";
    }
    result = {
        {"setup_s", {perfbench::median(setup_s), "s"}},
        {"verdict_p50_ms", {t.p50 * 1e3, "ms"}},
        {"cpu_s", {perfbench::median(cpu) + external_cpu_per_op, "s"}},
    };
    std::printf("end-to-end (n = %zu timed ops; %s):\n", t.count, tail_note.c_str());
    for (const auto& [name, m] : result) print_metric(name, m);
    print_metric("setup_in_process_s", {own_setup_s, "s"},
                 "(this run's own set-up, after process start)");
    for (const auto& [name, m] : workload->named_metrics(wall)) print_metric(name, m);
    // Reported but not gated: with jobs=2 the peak depends on which
    // properties happen to run side by side (15-22% run-to-run spread).
    print_metric("peak_rss_mb", {peak_rss_mib(), "MiB"});
    print_metric("fail_frac", {fail_frac, "ratio"},
                 "(" + std::to_string(failures.size()) + " of " + std::to_string(attempted) + ")");
  } else {
    const std::vector<double> self = rec.self_times();
    double min_cover = 1;
    for (std::uint32_t root : roots) {
      const perfbench::Span& s = rec.span(root);
      if (s.duration() > 0) min_cover = std::min(min_cover, 1 - self[root - 1] / s.duration());
    }
    const double untraced = perfbench::median(wall);
    const double traced_med = perfbench::median(traced_wall);
    std::printf("trace: %zu traced + %zu untraced ops; named layer spans cover >= %.2f%% of "
                "each traced op\n",
                traced_wall.size(), wall.size(), 100 * min_cover);
    std::printf("trace: tracing overhead %.6f s per op (traced median %.6f s - untraced median "
                "%.6f s, %+.2f%%)\n",
                traced_med - untraced, traced_med, untraced,
                untraced > 0 ? 100 * (traced_med - untraced) / untraced : 0.0);
    std::printf("trace: self time per layer over all traced ops:\n");
    for (const auto& [layer, s] : rec.layer_self_seconds()) {
      std::printf("  %-12s %12.6f s\n", layer.c_str(), s);
    }
    if (min_cover < 0.95) {
      std::printf("FAIL trace: named layer spans cover less than 95%% of a traced op\n");
      coverage_ok = false;
    }
    std::printf("per-layer:\n");
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      const auto it = layers.find(name);
      result.emplace_back(name, it != layers.end() ? it->second : Metric{0, unit});
      print_metric(name, result.back().second);
    }
    if (args.count("trace-out") && !rec.write_jsonl(args["trace-out"])) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args["trace-out"].c_str());
      return 2;
    }
  }

  const bool correct = failures.empty() && coverage_ok;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failures.size(),
              json_metrics(result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
