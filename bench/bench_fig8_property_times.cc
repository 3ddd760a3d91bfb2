// Regenerates **Figure 8** of the paper: per-property verification time for
// the 14 common properties, on ProChecker's automatically extracted model
// (Pro^μ, closed-source profile) versus LTEInspector's manual model
// (LTE^μ). The paper's claim (RQ3): the richer extracted model verifies
// with time "only a fraction higher" than the hand-built one — i.e. the
// automatic extraction does not break COTS model-checker scalability.
//
// Both models are the flat (`chain_substates = false`) machines the checker
// analyzes; RQ2's sizes come from the rich extraction, which keeps the
// substates and so has more states and transitions.
//
//   bench_fig8_property_times [--write-json [path]] [benchmark flags]
//
// --write-json writes the figure (default BENCH_fig8.json) with the host's
// CPU model and hardware concurrency.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "checker/baseline.h"
#include "checker/cegar.h"
#include "checker/prochecker.h"
#include "checker/property.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "extractor/extractor.h"
#include "testing/conformance.h"

namespace {

using namespace procheck;
using checker::PropertyDef;

struct Models {
  fsm::Fsm pro;  // extracted from the closed-source profile's log
  fsm::Fsm lte;  // the manual LTEInspector machine
};

const Models& models() {
  static const Models m = [] {
    Models out;
    instrument::TraceLogger trace;
    testing::run_conformance(ue::StackProfile::cls(), trace);
    extractor::ExtractionOptions opts;
    opts.chain_substates = false;
    opts.initial_state = "EMM_DEREGISTERED";
    out.pro = extractor::extract_basic(trace.records(),
                                       extractor::ue_signatures(ue::StackProfile::cls()), opts);
    out.lte = checker::lteinspector_ue_model();
    return out;
  }();
  return m;
}

struct Timing {
  double pro_seconds = 0;
  double lte_seconds = 0;
  std::size_t pro_states = 0;
  std::size_t lte_states = 0;
};

std::map<std::string, Timing>& timings() {
  static std::map<std::string, Timing> t;
  return t;
}

double run_property(const fsm::Fsm& ue_model, const PropertyDef& prop, std::size_t* states) {
  threat::ThreatModel tm = threat::compose(ue_model, checker::lteinspector_mme_model());
  cpv::LteCryptoModel crypto;
  checker::PropertyResult r = checker::check_property(tm, ue_model, prop, crypto);
  if (states) *states = r.last_stats.states_explored;
  return r.total_seconds;
}

void BM_CommonProperty(benchmark::State& state, const PropertyDef* prop, bool on_pro) {
  const fsm::Fsm& model = on_pro ? models().pro : models().lte;
  for (auto _ : state) {
    std::size_t states_explored = 0;
    double seconds = run_property(model, *prop, &states_explored);
    Timing& t = timings()[prop->id];
    if (on_pro) {
      t.pro_seconds = seconds;
      t.pro_states = states_explored;
    } else {
      t.lte_seconds = seconds;
      t.lte_states = states_explored;
    }
    state.counters["mc_states"] = static_cast<double>(states_explored);
  }
}

void register_benchmarks() {
  for (const PropertyDef* prop : checker::common_properties()) {
    benchmark::RegisterBenchmark(("Fig8/ProChecker/" + prop->id).c_str(), BM_CommonProperty,
                                 prop, /*on_pro=*/true)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(("Fig8/LTEInspector/" + prop->id).c_str(), BM_CommonProperty,
                                 prop, /*on_pro=*/false)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

void print_fig8() {
  TextTable t({"Property", "LTEInspector (s)", "ProChecker (s)", "ratio", "Pro states",
               "LTE states"});
  double total_pro = 0;
  double total_lte = 0;
  int i = 0;
  for (const PropertyDef* prop : checker::common_properties()) {
    const Timing& tim = timings()[prop->id];
    total_pro += tim.pro_seconds;
    total_lte += tim.lte_seconds;
    char pro[32], lte[32], ratio[32];
    std::snprintf(pro, sizeof(pro), "%.4f", tim.pro_seconds);
    std::snprintf(lte, sizeof(lte), "%.4f", tim.lte_seconds);
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  tim.lte_seconds > 0 ? tim.pro_seconds / tim.lte_seconds : 0.0);
    t.add_row({std::to_string(++i) + ". " + prop->id, lte, pro, ratio,
               std::to_string(tim.pro_states), std::to_string(tim.lte_states)});
  }
  std::printf("\nFIGURE 8: Execution time of the common properties (paper Fig. 8)\n%s\n",
              t.render().c_str());
  std::printf("Totals: ProChecker %.3fs vs LTEInspector %.3fs (overall ratio %.2fx).\n"
              "Expected shape per the paper: the automatically extracted model checks only a"
              " fraction slower than the manual one.\n",
              total_pro, total_lte, total_lte > 0 ? total_pro / total_lte : 0.0);
  std::printf("Model sizes: Pro^u %zu states / %zu transitions; LTE^u %zu states / %zu"
              " transitions.\n",
              models().pro.stats().states, models().pro.stats().transitions,
              models().lte.stats().states, models().lte.stats().transitions);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
  }
  return "unknown";
}

void write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const fsm::Fsm::Stats pro = models().pro.stats();
  const fsm::Fsm::Stats lte = models().lte.stats();
  std::fprintf(f, "{\n  \"benchmark\": \"fig8_property_times\",\n");
  std::fprintf(f, "  \"cpu_model\": \"%s\",\n", cpu_model().c_str());
  std::fprintf(f, "  \"hardware_concurrency\": %zu,\n", ThreadPool::default_parallelism());
  std::fprintf(f,
               "  \"models\": {\"pro\": {\"states\": %zu, \"transitions\": %zu},"
               " \"lte\": {\"states\": %zu, \"transitions\": %zu}},\n",
               pro.states, pro.transitions, lte.states, lte.transitions);
  std::fprintf(f, "  \"properties\": [\n");
  double total_pro = 0;
  double total_lte = 0;
  const std::vector<const PropertyDef*> common = checker::common_properties();
  for (std::size_t i = 0; i < common.size(); ++i) {
    const Timing& t = timings()[common[i]->id];
    total_pro += t.pro_seconds;
    total_lte += t.lte_seconds;
    std::fprintf(f,
                 "    {\"id\": \"%s\", \"pro_seconds\": %.4f, \"lte_seconds\": %.4f,"
                 " \"pro_states\": %zu, \"lte_states\": %zu}%s\n",
                 common[i]->id.c_str(), t.pro_seconds, t.lte_seconds, t.pro_states,
                 t.lte_states, i + 1 < common.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"total_pro_seconds\": %.3f,\n  \"total_lte_seconds\": %.3f,\n"
               "  \"ratio_pro_vs_lte\": %.2f\n}\n",
               total_pro, total_lte, total_lte > 0 ? total_pro / total_lte : 0.0);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  // Takes --write-json out of argv before Google Benchmark reads its flags.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write-json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "BENCH_fig8.json";
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  print_fig8();
  if (!json_path.empty()) write_json(json_path);
  return 0;
}
