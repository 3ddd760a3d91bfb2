// Self-tests of the benchmark's own machinery: the percentile rule, span
// self time, learn-seed derivation, metric naming, and the timing SUL
// decorator's transparency.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "learner/lstar.h"
#include "net/remote_sul.h"
#include "net/sul_server.h"
#include "stats.h"
#include "timing_sul.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i + 1));
  return v;
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);

  struct Case {
    std::size_t n;
    std::optional<double> tail_p;
  };
  for (const Case& c : {Case{1, std::nullopt}, Case{19, std::nullopt}, Case{20, 50.0},
                        Case{99, 50.0}, Case{100, 90.0}, Case{999, 90.0}, Case{1000, 99.0},
                        Case{10000, 99.9}}) {
    const TailSummary s = summarize(ramp(c.n));
    EXPECT_EQ(s.count, c.n);
    EXPECT_EQ(s.tail_p, c.tail_p) << "n=" << c.n;
    EXPECT_DOUBLE_EQ(s.p50, (1.0 + static_cast<double>(c.n)) / 2);
  }
  const TailSummary s = summarize(ramp(100));
  EXPECT_DOUBLE_EQ(s.tail, percentile(ramp(100), 90));
  EXPECT_DOUBLE_EQ(percentile(ramp(11), 90), 10.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(SelfTime, NestedAndOverlappingChildren) {
  // Overlapping children [1,3] and [2,5] cover 4 of [0,10]; a child that
  // runs past the parent counts only inside it.
  EXPECT_DOUBLE_EQ(uncovered(0, 10, {{1, 3}, {2, 5}}), 6.0);
  EXPECT_DOUBLE_EQ(uncovered(0, 10, {{2, 5}, {1, 3}, {8, 12}}), 4.0);
  EXPECT_DOUBLE_EQ(uncovered(0, 10, {{-3, -1}, {11, 12}}), 10.0);
  EXPECT_DOUBLE_EQ(uncovered(0, 10, {{0, 10}, {3, 4}}), 0.0);
  EXPECT_DOUBLE_EQ(uncovered(5, 5, {}), 0.0);

  SpanRecorder rec;
  rec.begin_op();
  const std::uint32_t root = rec.add("bench.op", 0, 0, 10);
  const std::uint32_t a = rec.add("checker.run_supervised", root, 1, 9);
  // Two workers' property spans overlap each other inside run_supervised.
  const std::uint32_t p1 = rec.add("checker.property", a, 1, 6);
  const std::uint32_t p2 = rec.add("checker.property", a, 2, 8);
  rec.add("mc.check", p1, 1, 5);  // nested two levels below the root
  rec.add("mc.check", p2, 2, 7);
  const std::vector<double> self = rec.self_times();
  EXPECT_DOUBLE_EQ(self[root - 1], 2.0);  // only the root's direct child counts
  EXPECT_DOUBLE_EQ(self[a - 1], 1.0);     // [1,8] covered by the union of workers
  EXPECT_DOUBLE_EQ(self[p1 - 1], 1.0);
  EXPECT_DOUBLE_EQ(self[p2 - 1], 1.0);
  const auto layers = rec.layer_self_seconds();
  EXPECT_DOUBLE_EQ(layers.at("mc"), 9.0);
  EXPECT_DOUBLE_EQ(layers.at("checker"), 3.0);
  EXPECT_DOUBLE_EQ(layers.at("bench"), 2.0);

  // Scopes nest under the innermost open span.
  SpanRecorder live;
  std::uint32_t outer = 0;
  std::uint32_t inner = 0;
  {
    SpanRecorder::Scope o(live, "learner.learn_mealy");
    outer = o.id();
    SpanRecorder::Scope i(live, "net.query_batch");
    inner = i.id();
  }
  EXPECT_EQ(live.span(inner).parent, outer);
  EXPECT_EQ(live.span(outer).parent, 0u);
  EXPECT_GE(live.span(outer).end, live.span(inner).end);
}

TEST(LearnSeeds, DerivedDeterministicallyFromTheWorkloadSeed) {
  EXPECT_EQ(derive_learn_seed(7, 1, 3), derive_learn_seed(7, 1, 3));
  EXPECT_NE(derive_learn_seed(7, 1, 3), derive_learn_seed(8, 1, 3));
  EXPECT_NE(derive_learn_seed(7, 1, 3), derive_learn_seed(7, 2, 3));
  EXPECT_NE(derive_learn_seed(7, 1, 3), derive_learn_seed(7, 1, 4));

  for (std::uint64_t seed : {1ULL, 2ULL, 42ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    // The same workload seed gives the same plan, op by op; every whole
    // cycle of the pool learns each (profile, learn seed) exactly once.
    const std::size_t cycle = 3 * kLearnPool;
    std::set<std::pair<int, std::uint64_t>> seen;
    for (std::size_t i = 0; i < 2 * cycle; ++i) {
      const LearnPlan a = learn_plan(seed, i);
      const LearnPlan b = learn_plan(seed, i);
      EXPECT_EQ(a.profile, b.profile);
      EXPECT_EQ(a.learn_seed, b.learn_seed);
      EXPECT_EQ(a.profile, static_cast<int>(i % 3));
      if (i < cycle) {
        EXPECT_TRUE(seen.emplace(a.profile, a.learn_seed).second);
      }
    }
    EXPECT_EQ(seen.size(), cycle);
  }
  // Different workload seeds start the pool at different points.
  std::set<std::uint64_t> first;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) first.insert(learn_plan(seed, 0).learn_seed);
  EXPECT_GT(first.size(), 1u);
}

TEST(MetricNames, RestrictedCharset) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    EXPECT_TRUE(valid_metric_name(name)) << name;
    EXPECT_FALSE(unit.empty()) << name;
  }
  for (const char* good : {"setup_s", "verdict_p50_ms", "mc.states", "a-b", "9lives"}) {
    EXPECT_TRUE(valid_metric_name(good)) << good;
  }
  for (const char* bad : {"", "_x", ".x", "a b", "a/b", "mc:states", "é"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

/// Records which virtuals reached it.
class RecordingSul final : public procheck::learner::Sul {
 public:
  void reset() override { calls.insert("reset"); }
  std::string step(const std::string& in) override {
    calls.insert("step");
    return "out_" + in;
  }
  long resets() const override { return 11; }
  long steps() const override { return 22; }
  std::string unavailable_reason() const override { return "because"; }
  std::vector<std::string> query_word(const std::vector<std::string>& w) override {
    calls.insert("query_word");
    return std::vector<std::string>(w.size(), "w");
  }
  std::vector<std::vector<std::string>> query_batch(
      const std::vector<std::vector<std::string>>& ws) override {
    calls.insert("query_batch");
    return std::vector<std::vector<std::string>>(ws.size(), {"b"});
  }
  std::vector<std::string> query_word_fresh(const std::vector<std::string>& w) override {
    calls.insert("query_word_fresh");
    return std::vector<std::string>(w.size(), "f");
  }
  std::set<std::string> calls;
};

TEST(TimingSul, ForwardsEveryVirtual) {
  RecordingSul inner;
  SpanRecorder rec;
  TimingSul t(inner, rec);
  t.reset();
  EXPECT_EQ(t.step("x"), "out_x");
  EXPECT_EQ(t.query_word({"a", "b"}), (std::vector<std::string>{"w", "w"}));
  EXPECT_EQ(t.query_batch({{"a"}, {"b"}}).size(), 2u);
  EXPECT_EQ(t.query_word_fresh({"a"}), (std::vector<std::string>{"f"}));
  EXPECT_EQ(t.resets(), 11);
  EXPECT_EQ(t.steps(), 22);
  EXPECT_EQ(t.unavailable_reason(), "because");
  EXPECT_EQ(inner.calls, (std::set<std::string>{"reset", "step", "query_word", "query_batch",
                                                "query_word_fresh"}));
  EXPECT_EQ(rec.spans().size(), 5u);
  EXPECT_EQ(t.take_words().size(), 4u);
  EXPECT_EQ(t.calls().batch.size(), 1u);
}

void expect_same_learn(const procheck::learner::LearnResult& a,
                       const procheck::learner::LearnResult& b) {
  EXPECT_EQ(a.machine.initial, b.machine.initial);
  EXPECT_EQ(a.machine.state_count, b.machine.state_count);
  EXPECT_EQ(a.machine.delta, b.machine.delta);
  EXPECT_EQ(a.machine.to_fsm().to_dot(), b.machine.to_fsm().to_dot());
  EXPECT_EQ(a.membership_queries, b.membership_queries);
  EXPECT_EQ(a.equivalence_queries, b.equivalence_queries);
  EXPECT_EQ(a.counterexamples, b.counterexamples);
  EXPECT_EQ(a.sul_resets, b.sul_resets);
  EXPECT_EQ(a.sul_steps, b.sul_steps);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_prefix_hits, b.cache_prefix_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.nondeterministic_cached, b.nondeterministic_cached);
  EXPECT_EQ(a.batch_queries, b.batch_queries);
  EXPECT_EQ(a.batched_words, b.batched_words);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.inconclusive, b.inconclusive);
  EXPECT_EQ(a.note, b.note);
}

TEST(TimingSul, DecoratedLearnIsByteIdentical) {
  const procheck::ue::StackProfile profile = procheck::ue::StackProfile::srsue();
  procheck::learner::LearnOptions opts;
  opts.seed = 0xC0FFEE;

  procheck::learner::UeSul plain_local(profile);
  const auto plain = procheck::learner::learn_mealy(plain_local, opts);
  procheck::learner::UeSul wrapped_local(profile);
  SpanRecorder rec;
  TimingSul timing_local(wrapped_local, rec);
  const auto decorated = procheck::learner::learn_mealy(timing_local, opts);
  expect_same_learn(plain, decorated);
  EXPECT_TRUE(plain.converged);
  EXPECT_GT(timing_local.inside_seconds(), 0);

  // The same over the wire: a RemoteUeSul session against a SulServer.
  procheck::net::SulServerOptions sopts;
  sopts.psk = "selftest";
  sopts.max_sessions = 1;
  procheck::net::SulServer server(profile, sopts);
  ASSERT_TRUE(server.start()) << server.start_error();
  procheck::net::RemoteSulOptions ropts;
  ropts.port = server.port();
  ropts.psk = "selftest";
  procheck::learner::LearnResult remote_plain;
  {
    procheck::net::RemoteUeSul remote(ropts);
    remote_plain = procheck::learner::learn_mealy(remote, opts);
  }
  while (server.active_sessions() > 0) std::this_thread::yield();
  procheck::learner::LearnResult remote_decorated;
  {
    procheck::net::RemoteUeSul remote(ropts);
    TimingSul timing(remote, rec);
    remote_decorated = procheck::learner::learn_mealy(timing, opts);
    EXPECT_FALSE(timing.calls().batch.empty());
  }
  server.stop();
  expect_same_learn(remote_plain, remote_decorated);
  EXPECT_EQ(remote_plain.machine.delta, plain.machine.delta);
  EXPECT_EQ(remote_plain.membership_queries, plain.membership_queries);
}

}  // namespace
}  // namespace perfbench
