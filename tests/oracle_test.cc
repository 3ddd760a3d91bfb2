// Oracle for the shared reachable graph (DESIGN.md §10): every search that
// walks an mc::ReachGraph must equal the on-the-fly search it replaces —
// same verdict, same counterexample (steps, labels, post states, lasso
// start), same explored-state and edge counts, same truncation flags.
//
// The on-the-fly path is the reference. It is checked against the graph
// walk on seeded random guarded-command models (with bans, post-state
// predicates and binding state caps), then through the whole CEGAR loop on
// the cls catalog and on a srsue/oai selection that covers multi-iteration
// refinement, liveness lassos at the product-node cap and the divergent
// implementation issues.
//
// Both paths share one kernel, so the graph itself is checked against a
// naive reference BFS over Model::successors (Expr::eval guards, std::map
// visited set) on the random models and on the cls, srsue and oai threat
// models: same states in the same id order, same successor rows. The lasso
// search's verdict is checked against a naive product search as well.
//
// The never-claim scan (ReachGraph::first_hits + edge_never_answer) must
// equal the graph walk it replaces for every unrefined never-claim: on
// random compiled matchers over the random models and on every catalog
// never-claim of cls, srsue and oai, uncapped and under binding caps.
//
// The compiled walks (an mc::EdgeMatch tested on the source's rows, the
// CEGAR ban as a command mask) must equal the same query asked through
// EdgePreds, which the searches hand materialized states, and the live
// search: on random matchers and masks, and on every catalog response
// property and refined never-claim iteration under the masks CEGAR bans.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "checker/cegar.h"
#include "checker/prochecker.h"
#include "checker/supervisor.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "mc/checker.h"
#include "mc/reach_graph.h"

namespace procheck {
namespace {

// --- Random guarded-command models ------------------------------------------

struct RandomCase {
  mc::Model model;
  mc::EdgePred bad, trigger, response, allowed;
  mc::Expr good;
};

mc::Expr random_atom(Rng& rng, const mc::Model& m, int var) {
  const auto value = static_cast<std::int32_t>(rng.next_below(m.domain(var)));
  switch (rng.next_below(4)) {
    case 0:
      return mc::Expr::eq(var, value);
    case 1:
      return mc::Expr::ne(var, value);
    case 2:
      return mc::Expr::lt(var, value + 1);
    default:
      return mc::Expr::gt(var, value - 1);
  }
}

mc::Expr random_atom(Rng& rng, const mc::Model& m) {
  return random_atom(rng, m, static_cast<int>(rng.next_below(m.var_count())));
}

mc::Expr random_guard(Rng& rng, const mc::Model& m) {
  mc::Expr g = random_atom(rng, m);
  if (rng.next_below(2) == 0) g = mc::Expr::land(g, random_atom(rng, m));
  if (rng.next_below(4) == 0) g = mc::Expr::lor(g, random_atom(rng, m));
  // The shapes the kernel's guard tables compile differently: a negated
  // conjunct, a disjunction over two distinct variables under an AND (kept
  // as a residual) and a guard that can never hold.
  if (rng.next_below(4) == 0) g = mc::Expr::land(g, mc::Expr::lnot(random_atom(rng, m)));
  if (rng.next_below(3) == 0) {
    const int n = static_cast<int>(m.var_count());
    const int a = static_cast<int>(rng.next_below(n));
    const int b = (a + 1 + static_cast<int>(rng.next_below(n - 1))) % n;
    g = mc::Expr::land(g, mc::Expr::lor(random_atom(rng, m, a), random_atom(rng, m, b)));
  }
  if (rng.next_below(16) == 0) g = mc::Expr::land(g, mc::Expr::constant(false));
  return g;
}

/// An edge predicate over command membership plus pre- and post-state
/// values, so the walk's materialized states are exercised on both ends.
mc::EdgePred random_edge_pred(Rng& rng, const mc::Model& m, int density) {
  auto cmds = std::make_shared<std::vector<std::uint8_t>>();
  for (std::size_t j = 0; j < m.commands().size(); ++j) {
    cmds->push_back(static_cast<int>(rng.next_below(100)) < density ? 1 : 0);
  }
  const mc::Expr pre = random_atom(rng, m);
  const mc::Expr post = random_atom(rng, m);
  const bool use_post = rng.next_below(2) == 0;
  return [cmds, pre, post, use_post](const mc::State& a, const mc::Command& c,
                                     const mc::State& b) {
    return (*cmds)[c.index] != 0 && (pre.eval(a) || (use_post && post.eval(b)));
  };
}

RandomCase random_case(std::uint64_t seed) {
  Rng rng(seed);
  RandomCase rc;
  const int vars = 2 + static_cast<int>(rng.next_below(4));
  for (int v = 0; v < vars; ++v) {
    const auto domain = static_cast<std::int32_t>(2 + rng.next_below(3));
    rc.model.add_var("v" + std::to_string(v), domain,
                     static_cast<std::int32_t>(rng.next_below(domain)));
  }
  const int commands = 3 + static_cast<int>(rng.next_below(10));
  for (int k = 0; k < commands; ++k) {
    mc::Command cmd;
    cmd.label = "c" + std::to_string(k);
    cmd.guard = random_guard(rng, rc.model);
    const int assigns = 1 + static_cast<int>(rng.next_below(2));
    for (int a = 0; a < assigns; ++a) {
      mc::Assign as;
      as.var = static_cast<int>(rng.next_below(rc.model.var_count()));
      if (rng.next_below(4) == 0) {
        // Copies stay in-domain: only between variables of equal domain.
        const int src = static_cast<int>(rng.next_below(rc.model.var_count()));
        if (rc.model.domain(src) == rc.model.domain(as.var)) as.src = src;
      }
      as.value = static_cast<std::int32_t>(rng.next_below(rc.model.domain(as.var)));
      cmd.updates.push_back(as);
    }
    cmd.meta.actor = rng.next_below(3) == 0 ? mc::CommandMeta::Actor::kAdversary
                                            : mc::CommandMeta::Actor::kUe;
    rc.model.add_command(std::move(cmd));
  }
  rc.bad = random_edge_pred(rng, rc.model, 20);
  rc.trigger = random_edge_pred(rng, rc.model, 30);
  rc.response = random_edge_pred(rng, rc.model, 30);
  // Bans as CEGAR applies them (by command), plus a state-dependent one.
  rc.allowed = [ban = random_edge_pred(rng, rc.model, 25)](
                   const mc::State& a, const mc::Command& c, const mc::State& b) {
    return !ban(a, c, b);
  };
  rc.good = mc::Expr::lnot(mc::Expr::land(random_atom(rng, rc.model),
                                          random_atom(rng, rc.model)));
  return rc;
}

/// Everything a search reports that the graph walk must reproduce.
std::string fingerprint(const mc::Model& m, const std::optional<mc::CounterExample>& cex,
                        const mc::CheckStats& s) {
  std::string out = "states=" + std::to_string(s.states_explored) +
                    " edges=" + std::to_string(s.edges_explored) +
                    " bound=" + std::to_string(s.bound_hit) +
                    " truncated=" + std::to_string(s.truncated()) + "\n";
  if (!cex) return out + "no counterexample\n";
  out += "loop=" + std::to_string(cex->loop_start) + "\n" + cex->render(m);
  for (const mc::TraceStep& step : cex->steps) {
    out += "meta " + std::to_string(static_cast<int>(step.meta.actor)) + "/" +
           std::to_string(static_cast<int>(step.meta.kind)) + "/" + step.meta.message + "/" +
           std::to_string(step.meta.provenance) + "\n";
  }
  return out;
}

/// Whether G(trigger → F response) fails, by the plainest product search:
/// (state, pending) nodes keyed in a std::map, one adjacency list per node
/// for the edges among pending nodes, deadlocks stuttering; a violating
/// cycle exists iff peeling off pending nodes without a remaining pending
/// successor leaves some node.
bool reference_response_violated(const mc::Model& m, const mc::EdgePred& trigger,
                                 const mc::EdgePred& response, const mc::EdgePred& allowed) {
  std::map<std::pair<mc::State, bool>, std::size_t> ids;
  std::vector<std::pair<mc::State, bool>> nodes;
  std::vector<std::vector<std::size_t>> adj;
  auto id_of = [&](const mc::State& s, bool pending) {
    auto [it, fresh] = ids.emplace(std::make_pair(s, pending), nodes.size());
    if (fresh) {
      nodes.emplace_back(s, pending);
      adj.emplace_back();
    }
    return it->second;
  };
  id_of(m.initial(), false);
  for (std::size_t at = 0; at < nodes.size(); ++at) {
    const auto [pre, pending] = nodes[at];  // id_of may reallocate nodes
    bool any = false;
    m.successors(pre, [&](const mc::State& next, const mc::Command& cmd) {
      if (allowed && !allowed(pre, cmd, next)) return;
      any = true;
      const bool next_pending = (pending || trigger(pre, cmd, next)) && !response(pre, cmd, next);
      const std::size_t to = id_of(next, next_pending);
      if (pending && next_pending) adj[at].push_back(to);
    });
    if (!any && pending) adj[at].push_back(at);
  }
  std::vector<std::size_t> out_degree(nodes.size());
  std::vector<std::vector<std::size_t>> preds(nodes.size());
  std::vector<std::size_t> peel;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    out_degree[n] = adj[n].size();
    for (std::size_t to : adj[n]) preds[to].push_back(n);
    if (out_degree[n] == 0) peel.push_back(n);
  }
  std::size_t peeled = 0;
  while (!peel.empty()) {
    const std::size_t n = peel.back();
    peel.pop_back();
    ++peeled;
    for (std::size_t p : preds[n]) {
      if (--out_degree[p] == 0) peel.push_back(p);
    }
  }
  return peeled < nodes.size();
}

/// The state a lasso's loop returns to: the one before the loop's first step.
mc::State loop_entry(const mc::Model& m, const mc::CounterExample& cex) {
  return cex.loop_start == 0 ? m.initial() : cex.steps[cex.loop_start - 1].post;
}

TEST(Oracle, RandomModelsGraphWalkMatchesLiveSearch) {
  std::size_t cexs = 0, capped = 0, lassos = 0, referenced = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const RandomCase rc = random_case(seed);
    std::optional<mc::ReachGraph> graph = mc::ReachGraph::build(rc.model);
    ASSERT_TRUE(graph.has_value()) << "seed " << seed;
    const mc::Checker live(rc.model);
    const mc::Checker walk(rc.model, &*graph);
    for (std::size_t cap : {0, 1, 2, 3, 5, 9, 1'000'000}) {
      for (bool banned : {false, true}) {
        mc::CheckOptions opts;
        opts.max_states = cap;
        if (banned) opts.allowed = rc.allowed;
        const std::string where = "seed " + std::to_string(seed) + " cap " +
                                  std::to_string(cap) + (banned ? " banned" : "");
        {
          mc::CheckStats a, b;
          auto x = live.check_edge_never(rc.bad, &a, opts);
          auto y = walk.check_edge_never(rc.bad, &b, opts);
          EXPECT_EQ(fingerprint(rc.model, x, a), fingerprint(rc.model, y, b))
              << "edge-never " << where;
          cexs += x.has_value();
          capped += a.bound_hit;
        }
        {
          mc::CheckStats a, b;
          auto x = live.check_response(rc.trigger, rc.response, &a, opts);
          auto y = walk.check_response(rc.trigger, rc.response, &b, opts);
          EXPECT_EQ(fingerprint(rc.model, x, a), fingerprint(rc.model, y, b))
              << "response " << where;
          lassos += x.has_value();
          capped += a.bound_hit;
          // The pending-edge CSR must find a cycle exactly when the naive
          // product has one, and the loop must close on its entry state.
          if (!a.truncated()) {
            EXPECT_EQ(x.has_value(), reference_response_violated(rc.model, rc.trigger,
                                                                  rc.response, opts.allowed))
                << "response reference " << where;
            ++referenced;
          }
          if (x && !x->steps.empty()) {
            EXPECT_EQ(x->steps.back().post, loop_entry(rc.model, *x)) << "lasso " << where;
          }
        }
        {
          mc::CheckStats a, b;
          auto x = live.check_invariant(rc.good, &a, opts);
          auto y = walk.check_invariant(rc.good, &b, opts);
          EXPECT_EQ(fingerprint(rc.model, x, a), fingerprint(rc.model, y, b))
              << "invariant " << where;
        }
      }
    }
  }
  // The generator must actually reach every path it claims to cover.
  EXPECT_GT(cexs, 100u);
  EXPECT_GT(lassos, 100u);
  EXPECT_GT(capped, 100u);
  EXPECT_GT(referenced, 500u);
}

TEST(Oracle, TruncatedBuildYieldsNoGraph) {
  const RandomCase rc = random_case(7);
  mc::CheckStats full;
  std::optional<mc::ReachGraph> graph = mc::ReachGraph::build(rc.model, {}, &full);
  ASSERT_TRUE(graph.has_value());
  EXPECT_EQ(graph->states(), full.states_explored);
  EXPECT_EQ(graph->edges(), full.edges_explored);
  ASSERT_GT(graph->states(), 1u);

  mc::CheckOptions tight;
  tight.max_states = graph->states() - 1;
  mc::CheckStats stats;
  EXPECT_FALSE(mc::ReachGraph::build(rc.model, tight, &stats).has_value());
  EXPECT_TRUE(stats.bound_hit);

  CancelToken token;
  token.cancel();
  mc::CheckOptions cancelled;
  cancelled.cancel = &token;
  stats = {};
  EXPECT_FALSE(mc::ReachGraph::build(rc.model, cancelled, &stats).has_value());
  EXPECT_TRUE(stats.cancelled);
}

TEST(Oracle, CheckerRejectsAGraphOfAnotherModel) {
  const RandomCase a = random_case(3), b = random_case(4);
  std::optional<mc::ReachGraph> graph = mc::ReachGraph::build(a.model);
  ASSERT_TRUE(graph.has_value());
  EXPECT_THROW(mc::Checker(b.model, &*graph), std::invalid_argument);
}

// --- The catalog through the CEGAR loop ---------------------------------------

using checker::CegarOptions;
using checker::PropertyDef;
using checker::PropertyOutcome;
using checker::PropertyResult;

struct Pipeline {
  fsm::Fsm flat;
  threat::ThreatModel tm;
  cpv::LteCryptoModel::Options crypto;
  std::optional<mc::ReachGraph> graph;
};

const Pipeline& pipeline(const ue::StackProfile& profile) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<Pipeline>> cache;
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<Pipeline>& slot = cache[profile.name];
  if (!slot) {
    slot = std::make_unique<Pipeline>();
    instrument::TraceLogger trace;
    testing::run_conformance(profile, trace);
    extractor::ExtractionOptions opts;
    opts.initial_state = "EMM_DEREGISTERED";
    opts.chain_substates = false;
    slot->flat =
        extractor::extract_basic(trace.records(), extractor::ue_signatures(profile), opts);
    slot->tm = checker::ProChecker::build_threat_model(slot->flat);
    slot->crypto.usim_freshness_limit = profile.sqn_freshness_limit.has_value();
    slot->graph = mc::ReachGraph::build(slot->tm.model);
  }
  return *slot;
}

// --- Reference exploration -----------------------------------------------------
//
// The kernel (guard tables, interning) is checked against the simplest
// exploration there is: a BFS over Model::successors, which evaluates every
// guard with Expr::eval, with a std::map visited set. Ids are discovery
// order and rows are in command order, as ReachGraph promises.

struct ReferenceGraph {
  std::vector<mc::State> states;                        // id order
  std::vector<std::vector<mc::ReachGraph::Edge>> rows;  // per id, command order
};

ReferenceGraph reference_bfs(const mc::Model& m) {
  ReferenceGraph ref;
  std::map<mc::State, std::uint32_t> ids;
  auto id_of = [&](const mc::State& s) {
    auto [it, fresh] = ids.emplace(s, static_cast<std::uint32_t>(ref.states.size()));
    if (fresh) ref.states.push_back(s);
    return it->second;
  };
  id_of(m.initial());
  for (std::size_t at = 0; at < ref.states.size(); ++at) {
    const mc::State pre = ref.states[at];  // id_of may reallocate ref.states
    std::vector<mc::ReachGraph::Edge> row;
    m.successors(pre, [&](const mc::State& next, const mc::Command& cmd) {
      row.push_back({static_cast<std::uint32_t>(cmd.index), id_of(next)});
    });
    ref.rows.push_back(std::move(row));
  }
  return ref;
}

/// "" when `graph` equals the reference exactly; else the first difference.
std::string compare_to_reference(const mc::ReachGraph& graph, const mc::Model& m) {
  const ReferenceGraph ref = reference_bfs(m);
  if (graph.states() != ref.states.size()) {
    return "states " + std::to_string(graph.states()) + " vs " + std::to_string(ref.states.size());
  }
  for (std::uint32_t id = 0; id < ref.states.size(); ++id) {
    const std::int32_t* s = graph.state_data(id);
    if (!std::equal(ref.states[id].begin(), ref.states[id].end(), s)) {
      return "state " + std::to_string(id) + " differs";
    }
    const auto row = graph.successors(id);
    if (!std::equal(row.begin(), row.end(), ref.rows[id].begin(), ref.rows[id].end(),
                    [](const mc::ReachGraph::Edge& a, const mc::ReachGraph::Edge& b) {
                      return a.cmd == b.cmd && a.to == b.to;
                    })) {
      return "row " + std::to_string(id) + " differs (" + m.render_state(ref.states[id]) + ")";
    }
  }
  return "";
}

TEST(Oracle, RandomModelsReachGraphEqualsReferenceBfs) {
  std::size_t residuals = 0, never = 0, states = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const RandomCase rc = random_case(seed);
    std::optional<mc::ReachGraph> graph = mc::ReachGraph::build(rc.model);
    ASSERT_TRUE(graph.has_value()) << "seed " << seed;
    EXPECT_EQ(compare_to_reference(*graph, rc.model), "") << "seed " << seed;
    states += graph->states();
    for (const mc::Command& cmd : rc.model.commands()) {
      std::vector<mc::Expr> conjuncts;
      cmd.guard.collect_conjuncts(conjuncts);
      for (const mc::Expr& c : conjuncts) {
        std::vector<int> reads;
        c.collect_vars(reads);
        std::sort(reads.begin(), reads.end());
        residuals += std::unique(reads.begin(), reads.end()) - reads.begin() > 1;
        never += reads.empty() && !c.eval(rc.model.initial());
      }
    }
  }
  // The generator must reach the table shapes it claims to cover.
  EXPECT_GT(residuals, 300u);
  EXPECT_GT(never, 50u);
  EXPECT_GT(states, 1000u);
}

TEST(Oracle, ThreatModelGraphsEqualReferenceBfs) {
  for (const ue::StackProfile& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const Pipeline& p = pipeline(profile);
    ASSERT_TRUE(p.graph.has_value()) << profile.name;
    EXPECT_EQ(compare_to_reference(*p.graph, p.tm.model), "") << profile.name;
  }
}

struct Paths {
  PropertyResult per_property;
  PropertyResult graph;
  PropertyResult scanned;  // the graph path with the never-claim scan's answers
};

/// The never-claim scan as the supervisor runs it: one first_hits() pass
/// over the graph for every kEdgeNever property of `props`.
std::vector<std::optional<std::uint32_t>> scan(const Pipeline& p,
                                               const std::vector<const PropertyDef*>& props) {
  std::vector<std::size_t> owner;
  std::vector<mc::EdgeMatch> matchers;
  for (std::size_t i = 0; i < props.size(); ++i) {
    if (props[i]->kind != PropertyDef::Kind::kEdgeNever) continue;
    owner.push_back(i);
    matchers.push_back(props[i]->bad.compile_match(p.tm));
  }
  const std::vector<std::uint32_t> hits = p.graph->first_hits(matchers);
  std::vector<std::optional<std::uint32_t>> out(props.size());
  for (std::size_t k = 0; k < owner.size(); ++k) out[owner[k]] = hits[k];
  return out;
}

/// Runs every (property, max_states) pair through check_property three
/// times — without the shared graph, walking it, and with the scan's
/// answers — on four workers (the reference path is the slow one; each task
/// owns its verifier).
std::vector<Paths> run_both_paths(const Pipeline& p, const std::vector<const PropertyDef*>& props,
                                  const std::vector<std::size_t>& caps) {
  const std::vector<std::optional<std::uint32_t>> hits = scan(p, props);
  std::vector<Paths> out(props.size() * caps.size());
  ThreadPool pool(4);
  for (std::size_t i = 0; i < props.size(); ++i) {
    for (std::size_t c = 0; c < caps.size(); ++c) {
      pool.submit([&, i, c] {
        cpv::LteCryptoModel crypto(p.crypto);
        CegarOptions opts;
        opts.max_states = caps[c];
        Paths& slot = out[i * caps.size() + c];
        slot.per_property = checker::check_property(p.tm, p.flat, *props[i], crypto, opts);
        slot.graph = checker::check_property(p.tm, p.flat, *props[i], crypto, opts, &*p.graph);
        slot.scanned =
            checker::check_property(p.tm, p.flat, *props[i], crypto, opts, &*p.graph, hits[i]);
      });
    }
  }
  pool.wait();
  return out;
}

std::string encoded(const PropertyResult& r) {
  PropertyOutcome o;
  o.result = r;
  return checker::encode_outcome(o);
}

void expect_paths_equal(const std::vector<Paths>& all, const std::string& profile) {
  for (const Paths& p : all) {
    const PropertyResult& a = p.per_property;
    for (const PropertyResult* b : {&p.graph, &p.scanned}) {
      const std::string where =
          profile + "/" + a.property_id + (b == &p.scanned ? " (scanned)" : " (walked)");
      EXPECT_EQ(encoded(a), encoded(*b)) << where;
      EXPECT_EQ(a.total_states, b->total_states) << where;
      EXPECT_EQ(a.last_stats.states_explored, b->last_stats.states_explored) << where;
      EXPECT_EQ(a.last_stats.edges_explored, b->last_stats.edges_explored) << where;
      EXPECT_EQ(a.last_stats.bound_hit, b->last_stats.bound_hit) << where;
    }
  }
}

std::vector<const PropertyDef*> select(const std::set<std::string>& ids) {
  std::vector<const PropertyDef*> out;
  for (const PropertyDef& p : checker::property_catalog()) {
    if (ids.empty() || ids.count(p.id)) out.push_back(&p);
  }
  return out;
}

TEST(Oracle, ClsCatalogGraphPathMatchesPerPropertyPath) {
  const Pipeline& p = pipeline(ue::StackProfile::cls());
  ASSERT_TRUE(p.graph.has_value());
  const std::vector<Paths> all = run_both_paths(p, select({}), {1'000'000});
  expect_paths_equal(all, "cls");
  // The catalog exercises refinement, lassos and attacks on this profile.
  std::size_t attacks = 0, refined = 0;
  for (const Paths& r : all) {
    attacks += r.per_property.status == PropertyResult::Status::kAttack;
    refined += r.per_property.iterations > 1;
  }
  EXPECT_GE(attacks, 20u);
  EXPECT_GE(refined, 5u);
}

const std::set<std::string> kSelection = {"S05", "S06", "S07", "S20", "S21",
                                          "S25", "S36", "P02", "P03", "P07"};

TEST(Oracle, SrsueAndOaiSelectionMatches) {
  for (const ue::StackProfile& profile : {ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const Pipeline& p = pipeline(profile);
    ASSERT_TRUE(p.graph.has_value()) << profile.name;
    expect_paths_equal(run_both_paths(p, select(kSelection), {1'000'000}), profile.name);
  }
}

TEST(Oracle, BindingStateCapsMatch) {
  // Caps far below the graph size: the walk must stop where the live search
  // stops, with the same inconclusive note ("... after N states").
  const Pipeline& cls = pipeline(ue::StackProfile::cls());
  const std::vector<Paths> capped = run_both_paths(cls, select({}), {300, 5000});
  expect_paths_equal(capped, "cls");
  std::size_t bound = 0;
  for (const Paths& r : capped) bound += r.per_property.last_stats.bound_hit;
  EXPECT_GT(bound, 50u);
  for (const ue::StackProfile& profile : {ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    expect_paths_equal(run_both_paths(pipeline(profile), select(kSelection), {300, 5000}),
                       profile.name);
  }
}

// --- The never-claim scan ------------------------------------------------------

/// A random compiled matcher: a random command row plus up to two random
/// pre-state pairs (now and then one that names no value, which never holds).
mc::EdgeMatch random_match(Rng& rng, const mc::Model& m) {
  mc::EdgeMatch match;
  const auto density = 5 + rng.next_below(40);
  for (std::size_t j = 0; j < m.commands().size(); ++j) {
    match.commands.push_back(rng.next_below(100) < density ? 1 : 0);
  }
  const auto pairs = rng.next_below(3);
  for (std::uint64_t k = 0; k < pairs; ++k) {
    const int var = static_cast<int>(rng.next_below(m.var_count()));
    const auto value = rng.next_below(16) == 0
                           ? std::int32_t{-1}
                           : static_cast<std::int32_t>(rng.next_below(m.domain(var)));
    match.pre_equals.emplace_back(var, value);
  }
  return match;
}

/// A compiled matcher as an EdgePred (the adapter path of the searches).
mc::EdgePred as_pred(const mc::EdgeMatch& match) {
  return [match](const mc::State& pre, const mc::Command& cmd, const mc::State&) {
    return match.matches(pre.data(), static_cast<std::size_t>(cmd.index));
  };
}

TEST(Oracle, ScanMatchesGraphWalk) {
  std::size_t hits = 0, misses = 0, capped = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const RandomCase rc = random_case(seed);
    std::optional<mc::ReachGraph> graph = mc::ReachGraph::build(rc.model);
    ASSERT_TRUE(graph.has_value()) << "seed " << seed;
    const mc::Checker walk(rc.model, &*graph);
    Rng rng(seed * 7919 + 17);
    std::vector<mc::EdgeMatch> matchers;
    for (int k = 0; k < 6; ++k) matchers.push_back(random_match(rng, rc.model));
    const std::vector<std::uint32_t> first = graph->first_hits(matchers);
    for (std::size_t k = 0; k < matchers.size(); ++k) {
      for (std::size_t cap : {0, 1, 2, 3, 5, 9, 1'000'000}) {
        mc::CheckOptions opts;
        opts.max_states = cap;
        mc::CheckStats a, b;
        auto x = walk.check_edge_never(as_pred(matchers[k]), &a, opts);
        auto y = graph->edge_never_answer(first[k], cap, &b);
        EXPECT_EQ(fingerprint(rc.model, x, a), fingerprint(rc.model, y, b))
            << "seed " << seed << " matcher " << k << " cap " << cap;
        hits += x.has_value();
        misses += !x.has_value() && !a.truncated();
        capped += a.bound_hit;
      }
    }
  }
  // The generator must reach every outcome the scan derives.
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(misses, 300u);
  EXPECT_GT(capped, 500u);

  std::size_t claims = 0;
  for (const ue::StackProfile& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const Pipeline& p = pipeline(profile);
    ASSERT_TRUE(p.graph.has_value()) << profile.name;
    std::vector<const PropertyDef*> never;
    std::vector<mc::EdgeMatch> matchers;
    for (const PropertyDef& prop : checker::property_catalog()) {
      if (prop.kind != PropertyDef::Kind::kEdgeNever) continue;
      never.push_back(&prop);
      matchers.push_back(prop.bad.compile_match(p.tm));
    }
    const std::vector<std::uint32_t> first = p.graph->first_hits(matchers);
    const std::vector<std::size_t> caps = {1'000'000, 5000, 300};
    std::vector<std::string> walked(never.size() * caps.size());
    std::vector<std::string> answered(walked.size());
    {
      ThreadPool pool(4);
      for (std::size_t i = 0; i < never.size(); ++i) {
        for (std::size_t c = 0; c < caps.size(); ++c) {
          pool.submit([&, i, c] {
            mc::CheckOptions opts;
            opts.max_states = caps[c];
            mc::CheckStats a, b;
            const mc::Checker walk(p.tm.model, &*p.graph);
            auto x = walk.check_edge_never(as_pred(never[i]->bad.compile_match(p.tm)), &a, opts);
            auto y = p.graph->edge_never_answer(first[i], caps[c], &b);
            walked[i * caps.size() + c] = fingerprint(p.tm.model, x, a);
            answered[i * caps.size() + c] = fingerprint(p.tm.model, y, b);
          });
        }
      }
      pool.wait();
    }
    for (std::size_t n = 0; n < walked.size(); ++n) {
      EXPECT_EQ(walked[n], answered[n]) << profile.name << "/" << never[n / caps.size()]->id
                                        << " cap " << caps[n % caps.size()];
    }
    claims += never.size();
  }
  EXPECT_EQ(claims, 3u * 55u);
}

// --- Compiled walks --------------------------------------------------------------

/// The ban of `mask` as a CheckOptions::allowed predicate, optionally with a
/// state-dependent ban on top.
mc::EdgePred mask_pred(const std::vector<std::uint8_t>& mask, const mc::EdgePred& also) {
  return [mask, also](const mc::State& a, const mc::Command& c, const mc::State& b) {
    return mask[c.index] == 0 && (!also || also(a, c, b));
  };
}

/// One query asked four ways: {graph walk, live search} x {compiled
/// (EdgeMatch, ban mask), EdgePred (as_pred, mask_pred)}. A never-claim when
/// `bad` is set, else the response claim (trigger, response). `state_ban`
/// (may be empty) is a state-dependent ban both forms apply.
struct FourWays {
  std::string walk, walk_pred, live, live_pred;  // fingerprint + visited bytes
  std::string walk_fp, live_fp;                  // fingerprint alone
  bool cex = false;
  bool bound_hit = false;

  /// "" when the four agree, else which pair differs.
  std::string mismatch() const {
    if (walk != walk_pred) return "graph walk: compiled\n" + walk + "vs EdgePred\n" + walk_pred;
    if (live != live_pred) return "live: compiled\n" + live + "vs EdgePred\n" + live_pred;
    if (walk_fp != live_fp) return "compiled: walk\n" + walk_fp + "vs live\n" + live_fp;
    return "";
  }
};

FourWays four_ways(const mc::Model& m, const mc::ReachGraph& graph, const mc::EdgeMatch* bad,
                   const mc::EdgeMatch* trigger, const mc::EdgeMatch* response,
                   const std::vector<std::uint8_t>& mask, const mc::EdgePred& state_ban,
                   std::size_t cap) {
  mc::CheckOptions compiled;
  compiled.max_states = cap;
  compiled.banned = mask;
  compiled.allowed = state_ban;
  mc::CheckOptions pred;
  pred.max_states = cap;
  pred.allowed = mask_pred(mask, state_ban);
  FourWays out;
  auto run = [&](const mc::Checker& checker, bool as_edge_pred, std::string* fp) {
    mc::CheckStats stats;
    std::optional<mc::CounterExample> cex;
    if (bad && as_edge_pred) {
      cex = checker.check_edge_never(as_pred(*bad), &stats, pred);
    } else if (bad) {
      cex = checker.check_edge_never(*bad, &stats, compiled);
    } else if (as_edge_pred) {
      cex = checker.check_response(as_pred(*trigger), as_pred(*response), &stats, pred);
    } else {
      cex = checker.check_response(*trigger, *response, &stats, compiled);
    }
    const std::string f = fingerprint(m, cex, stats);
    if (fp) {
      *fp = f;
      out.cex = cex.has_value();
      out.bound_hit = stats.bound_hit;
    }
    return f + "bytes=" + std::to_string(stats.visited_bytes) + "\n";
  };
  const mc::Checker walk(m, &graph);
  const mc::Checker live(m);
  out.walk = run(walk, false, &out.walk_fp);
  out.walk_pred = run(walk, true, nullptr);
  out.live = run(live, false, &out.live_fp);
  out.live_pred = run(live, true, nullptr);
  return out;
}

TEST(Oracle, CompiledWalkMatchesPredicateWalk) {
  std::size_t cexs = 0, capped = 0, masked = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const RandomCase rc = random_case(seed);
    std::optional<mc::ReachGraph> graph = mc::ReachGraph::build(rc.model);
    ASSERT_TRUE(graph.has_value()) << "seed " << seed;
    Rng rng(seed * 104729 + 3);
    const mc::EdgeMatch bad = random_match(rng, rc.model);
    const mc::EdgeMatch trigger = random_match(rng, rc.model);
    const mc::EdgeMatch response = random_match(rng, rc.model);
    std::vector<std::uint8_t> mask;
    for (std::size_t j = 0; j < rc.model.commands().size(); ++j) {
      mask.push_back(rng.next_below(4) == 0 ? 1 : 0);
    }
    const std::vector<std::uint8_t> none(mask.size(), 0);
    for (std::size_t cap : {0, 1, 2, 3, 5, 9, 1'000'000}) {
      // No ban, the command mask alone, and the mask plus the case's
      // state-dependent ban.
      for (int ban = 0; ban < 3; ++ban) {
        const std::vector<std::uint8_t>& m = ban == 0 ? none : mask;
        const mc::EdgePred state_ban = ban == 2 ? rc.allowed : mc::EdgePred{};
        const std::string where = "seed " + std::to_string(seed) + " cap " +
                                  std::to_string(cap) + " ban " + std::to_string(ban);
        const FourWays never =
            four_ways(rc.model, *graph, &bad, nullptr, nullptr, m, state_ban, cap);
        EXPECT_EQ(never.mismatch(), "") << "edge-never " << where;
        const FourWays resp =
            four_ways(rc.model, *graph, nullptr, &trigger, &response, m, state_ban, cap);
        EXPECT_EQ(resp.mismatch(), "") << "response " << where;
        cexs += never.cex + resp.cex;
        capped += never.bound_hit + resp.bound_hit;
        masked += ban > 0 && std::count(mask.begin(), mask.end(), 1) > 0;
      }
    }
  }
  // The generator must reach every outcome the walks produce.
  EXPECT_GT(cexs, 1500u);
  EXPECT_GT(capped, 3000u);
  EXPECT_GT(masked, 2500u);

  // The catalog: every response property, and every never-claim CEGAR
  // refines, under each ban mask its refinement passes through (the
  // refinements in order: mask k bans the first k labels).
  std::size_t queries = 0, refined = 0;
  for (const ue::StackProfile& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const Pipeline& p = pipeline(profile);
    ASSERT_TRUE(p.graph.has_value()) << profile.name;
    const std::vector<const PropertyDef*> props = select({});
    const std::vector<std::optional<std::uint32_t>> hits = scan(p, props);
    struct Query {
      const PropertyDef* prop;
      mc::EdgeMatch bad, trigger, response;
      std::vector<std::uint8_t> mask;
      std::size_t cap;
    };
    std::vector<Query> work;
    for (std::size_t i = 0; i < props.size(); ++i) {
      const PropertyDef& prop = *props[i];
      const bool never = prop.kind == PropertyDef::Kind::kEdgeNever;
      cpv::LteCryptoModel crypto(p.crypto);
      const PropertyResult r =
          checker::check_property(p.tm, p.flat, prop, crypto, {}, &*p.graph, hits[i]);
      if (never && r.iterations < 2) continue;
      refined += never;
      std::vector<std::uint8_t> mask(p.tm.model.commands().size(), 0);
      for (std::size_t k = 0; k <= r.refinements.size(); ++k) {
        if (k > 0) {
          for (const mc::Command& cmd : p.tm.model.commands()) {
            if (r.refinements[k - 1].rfind("banned " + cmd.label + ": ", 0) == 0) {
              mask[cmd.index] = 1;
            }
          }
        }
        for (std::size_t cap : {1'000'000, 5000, 300}) {
          Query q{&prop, {}, {}, {}, mask, cap};
          if (never) {
            q.bad = prop.bad.compile_match(p.tm);
          } else {
            q.trigger = prop.trigger.compile_match(p.tm);
            q.response = prop.response.compile_match(p.tm);
          }
          work.push_back(std::move(q));
        }
      }
    }
    std::vector<std::string> mismatch(work.size());
    {
      ThreadPool pool(4);
      for (std::size_t n = 0; n < work.size(); ++n) {
        pool.submit([&, n] {
          const Query& q = work[n];
          const bool never = q.prop->kind == PropertyDef::Kind::kEdgeNever;
          mismatch[n] = four_ways(p.tm.model, *p.graph, never ? &q.bad : nullptr,
                                  never ? nullptr : &q.trigger, never ? nullptr : &q.response,
                                  q.mask, {}, q.cap)
                            .mismatch();
        });
      }
      pool.wait();
    }
    for (std::size_t n = 0; n < work.size(); ++n) {
      EXPECT_EQ(mismatch[n], "") << profile.name << "/" << work[n].prop->id << " cap "
                                 << work[n].cap;
    }
    queries += work.size();
  }
  // The refined never-claims (S20-S25, P21, ... on each profile), each
  // under at least two masks, and the 7 response properties per profile,
  // each at 3 caps.
  EXPECT_GE(refined, 20u);
  EXPECT_GE(queries, 3u * (3u * 7u + 2u * refined));
}

}  // namespace
}  // namespace procheck
