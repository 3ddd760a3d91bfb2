#include "mc/reach_graph.h"

#include <algorithm>

#include "mc/state_space.h"

namespace procheck::mc {

using kernel::kNoId;

std::optional<ReachGraph> ReachGraph::build(const Model& model, const CheckOptions& options,
                                            CheckStats* stats) {
  kernel::Timer timer;
  const std::vector<Command>& commands = model.commands();
  kernel::StateSpace space(model);
  ReachGraph graph;
  graph.model_ = &model;
  graph.offsets_.push_back(0);

  auto current_bytes = [&] {
    return space.bytes() + graph.offsets_.capacity() * sizeof(std::uint32_t) +
           graph.edges_.capacity() * sizeof(Edge) +
           graph.tree_.capacity() * sizeof(Discovery);
  };

  bool inserted = false;
  space.intern(model.initial(), options.max_states, &inserted);
  bool complete = inserted;
  if (!complete && stats) stats->bound_hit = true;
  if (complete) graph.tree_.push_back({kNoId, kNoId});

  State pre(model.var_count(), 0);
  State next(model.var_count(), 0);
  std::vector<std::uint64_t> enabled;
  // Ids are handed out in discovery order, so walking them in order is the
  // checker's FIFO frontier: state `at` is expanded exactly when the
  // on-the-fly BFS would dequeue it.
  for (std::uint32_t at = 0; complete && at < space.size(); ++at) {
    if (kernel::over_budget(options, timer, current_bytes(), stats)) {
      complete = false;
      break;
    }
    space.copy_state(at, pre);
    space.enabled(pre, enabled);
    kernel::for_enabled(enabled, [&](std::size_t j) {
      if (!complete) return;
      next = pre;
      kernel::apply_command(commands[j], pre, next);
      bool fresh = false;
      std::uint32_t id = space.intern(next, options.max_states, &fresh);
      if (id == kNoId) {
        if (stats) stats->bound_hit = true;
        complete = false;
        return;
      }
      if (fresh) graph.tree_.push_back({at, static_cast<std::uint32_t>(graph.edges_.size())});
      graph.edges_.push_back({static_cast<std::uint32_t>(j), id});
    });
    graph.offsets_.push_back(static_cast<std::uint32_t>(graph.edges_.size()));
  }

  if (stats) {
    stats->states_explored = space.size();
    stats->edges_explored = graph.edges_.size();
    stats->visited_bytes = current_bytes();
    stats->seconds = timer.seconds();
  }
  if (!complete) return std::nullopt;
  graph.states_ = std::move(space).release_states();
  graph.states_.shrink_to_fit();
  graph.offsets_.shrink_to_fit();
  graph.edges_.shrink_to_fit();
  graph.tree_.shrink_to_fit();
  return graph;
}

std::vector<std::uint32_t> ReachGraph::first_hits(std::span<const EdgeMatch> matchers) const {
  std::vector<std::uint32_t> hits(matchers.size(), kNoHit);
  // Per command, the matchers that may accept it; a matcher leaves every
  // list lazily once it has its hit.
  std::vector<std::vector<std::uint32_t>> open(model_->commands().size());
  std::size_t remaining = 0;
  for (std::uint32_t m = 0; m < matchers.size(); ++m) {
    bool any = false;
    for (std::size_t j = 0; j < open.size() && j < matchers[m].commands.size(); ++j) {
      if (matchers[m].commands[j] == 0) continue;
      open[j].push_back(m);
      any = true;
    }
    remaining += any;
  }
  for (std::uint32_t at = 0; at < states() && remaining > 0; ++at) {
    const std::int32_t* pre = state_data(at);
    for (std::uint32_t k = offsets_[at]; k < offsets_[at + 1]; ++k) {
      std::vector<std::uint32_t>& list = open[edges_[k].cmd];
      for (std::size_t i = 0; i < list.size();) {
        const std::uint32_t m = list[i];
        if (hits[m] == kNoHit && matchers[m].pre_holds(pre)) {
          hits[m] = k;
          --remaining;
        }
        if (hits[m] == kNoHit) {
          ++i;
        } else {
          list[i] = list.back();
          list.pop_back();
        }
      }
    }
  }
  return hits;
}

std::optional<CounterExample> ReachGraph::edge_never_answer(std::uint32_t hit, std::size_t cap,
                                                            CheckStats* stats) const {
  kernel::Timer timer;
  CheckStats local;
  CheckStats& s = stats ? *stats : local;
  if (cap == 0) {  // the search admits not even the initial state
    s.bound_hit = true;
    s.seconds = timer.seconds();
    return std::nullopt;
  }
  // The capped search expands rows 0..cap-1 in order and stops after the
  // hit, when the hit lies in them.
  const std::size_t rows = std::min(cap, states());
  const bool found = hit < offsets_[rows];
  const std::uint32_t stop = found ? hit : offsets_[rows];
  // The states discovered before the stop are the root plus every state
  // whose discovery edge precedes it — a prefix of the ids.
  const std::size_t seen =
      1 + static_cast<std::size_t>(
              std::partition_point(tree_.begin() + 1, tree_.end(),
                                   [&](const Discovery& d) { return d.edge < stop; }) -
              (tree_.begin() + 1));
  s.edges_explored = found ? std::size_t(stop) + 1 : stop;
  s.states_explored = std::min(seen, rows);
  s.bound_hit = seen > rows;  // an earlier edge reached a state at the cap
  s.visited_bytes = s.states_explored * sizeof(Discovery);

  std::optional<CounterExample> cex;
  if (found) {
    const std::vector<Command>& commands = model_->commands();
    const std::size_t stride = model_->var_count();
    auto step = [&](const Edge& e) {
      const std::int32_t* post = state_data(e.to);
      return TraceStep{commands[e.cmd].label, commands[e.cmd].meta, State(post, post + stride)};
    };
    std::uint32_t at = static_cast<std::uint32_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), hit) - offsets_.begin() - 1);
    std::vector<TraceStep> rev{step(edges_[hit])};
    for (; tree_[at].parent != kNoId; at = tree_[at].parent) {
      rev.push_back(step(edges_[tree_[at].edge]));
    }
    cex.emplace();
    cex->steps.assign(std::make_move_iterator(rev.rbegin()), std::make_move_iterator(rev.rend()));
  }
  s.seconds = timer.seconds();
  return cex;
}

}  // namespace procheck::mc
