#include "mc/reach_graph.h"

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
           graph.edges_.capacity() * sizeof(Edge);
  };

  bool inserted = false;
  space.intern(model.initial(), options.max_states, &inserted);
  bool complete = inserted;
  if (!complete && stats) stats->bound_hit = true;

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
  return graph;
}

}  // namespace procheck::mc
