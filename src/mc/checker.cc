#include "mc/checker.h"

#include <algorithm>
#include <stdexcept>

#include "mc/reach_graph.h"
#include "mc/state_space.h"

namespace procheck::mc {

std::string CounterExample::render(const Model& model) const {
  std::string out;
  out.reserve(steps.size() * 128 + 64);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (loop_start >= 0 && static_cast<int>(i) == loop_start) {
      out += "  -- loop starts here --\n";
    }
    out += "  ";
    out += std::to_string(i + 1);
    out += ". ";
    out += steps[i].label;
    out += "\n       ";
    out += model.render_state(steps[i].post);
    out += "\n";
  }
  if (loop_start >= 0) out += "  -- loop repeats forever --\n";
  return out;
}

std::string CounterExample::to_dot(const Model& model) const {
  std::string out;
  out.reserve(steps.size() * 192 + 128);
  out += "digraph counterexample {\n  rankdir=TB;\n  node [shape=box];\n";
  out += "  s0 [label=\"";
  out += model.render_state(model.initial());
  out += "\", fontsize=9];\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    out += "  s";
    out += std::to_string(i + 1);
    out += " [label=\"";
    out += model.render_state(steps[i].post);
    out += "\", fontsize=9];\n";
    bool adversarial = steps[i].meta.actor == CommandMeta::Actor::kAdversary;
    out += "  s";
    out += std::to_string(i);
    out += " -> s";
    out += std::to_string(i + 1);
    out += " [label=\"";
    out += steps[i].label;
    out += "\"";
    if (adversarial) out += ", color=red, fontcolor=red";
    out += "];\n";
  }
  if (loop_start >= 0 && !steps.empty()) {
    out += "  s";
    out += std::to_string(steps.size());
    out += " -> s";
    out += std::to_string(loop_start);
    out += " [style=dashed, label=\"loop\"];\n";
  }
  out += "}\n";
  return out;
}

std::vector<const TraceStep*> CounterExample::adversary_steps() const {
  std::vector<const TraceStep*> out;
  for (const TraceStep& s : steps) {
    if (s.meta.actor == CommandMeta::Actor::kAdversary) out.push_back(&s);
  }
  return out;
}

// --- Successor sources ---------------------------------------------------
//
// Every search below is written once, over a successor source that owns the
// search's visited set. The live source interns states as they are reached
// (the on-the-fly kernel); the graph source walks a prebuilt ReachGraph and
// only tracks which graph states this search has discovered. Both number
// states in discovery order and enumerate a state's enabled commands in
// command order, so a search produces the same trace and the same counts
// over either source.

namespace {

using kernel::kNoId;

class LiveSource {
 public:
  explicit LiveSource(const Model& model)
      : model_(model),
        space_(model),
        pre_(model.var_count(), 0),
        next_(model.var_count(), 0) {}

  /// Visits the initial state; kNoId when `cap` rejects it.
  std::uint32_t visit_root(std::size_t cap, bool* fresh) {
    return space_.intern(model_.initial(), cap, fresh);
  }

  /// Calls fn(command index, pre row, post row, successor token) for every
  /// enabled command of state `id`; the token is what visit() takes. The
  /// rows hold var_count() values and are valid only during the call.
  template <typename Fn>
  void expand(std::uint32_t id, Fn&& fn) {
    // A local copy: the arena may reallocate on insert.
    space_.copy_state(id, pre_);
    space_.enabled(pre_, enabled_);
    const std::vector<Command>& commands = model_.commands();
    kernel::for_enabled(enabled_, [&](std::size_t j) {
      next_ = pre_;
      kernel::apply_command(commands[j], pre_, next_);
      fn(j, pre_.data(), next_.data(), j);
    });
  }

  /// Visits the post state of the edge being expanded (the token is its
  /// command index, unused here): its id, or kNoId for a new state at
  /// `cap`; *fresh tells whether this visit discovered it.
  std::uint32_t visit(std::size_t /*cmd*/, std::size_t cap, bool* fresh) {
    return space_.intern(next_, cap, fresh);
  }

  std::size_t size() const { return space_.size(); }
  std::size_t bytes() const { return space_.bytes(); }
  State state(std::uint32_t id) const { return space_.state(id); }

 private:
  const Model& model_;
  kernel::StateSpace space_;
  State pre_, next_;
  std::vector<std::uint64_t> enabled_;
};

class GraphSource {
 public:
  explicit GraphSource(const ReachGraph& graph)
      : graph_(graph), stride_(graph.model().var_count()), local_of_(graph.states(), kNoId) {}

  std::uint32_t visit_root(std::size_t cap, bool* fresh) { return visit(0, cap, fresh); }

  /// The rows are the graph's own: nothing is copied per edge.
  template <typename Fn>
  void expand(std::uint32_t id, Fn&& fn) {
    const std::uint32_t at = graph_of_[id];
    const std::int32_t* pre = graph_.state_data(at);
    for (const ReachGraph::Edge& e : graph_.successors(at)) {
      fn(e.cmd, pre, graph_.state_data(e.to), e.to);
    }
  }

  std::uint32_t visit(std::uint32_t to, std::size_t cap, bool* fresh) {
    *fresh = false;
    if (local_of_[to] != kNoId) return local_of_[to];
    if (graph_of_.size() >= cap) return kNoId;
    *fresh = true;
    local_of_[to] = static_cast<std::uint32_t>(graph_of_.size());
    graph_of_.push_back(to);
    return local_of_[to];
  }

  std::size_t size() const { return graph_of_.size(); }
  std::size_t bytes() const {
    return (local_of_.capacity() + graph_of_.capacity()) * sizeof(std::uint32_t);
  }
  State state(std::uint32_t id) const {
    const std::int32_t* p = graph_.state_data(graph_of_[id]);
    return State(p, p + stride_);
  }

 private:
  const ReachGraph& graph_;
  std::size_t stride_;
  std::vector<std::uint32_t> local_of_;  // graph id -> search id (kNoId: unseen)
  std::vector<std::uint32_t> graph_of_;  // search id -> graph id
};

// --- Edge tests ------------------------------------------------------------
//
// A search tests each edge on the (command index, pre row, post row) its
// source hands out. CEGAR's predicates are EdgeMatches and its ban a command
// mask, so on its path an edge costs a mask byte, a command-row byte and the
// pre_equals compares, all in place. An EdgePred (state-dependent test
// predicates and bans) goes through PredRows, which copies the rows into
// States for it. Either way the search itself, and so every trace and
// count, is the same.

/// An EdgeMatch as an edge test.
struct MatchRows {
  const EdgeMatch& match;
  bool operator()(std::size_t cmd, const std::int32_t* pre, const std::int32_t*) const {
    return match.matches(pre, cmd);
  }
};

/// An EdgePred as an edge test: materializes the pre and post states for it.
class PredRows {
 public:
  PredRows(const Model& model, const EdgePred& pred)
      : commands_(model.commands()), pred_(pred), stride_(model.var_count()) {}

  bool operator()(std::size_t cmd, const std::int32_t* pre, const std::int32_t* post) const {
    pre_.assign(pre, pre + stride_);
    post_.assign(post, post + stride_);
    return pred_(pre_, commands_[cmd], post_);
  }

 private:
  const std::vector<Command>& commands_;
  const EdgePred& pred_;
  std::size_t stride_;
  mutable State pre_, post_;  // scratch: a search owns its tests
};

/// The refinement filter: true for an edge that CheckOptions::banned (by
/// command) or, when one is set, CheckOptions::allowed prunes.
class Ban {
 public:
  Ban(const Model& model, const CheckOptions& options)
      : mask_(options.banned.data()), size_(options.banned.size()) {
    if (options.allowed) allowed_.emplace(model, options.allowed);
  }

  bool operator()(std::size_t cmd, const std::int32_t* pre, const std::int32_t* post) const {
    if (cmd < size_ && mask_[cmd] != 0) return true;
    return allowed_ && !(*allowed_)(cmd, pre, post);
  }

 private:
  const std::uint8_t* mask_;
  std::size_t size_;
  std::optional<PredRows> allowed_;
};

/// kernel::over_budget, taking the search's byte count only when a memory
/// ceiling is set: the count reads every bookkeeping vector, and the check
/// runs once per dequeued state.
template <typename Bytes>
bool over_budget(const CheckOptions& options, const kernel::Timer& timer, const Bytes& bytes,
                 CheckStats* stats) {
  return kernel::over_budget(options, timer, options.max_visited_bytes > 0 ? bytes() : 0, stats);
}

// --- Safety --------------------------------------------------------------

/// Shared BFS core: explores until `bad_edge(cmd, pre, post)` accepts an
/// allowed edge, or `bad_state` (invariants only) a newly reached state.
///
/// Per-node bookkeeping is two ints (BFS parent + incoming command index);
/// the trace's labels/metadata are copied out of the model's commands only
/// when a counterexample is actually reconstructed, never per visited state.
template <typename Source, typename BadEdge>
std::optional<CounterExample> bfs_search(
    const Model& model, Source& space, const CheckOptions& options, CheckStats* stats,
    const BadEdge& bad_edge, const std::function<bool(const std::int32_t*)>& bad_state = {}) {
  kernel::Timer timer;
  const Ban banned(model, options);
  const std::size_t stride = model.var_count();
  struct NodeInfo {
    std::uint32_t parent = kNoId;
    std::int32_t cmd = -1;  // index into model.commands(); -1 for the root
  };
  const std::vector<Command>& commands = model.commands();
  std::vector<NodeInfo> info;
  std::vector<std::uint32_t> frontier;  // FIFO: consumed from `head`
  std::size_t head = 0;

  auto build_trace = [&](std::uint32_t node, std::optional<TraceStep> extra) {
    std::vector<TraceStep> rev;
    for (std::uint32_t at = node; at != kNoId && info[at].cmd >= 0; at = info[at].parent) {
      const Command& cmd = commands[info[at].cmd];
      rev.push_back({cmd.label, cmd.meta, space.state(at)});
    }
    CounterExample cex;
    cex.steps.assign(std::make_move_iterator(rev.rbegin()),
                     std::make_move_iterator(rev.rend()));
    if (extra) cex.steps.push_back(std::move(*extra));
    return cex;
  };

  auto current_bytes = [&] {
    return space.bytes() + info.capacity() * sizeof(NodeInfo) +
           frontier.capacity() * sizeof(std::uint32_t);
  };
  std::size_t edges = 0;
  auto finish_stats = [&] {
    if (stats) {
      stats->states_explored = space.size();
      stats->edges_explored += edges;
      stats->visited_bytes = current_bytes();
      stats->seconds = timer.seconds();
    }
  };

  bool inserted = false;
  if (space.visit_root(options.max_states, &inserted) == kNoId) {
    // A zero state budget admits not even the initial state.
    if (stats) stats->bound_hit = true;
    finish_stats();
    return std::nullopt;
  }
  info.push_back({});
  frontier.push_back(0);

  if (bad_state && bad_state(model.initial().data())) {
    finish_stats();
    return CounterExample{};
  }

  std::optional<CounterExample> result;
  while (head < frontier.size() && !result) {
    if (over_budget(options, timer, current_bytes, stats)) break;
    std::uint32_t at = frontier[head++];
    space.expand(at, [&](std::size_t j, const std::int32_t* pre, const std::int32_t* next,
                         auto succ) {
      if (result || banned(j, pre, next)) return;
      ++edges;
      if (bad_edge(j, pre, next)) {
        const Command& cmd = commands[j];
        result = build_trace(at, TraceStep{cmd.label, cmd.meta, State(next, next + stride)});
        return;
      }
      bool fresh = false;
      std::uint32_t id = space.visit(succ, options.max_states, &fresh);
      if (id == kNoId) {
        if (stats) stats->bound_hit = true;
        return;
      }
      if (!fresh) return;
      info.push_back({at, static_cast<std::int32_t>(j)});
      if (bad_state && bad_state(next)) {
        result = build_trace(id, std::nullopt);
        return;
      }
      frontier.push_back(id);
    });
  }

  finish_stats();
  return result;
}

// --- Liveness --------------------------------------------------------------
//
// Product construction with a one-bit monitor: pending := (pending ∨
// trigger(edge)) ∧ ¬response(edge). A violation of G(trigger → F response)
// is a reachable cycle lying entirely inside pending=true nodes (any
// response inside the cycle would clear the bit). Deadlocked model states
// stutter, so a dead end with a pending obligation is also a violation.
//
// Model states are interned once by the source; product nodes reference
// them by id, and the product index is a dense per-state pair of node ids
// (pending=0/1) — no hashing of state vectors anywhere in the product.
// Nodes get ids in discovery order and are expanded in id order, so the
// FIFO frontier is the id sequence itself, and the edges a node's expansion
// adds among pending nodes are contiguous: they form one flat CSR.

template <typename Source, typename Trigger, typename Response>
std::optional<CounterExample> response_search(const Model& model, Source& space,
                                              const Trigger& trigger, const Response& response,
                                              CheckStats* stats, const CheckOptions& options) {
  kernel::Timer timer;
  const Ban banned(model, options);
  constexpr std::int32_t kStutter = -1;
  struct Node {
    std::uint32_t state;
    bool pending;
  };
  struct NodeInfo {
    std::uint32_t parent = kNoId;
    std::int32_t cmd = -1;
  };
  const std::vector<Command>& commands = model.commands();

  std::vector<Node> nodes;
  std::vector<NodeInfo> info;
  /// node_of[state_id][pending] — product index without hashing.
  std::vector<std::array<std::uint32_t, 2>> node_of;
  // Edges among pending=true nodes (candidates for the violating cycle):
  // (target node, command index or kStutter); node n's edges are
  // pending_edges[pending_row[n] .. pending_row[n + 1]).
  std::vector<std::pair<std::uint32_t, std::int32_t>> pending_edges;
  std::vector<std::size_t> pending_row{0};

  auto edge_label = [&](std::int32_t cmd) -> std::string {
    return cmd == kStutter ? "(stutter)" : commands[cmd].label;
  };
  auto edge_meta = [&](std::int32_t cmd) -> CommandMeta {
    return cmd == kStutter ? CommandMeta{} : commands[cmd].meta;
  };

  auto current_bytes = [&] {
    return space.bytes() + nodes.capacity() * sizeof(Node) +
           info.capacity() * sizeof(NodeInfo) +
           node_of.capacity() * sizeof(std::array<std::uint32_t, 2>) +
           pending_edges.capacity() * sizeof(std::pair<std::uint32_t, std::int32_t>) +
           pending_row.capacity() * sizeof(std::size_t);
  };
  std::size_t edges = 0;
  auto finish_stats = [&] {
    if (stats) {
      stats->states_explored = nodes.size();
      stats->edges_explored += edges;
      stats->visited_bytes = current_bytes();
      stats->seconds = timer.seconds();
    }
  };

  // Adds/returns the product node for (sid, pending) once the source has
  // visited the model state. Returns kNoId when a budget rejects it.
  auto add_node = [&](std::uint32_t sid, bool fresh, bool pending, std::uint32_t parent,
                      std::int32_t cmd) -> std::uint32_t {
    if (sid == kNoId) {
      if (stats) stats->bound_hit = true;
      return kNoId;
    }
    if (fresh) node_of.push_back({kNoId, kNoId});
    std::uint32_t& slot = node_of[sid][pending ? 1 : 0];
    if (slot != kNoId) return slot;
    if (nodes.size() >= options.max_states) {
      if (stats) stats->bound_hit = true;
      return kNoId;
    }
    slot = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back({sid, pending});
    info.push_back({parent, cmd});
    return slot;
  };

  {
    bool fresh = false;
    std::uint32_t sid = space.visit_root(options.max_states, &fresh);
    add_node(sid, fresh, false, kNoId, -1);
  }

  for (std::uint32_t at = 0; at < nodes.size(); ++at) {
    if (over_budget(options, timer, current_bytes, stats)) break;
    const bool pending = nodes[at].pending;

    bool any_successor = false;
    space.expand(nodes[at].state, [&](std::size_t j, const std::int32_t* pre,
                                      const std::int32_t* next, auto succ) {
                   if (banned(j, pre, next)) return;
                   any_successor = true;
                   ++edges;
                   bool trig = trigger(j, pre, next);
                   bool resp = response(j, pre, next);
                   bool next_pending = (pending || trig) && !resp;
                   bool fresh = false;
                   std::uint32_t sid = space.visit(succ, options.max_states, &fresh);
                   std::uint32_t to =
                       add_node(sid, fresh, next_pending, at, static_cast<std::int32_t>(j));
                   if (to == kNoId) return;
                   if (pending && next_pending) {
                     pending_edges.push_back({to, static_cast<std::int32_t>(j)});
                   }
                 });
    if (!any_successor && pending) {
      // Deadlock with an unanswered trigger: stutter self-loop.
      pending_edges.push_back({at, kStutter});
    }
    pending_row.push_back(pending_edges.size());
  }
  // Nodes a budget left unexpanded have no edges.
  pending_row.resize(nodes.size() + 1, pending_edges.size());

  // Cycle detection restricted to pending=true nodes (iterative DFS). One
  // root's DFS can cover the whole pending subgraph, so the watchdog is
  // polled inside it too, every kPollSteps edge steps.
  constexpr std::size_t kPollSteps = 4096;
  std::size_t steps = 0;
  bool stopped = false;
  std::vector<std::uint8_t> color(nodes.size(), 0);  // 0 white, 1 grey, 2 black
  for (std::uint32_t root = 0; root < nodes.size() && !stopped; ++root) {
    if (kernel::interrupted(options, timer, stats)) break;
    if (!nodes[root].pending || color[root] != 0) continue;
    struct Frame {
      std::uint32_t node;
      std::size_t next_edge;            // index into pending_edges
      std::int32_t via_cmd = kStutter;  // edge used to reach this node
    };
    std::vector<Frame> stack{{root, pending_row[root], kStutter}};
    color[root] = 1;
    while (!stack.empty()) {
      if (++steps % kPollSteps == 0 && kernel::interrupted(options, timer, stats)) {
        stopped = true;
        break;
      }
      Frame& f = stack.back();
      if (f.next_edge >= pending_row[f.node + 1]) {
        color[f.node] = 2;
        stack.pop_back();
        continue;
      }
      auto [to, via] = pending_edges[f.next_edge++];
      if (color[to] == 1) {
        // Found a cycle: stack from `to` upward + the closing edge.
        CounterExample cex;
        // Prefix: initial -> `to` via BFS parents.
        std::vector<TraceStep> rev;
        for (std::uint32_t n = to; n != kNoId && info[n].cmd >= 0; n = info[n].parent) {
          const Command& cmd = commands[info[n].cmd];
          rev.push_back({cmd.label, cmd.meta, space.state(nodes[n].state)});
        }
        cex.steps.assign(std::make_move_iterator(rev.rbegin()),
                         std::make_move_iterator(rev.rend()));
        cex.loop_start = static_cast<int>(cex.steps.size());
        // Loop body: the DFS stack segment from `to` to the top, then back.
        std::size_t start = 0;
        for (std::size_t i = 0; i < stack.size(); ++i) {
          if (stack[i].node == to) start = i;
        }
        for (std::size_t i = start + 1; i < stack.size(); ++i) {
          cex.steps.push_back({edge_label(stack[i].via_cmd), edge_meta(stack[i].via_cmd),
                               space.state(nodes[stack[i].node].state)});
        }
        cex.steps.push_back({edge_label(via), edge_meta(via), space.state(nodes[to].state)});
        finish_stats();
        return cex;
      }
      if (color[to] == 0) {
        color[to] = 1;
        stack.push_back({to, pending_row[to], via});
      }
    }
  }

  finish_stats();
  return std::nullopt;
}

/// Runs `search` over the graph when the checker has one, else on the fly.
template <typename Search>
std::optional<CounterExample> over_source(const Model& model, const ReachGraph* graph,
                                          Search&& search) {
  if (graph) {
    GraphSource source(*graph);
    return search(source);
  }
  LiveSource source(model);
  return search(source);
}

}  // namespace

Checker::Checker(const Model& model, const ReachGraph* graph) : model_(model), graph_(graph) {
  if (graph_ && &graph_->model() != &model_) {
    throw std::invalid_argument("mc::Checker: reachable graph was built for another model");
  }
}

std::optional<CounterExample> Checker::check_invariant(const Expr& good, CheckStats* stats,
                                                       const CheckOptions& options) const {
  const auto no_edge = [](std::size_t, const std::int32_t*, const std::int32_t*) {
    return false;
  };
  State scratch;
  const auto bad = [&](const std::int32_t* s) {
    scratch.assign(s, s + model_.var_count());
    return !good.eval(scratch);
  };
  return over_source(model_, graph_, [&](auto& source) {
    return bfs_search(model_, source, options, stats, no_edge, bad);
  });
}

std::optional<CounterExample> Checker::check_edge_never(const EdgeMatch& bad, CheckStats* stats,
                                                        const CheckOptions& options) const {
  return over_source(model_, graph_, [&](auto& source) {
    return bfs_search(model_, source, options, stats, MatchRows{bad});
  });
}

std::optional<CounterExample> Checker::check_edge_never(const EdgePred& bad, CheckStats* stats,
                                                        const CheckOptions& options) const {
  return over_source(model_, graph_, [&](auto& source) {
    return bfs_search(model_, source, options, stats, PredRows(model_, bad));
  });
}

std::optional<CounterExample> Checker::check_response(const EdgeMatch& trigger,
                                                      const EdgeMatch& response,
                                                      CheckStats* stats,
                                                      const CheckOptions& options) const {
  return over_source(model_, graph_, [&](auto& source) {
    return response_search(model_, source, MatchRows{trigger}, MatchRows{response}, stats,
                           options);
  });
}

std::optional<CounterExample> Checker::check_response(const EdgePred& trigger,
                                                      const EdgePred& response,
                                                      CheckStats* stats,
                                                      const CheckOptions& options) const {
  return over_source(model_, graph_, [&](auto& source) {
    return response_search(model_, source, PredRows(model_, trigger), PredRows(model_, response),
                           stats, options);
  });
}

}  // namespace procheck::mc
