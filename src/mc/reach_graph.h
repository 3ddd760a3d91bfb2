// The reachable state graph of an unrefined model, explored once and queried
// many times (DESIGN.md §10 "Shared reachable graph").
//
// Every property of the catalog is checked against the same composed threat
// model, and each per-property search re-explores the same states in the
// same deterministic BFS order. ReachGraph runs that BFS once — with the
// checker's own kernel (state_space.h), so ids are discovery order and each
// state's successors are stored in the order the checker enumerates them —
// and keeps the interned states plus a CSR adjacency of (command, successor)
// pairs. A Checker handed the graph answers check_edge_never /
// check_response / check_invariant by walking the stored adjacency instead
// of interning, applying commands and evaluating guards; the walk replays
// the on-the-fly search step for step, so traces and statistics are
// identical.
//
// The build also keeps its BFS tree: each state's parent and the edge that
// discovered it. For an unrefined never-claim the search's parent tree
// does not depend on the property, and the search stops at the first
// matching edge in CSR order, so first_hits() answers every such claim in
// one pass over the edges and edge_never_answer() turns a first hit into
// the walk's trace and counts (DESIGN.md §10 "One scan for unrefined
// never-claims").
//
// The graph is immutable after build() and safe to query from many threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mc/checker.h"
#include "mc/model.h"

namespace procheck::mc {

class ReachGraph {
 public:
  /// One stored transition: the command index and the successor's id.
  struct Edge {
    std::uint32_t cmd;
    std::uint32_t to;
  };

  /// first_hits() for a matcher no edge satisfies.
  static constexpr std::uint32_t kNoHit = 0xFFFFFFFFu;

  /// Explores `model` from its initial state under the budgets of `options`
  /// (max_states, max_seconds, max_visited_bytes, cancel; `banned` and
  /// `allowed` must be unset — the graph is of the unrefined model). Returns
  /// nullopt when a budget truncated the exploration: a partial graph cannot
  /// stand in for a search, so the caller checks without one. `stats`
  /// (optional) reports the build: states, edges, peak bytes, seconds and
  /// any tripped budget.
  static std::optional<ReachGraph> build(const Model& model, const CheckOptions& options = {},
                                         CheckStats* stats = nullptr);

  const Model& model() const { return *model_; }
  std::size_t states() const { return offsets_.size() - 1; }
  std::size_t edges() const { return edges_.size(); }

  /// The var_count() values of state `id`.
  const std::int32_t* state_data(std::uint32_t id) const {
    return states_.data() + std::size_t(id) * model_->var_count();
  }
  /// Enabled transitions of state `id`, in command-index order.
  std::span<const Edge> successors(std::uint32_t id) const {
    return {edges_.data() + offsets_[id], edges_.data() + offsets_[id + 1]};
  }

  /// One pass over the edges in CSR order: for each matcher, the index of
  /// the first edge it accepts (from the edge's pre-state and command), or
  /// kNoHit.
  std::vector<std::uint32_t> first_hits(std::span<const EdgeMatch> matchers) const;

  /// What Checker::check_edge_never returns over this graph, with no ban
  /// (`banned`, `allowed`) and max_states = `cap`, for a predicate whose first
  /// hit is `hit` (first_hits() output): the same trace, states and edges
  /// explored and bound_hit, read off the BFS tree instead of walked. A cap
  /// below states() is the CSR prefix of its first `cap` rows. visited_bytes
  /// is the BFS-tree entries of the explored states (8 bytes each).
  std::optional<CounterExample> edge_never_answer(std::uint32_t hit, std::size_t cap,
                                                  CheckStats* stats) const;

 private:
  /// A state's BFS parent and the index of the edge that discovered it
  /// (kNoId for the root); ids are discovery order, so `edge` increases
  /// with the id.
  struct Discovery {
    std::uint32_t parent;
    std::uint32_t edge;
  };

  ReachGraph() = default;

  const Model* model_ = nullptr;
  std::vector<std::int32_t> states_;   // states() * var_count() values, id order
  std::vector<std::uint32_t> offsets_;  // states() + 1 CSR row starts
  std::vector<Edge> edges_;
  std::vector<Discovery> tree_;  // per state, id order
};

}  // namespace procheck::mc
