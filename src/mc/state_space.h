// Explicit-state kernel shared by the on-the-fly checker (checker.cc) and the
// reachable-graph builder (reach_graph.cc): the guard tables that give a
// state's enabled commands, the interned visited-state set, command
// application, and the enabled-command iteration order. Internal to
// procheck_mc — both explorers include this one copy, so the graph is built
// in exactly the order the checker searches (DESIGN.md §10).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mc/checker.h"
#include "mc/model.h"

namespace procheck::mc::kernel {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

constexpr std::uint32_t kNoId = 0xFFFFFFFFu;

/// The cooperative poll every explorer runs once per dequeued state (and
/// the lasso DFS every few thousand steps): cancellation, then the
/// wall-clock deadline. Records the tripped budget in `stats`.
inline bool interrupted(const CheckOptions& options, const Timer& timer, CheckStats* stats) {
  if (options.cancel && options.cancel->cancelled()) {
    if (stats) stats->cancelled = true;
    return true;
  }
  if (options.max_seconds > 0 && timer.seconds() > options.max_seconds) {
    if (stats) stats->deadline_hit = true;
    return true;
  }
  return false;
}

/// interrupted() plus the memory ceiling over `bytes`.
inline bool over_budget(const CheckOptions& options, const Timer& timer, std::size_t bytes,
                        CheckStats* stats) {
  if (interrupted(options, timer, stats)) return true;
  if (options.max_visited_bytes > 0 && bytes > options.max_visited_bytes) {
    if (stats) stats->mem_hit = true;
    return true;
  }
  return false;
}

inline std::uint64_t hash_state(const std::int32_t* s, std::size_t n) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint32_t>(s[i]);
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
  }
  return h;
}

/// Every command guard of a model, compiled once into per-value enable
/// masks. Each guard is split into its top-level conjuncts:
///   - a conjunct that reads no variable is evaluated once; a false one
///     clears its command from `base_` (never enabled);
///   - a conjunct that reads one variable v is evaluated once per value x of
///     v's domain; where it is false, the command's bit is cleared in the
///     row for (v, x);
///   - a conjunct that reads several variables is kept as a residual Expr,
///     evaluated only for a state in which the rows left its command on.
/// The enabled set of a state s is base_ AND row(v, s[v]) over the table
/// variables, minus the commands a residual rejects. Rows are indexed by
/// value, so this relies on Model's invariant that every reachable value
/// lies in its variable's domain.
class GuardTables {
 public:
  explicit GuardTables(const Model& model)
      : blocks_((model.commands().size() + 63) / 64), base_(blocks_, 0) {
    const std::vector<Command>& commands = model.commands();
    std::vector<std::size_t> row_of(model.var_count(), kNoRow);  // first row of each var
    State probe(model.var_count(), 0);
    std::vector<Expr> conjuncts;
    std::vector<int> reads;
    for (std::size_t j = 0; j < commands.size(); ++j) {
      const std::uint64_t bit = 1ull << (j & 63);
      bool never = false;
      conjuncts.clear();
      commands[j].guard.collect_conjuncts(conjuncts);
      for (const Expr& c : conjuncts) {
        reads.clear();
        c.collect_vars(reads);
        std::sort(reads.begin(), reads.end());
        reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
        if (reads.empty()) {
          never = never || !c.eval(probe);
        } else if (reads.size() == 1) {
          const int v = reads[0];
          if (row_of[v] == kNoRow) {
            row_of[v] = rows_.size() / blocks_;
            vars_.push_back({v, row_of[v]});
            rows_.resize(rows_.size() + std::size_t(model.domain(v)) * blocks_, ~0ull);
          }
          for (std::int32_t x = 0; x < model.domain(v); ++x) {
            probe[v] = x;
            if (!c.eval(probe)) rows_[(row_of[v] + x) * blocks_ + (j >> 6)] &= ~bit;
          }
        } else {
          residuals_.push_back({static_cast<std::uint32_t>(j), c});
        }
      }
      if (!never) base_[j >> 6] |= bit;
    }
  }

  std::size_t bytes() const {
    return (base_.capacity() + rows_.capacity()) * sizeof(std::uint64_t) +
           vars_.capacity() * sizeof(TableVar) + residuals_.capacity() * sizeof(Residual);
  }

  /// Writes the enabled-command bitset of `s` into `out`.
  void enabled(const State& s, std::vector<std::uint64_t>& out) const {
    out = base_;
    for (const TableVar& tv : vars_) {
      const std::uint64_t* row = rows_.data() + (tv.first_row + std::size_t(s[tv.var])) * blocks_;
      for (std::size_t b = 0; b < blocks_; ++b) out[b] &= row[b];
    }
    for (const Residual& r : residuals_) {
      std::uint64_t& word = out[r.cmd >> 6];
      const std::uint64_t bit = 1ull << (r.cmd & 63);
      if ((word & bit) != 0 && !r.conjunct.eval(s)) word &= ~bit;
    }
  }

 private:
  static constexpr std::size_t kNoRow = ~std::size_t{0};
  struct TableVar {
    int var;
    std::size_t first_row;  // row of value 0; value x is first_row + x
  };
  struct Residual {
    std::uint32_t cmd;
    Expr conjunct;
  };

  std::size_t blocks_;
  std::vector<std::uint64_t> base_;     // commands with no false constant conjunct
  std::vector<std::uint64_t> rows_;     // one blocks_-word row per (table var, value)
  std::vector<TableVar> vars_;          // variables some one-variable conjunct reads
  std::vector<Residual> residuals_;     // multi-variable conjuncts, in command order
};

/// Interned visited-state set: every distinct state lives exactly once in a
/// bump-allocated arena of `stride` int32 slots, identified by a dense
/// uint32 id; membership is an open-addressing table over those ids keyed
/// by a 64-bit hash. Replaces unordered_map<State, ...> buckets holding
/// full vector copies — no per-state heap allocation, no re-hash of whole
/// states on probe (hashes are memoized per id). The set also owns the
/// model's GuardTables, so a state's enabled commands are computed from its
/// values on expansion and nothing per state is stored beyond the values
/// and the hash.
class StateSpace {
 public:
  explicit StateSpace(const Model& model) : stride_(model.var_count()), guards_(model) {
    slots_.assign(256, kNoId);
    mask_ = slots_.size() - 1;
  }

  std::size_t size() const { return hashes_.size(); }

  /// Bytes retained by the arena, hash table and guard tables.
  std::size_t bytes() const {
    return arena_.capacity() * sizeof(std::int32_t) +
           hashes_.capacity() * sizeof(std::uint64_t) +
           slots_.capacity() * sizeof(std::uint32_t) + guards_.bytes();
  }

  /// The enabled-command bitset of `s`, one bit per command.
  void enabled(const State& s, std::vector<std::uint64_t>& out) const { guards_.enabled(s, out); }

  /// Interns `s`. Existing state: returns its id with *inserted = false.
  /// New state under `cap`: appends it and returns the fresh id with
  /// *inserted = true. New state at the cap: returns kNoId without
  /// inserting.
  std::uint32_t intern(const State& s, std::size_t cap, bool* inserted) {
    std::uint64_t h = hash_state(s.data(), stride_);
    std::size_t slot = h & mask_;
    for (;;) {
      std::uint32_t id = slots_[slot];
      if (id == kNoId) break;
      if (hashes_[id] == h &&
          std::memcmp(arena_.data() + std::size_t(id) * stride_, s.data(),
                      stride_ * sizeof(std::int32_t)) == 0) {
        *inserted = false;
        return id;
      }
      slot = (slot + 1) & mask_;
    }
    if (hashes_.size() >= cap) {
      *inserted = false;
      return kNoId;
    }
    std::uint32_t id = static_cast<std::uint32_t>(hashes_.size());
    arena_.insert(arena_.end(), s.begin(), s.end());
    hashes_.push_back(h);
    slots_[slot] = id;
    if (hashes_.size() * 10 >= slots_.size() * 7) grow();
    *inserted = true;
    return id;
  }

  const std::int32_t* state_data(std::uint32_t id) const {
    return arena_.data() + std::size_t(id) * stride_;
  }

  State state(std::uint32_t id) const {
    const std::int32_t* p = state_data(id);
    return State(p, p + stride_);
  }

  void copy_state(std::uint32_t id, State& out) const {
    const std::int32_t* p = state_data(id);
    out.assign(p, p + stride_);
  }

  /// Hands over the state arena (size() * stride values, in id order); the
  /// hash index and guard tables die with the set.
  std::vector<std::int32_t> release_states() && { return std::move(arena_); }

 private:
  void grow() {
    std::vector<std::uint32_t> fresh(slots_.size() * 2, kNoId);
    std::size_t mask = fresh.size() - 1;
    for (std::uint32_t id = 0; id < hashes_.size(); ++id) {
      std::size_t slot = hashes_[id] & mask;
      while (fresh[slot] != kNoId) slot = (slot + 1) & mask;
      fresh[slot] = id;
    }
    slots_ = std::move(fresh);
    mask_ = mask;
  }

  std::size_t stride_;
  GuardTables guards_;
  std::vector<std::int32_t> arena_;     // size() * stride_ values
  std::vector<std::uint64_t> hashes_;   // memoized hash per id
  std::vector<std::uint32_t> slots_;    // open addressing: id or kNoId
  std::size_t mask_ = 0;
};

/// Applies `cmd` to `pre` into `next`, which must already equal `pre`.
inline void apply_command(const Command& cmd, const State& pre, State& next) {
  for (const Assign& a : cmd.updates) {
    next[a.var] = a.src >= 0 ? pre[a.src] : a.value;
  }
}

/// Iterates the set bits of an enabled-command bitset in command-index
/// order: fn(command_index).
template <typename Fn>
void for_enabled(const std::vector<std::uint64_t>& bits, Fn&& fn) {
  for (std::size_t block = 0; block < bits.size(); ++block) {
    std::uint64_t word = bits[block];
    while (word != 0) {
      std::size_t j = block * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
      word &= word - 1;
      fn(j);
    }
  }
}

}  // namespace procheck::mc::kernel
