// Explicit-state kernel shared by the on-the-fly checker (checker.cc) and the
// reachable-graph builder (reach_graph.cc): the interned visited-state set
// with its incremental guard cache, command application, and the enabled-
// command iteration order. Internal to procheck_mc — both explorers include
// this one copy, so the graph is built in exactly the order the checker
// searches (DESIGN.md §10).
#pragma once

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

/// Interned visited-state set: every distinct state lives exactly once in a
/// bump-allocated arena of `stride` int32 slots, identified by a dense
/// uint32 id; membership is an open-addressing table over those ids keyed
/// by a 64-bit hash. Replaces unordered_map<State, ...> buckets holding
/// full vector copies — no per-state heap allocation, no re-hash of whole
/// states on probe (hashes are memoized per id).
///
/// The set also carries the guard cache: for every interned state, one bit
/// per model command recording whether that command's guard holds. Bits for
/// a newly reached state are computed incrementally from its BFS parent —
/// only guards whose precomputed read-set (Model::deps) intersects the
/// variables the incoming transition actually changed are re-evaluated.
class StateSpace {
 public:
  explicit StateSpace(const Model& model)
      : model_(model),
        stride_(model.var_count()),
        blocks_((model.commands().size() + 63) / 64) {
    slots_.assign(256, kNoId);
    mask_ = slots_.size() - 1;
  }

  std::size_t blocks() const { return blocks_; }
  std::size_t size() const { return hashes_.size(); }

  /// Bytes retained by the arena, hash table and guard cache.
  std::size_t bytes() const {
    return arena_.capacity() * sizeof(std::int32_t) +
           hashes_.capacity() * sizeof(std::uint64_t) +
           slots_.capacity() * sizeof(std::uint32_t) +
           guard_bits_.capacity() * sizeof(std::uint64_t);
  }

  /// Interns `s`. Existing state: returns its id with *inserted = false.
  /// New state under `cap`: appends it (computing guard bits from
  /// `parent_bits` + `changed`, or from scratch when parent_bits is null)
  /// and returns the fresh id with *inserted = true. New state at the cap:
  /// returns kNoId without inserting.
  std::uint32_t intern(const State& s, std::size_t cap, bool* inserted,
                       const std::uint64_t* parent_bits, std::uint64_t changed) {
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
    append_guard_bits(s, parent_bits, changed);
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

  void copy_guard_bits(std::uint32_t id, std::vector<std::uint64_t>& out) const {
    const std::uint64_t* p = guard_bits_.data() + std::size_t(id) * blocks_;
    out.assign(p, p + blocks_);
  }

  /// Hands over the state arena (size() * stride values, in id order); the
  /// hash index and guard cache die with the set.
  std::vector<std::int32_t> release_states() && { return std::move(arena_); }

 private:
  void append_guard_bits(const State& s, const std::uint64_t* parent_bits,
                         std::uint64_t changed) {
    const std::vector<Command>& commands = model_.commands();
    const std::vector<CommandDeps>& deps = model_.deps();
    std::size_t base = guard_bits_.size();
    guard_bits_.resize(base + blocks_, 0);
    for (std::size_t j = 0; j < commands.size(); ++j) {
      bool enabled;
      if (parent_bits && (deps[j].guard_reads & changed) == 0) {
        enabled = (parent_bits[j >> 6] >> (j & 63)) & 1;
      } else {
        enabled = commands[j].guard.eval(s);
      }
      if (enabled) guard_bits_[base + (j >> 6)] |= 1ull << (j & 63);
    }
  }

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

  const Model& model_;
  std::size_t stride_;
  std::size_t blocks_;
  std::vector<std::int32_t> arena_;     // size() * stride_ values
  std::vector<std::uint64_t> hashes_;   // memoized hash per id
  std::vector<std::uint32_t> slots_;    // open addressing: id or kNoId
  std::size_t mask_ = 0;
  std::vector<std::uint64_t> guard_bits_;  // size() * blocks_ words
};

/// Applies `cmd` to `pre` (into `next`, which must already equal `pre`) and
/// returns the mask of variables whose value actually changed.
inline std::uint64_t apply_command(const Command& cmd, const State& pre, State& next) {
  std::uint64_t changed = 0;
  for (const Assign& a : cmd.updates) {
    next[a.var] = a.src >= 0 ? pre[a.src] : a.value;
  }
  for (const Assign& a : cmd.updates) {
    if (next[a.var] != pre[a.var]) changed |= var_bit(a.var);
  }
  return changed;
}

/// Iterates the set bits of a guard-bit vector: fn(command_index).
template <typename Fn>
void for_enabled(const std::vector<std::uint64_t>& bits, std::size_t n_commands, Fn&& fn) {
  for (std::size_t block = 0; block < bits.size(); ++block) {
    std::uint64_t word = bits[block];
    while (word != 0) {
      std::size_t j = block * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
      word &= word - 1;
      if (j >= n_commands) return;
      fn(j);
    }
  }
}

}  // namespace procheck::mc::kernel
