// Mealy output trie — the learner's prefix-closed membership-query cache
// (DESIGN.md §14).
//
// A Mealy machine's output for a word determines its output for every prefix
// of that word, so caching whole (word → outputs) pairs in a flat map throws
// away information: the map can answer `abc` yet miss `ab`. The trie stores
// one output symbol per edge instead, which makes every proper prefix of any
// inserted word answerable for free — the "prefix hit" the stats below
// count, and the reason the batched observation-table rounds can drop words
// that are prefixes of other words in the same batch.
//
// Determinism contract: the first observation of an edge wins. A later
// insert that disagrees on an edge output does not overwrite it (the cached
// answer stays stable run-to-run) but is counted in stats().nondeterministic
// — flag, don't flap. The trie is the learn path's only answer cache: the
// remote transport answers every word fresh.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace procheck::learner {

class OutputTrie {
 public:
  struct Stats {
    long hits = 0;           // lookup answered at an explicitly inserted word
    long prefix_hits = 0;    // lookup answered purely from a longer word's edges
    long misses = 0;         // lookup had an unknown edge
    long insertions = 0;     // insert() calls that added at least one edge
    long nondeterministic = 0;  // inserts that disagreed with a cached edge
  };

  /// Records outputs for word (sizes must match; mismatches are ignored).
  /// Existing edges keep their first-observed output; disagreement is
  /// flagged, never applied.
  void insert(const std::vector<std::string>& word, const std::vector<std::string>& outputs);

  /// Full output word when every edge along `word` is known; counts a hit,
  /// prefix hit, or miss in stats().
  std::optional<std::vector<std::string>> lookup(const std::vector<std::string>& word);

  /// lookup() without touching the stats (for planning passes that must not
  /// inflate the hit counters).
  bool contains(const std::vector<std::string>& word) const;

  /// Length of the longest prefix of `word` whose edges are all known — how
  /// far a replay could resume from cache.
  std::size_t known_prefix_length(const std::vector<std::string>& word) const;

  std::size_t node_count() const { return nodes_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Edge {
    int child = -1;
    std::string output;
  };
  struct Node {
    std::map<std::string, Edge> next;
    bool endpoint = false;  // an insert() ended exactly here
  };

  /// Walks `word`; returns the terminal node index or -1 on an unknown edge.
  int walk(const std::vector<std::string>& word) const;

  std::vector<Node> nodes_{1};  // [0] = root (ε)
  Stats stats_;
};

}  // namespace procheck::learner
