// Supervision core (DESIGN.md §11 "Supervision core"), shared by the
// analysis supervisor (checker/supervisor.h) and the learning supervisor
// (learner/learn_supervisor.h). It owns every decision the two make alike:
//
//   * one failure taxonomy with one retry policy per class;
//   * one attempt ladder: catch-all, exponential backoff, a degrade step the
//     domain supplies, and the exhaustion note;
//   * one journal session: the single-writer lock, the resume header check,
//     an atomic start (tmp + fsync + rename) and append-only commits;
//   * one options fingerprint for the journal header.
//
// Each domain says only what one attempt is and what "degrade" shrinks.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/journal.h"
#include "common/thread_pool.h"

namespace procheck::supervise {

/// Why an attempt failed to reach a clean result. kException: the attempt
/// threw. kDeadline / kMemCeiling / kBudget / kQueryBudget / kByteBudget: a
/// resource watchdog tripped. kCancelled: the run's CancelToken fired (an
/// interruption, never journaled). kContested: the learner's k-of-n
/// arbitration found no majority. kUnavailable: the system under learning
/// stopped answering.
enum class Failure : std::uint8_t {
  kNone,
  kException,
  kDeadline,
  kMemCeiling,
  kBudget,
  kQueryBudget,
  kByteBudget,
  kCancelled,
  kContested,
  kUnavailable,
};

/// What the ladder does after an attempt that ended in a class.
enum class Retry : std::uint8_t {
  kStop,        // terminal: kNone, kCancelled, kContested
  kDegrade,     // a resource class: retry with a smaller search
  kFullBudget,  // kException, kUnavailable: the environment failed, not the size
};

/// The class's journal and report token ("mem-ceiling", "query_budget", ...).
std::string_view to_string(Failure f);
std::optional<Failure> parse_failure(std::string_view token);
Retry retry_policy(Failure f);

/// Settings every supervised run shares; the domain options derive from it.
struct Options {
  /// Extra attempts after the first for a retryable failure.
  int retries = 0;
  /// Base of the exponential retry backoff (seconds): attempt k sleeps
  /// backoff * 2^(k-1) before the next one. 0 disables the sleep.
  double backoff_seconds = 0.05;
  /// Every retry after a resource failure shrinks the search by this factor
  /// (the domain decides which budgets), so a run that cannot afford its
  /// search converges to an explicit inconclusive.
  double degrade_factor = 0.5;
  /// Path of the crash-safe run journal; "" disables journaling.
  std::string journal_path;
  /// Adopt records from journal_path instead of redoing their work. Without
  /// resume, a journal already at the path is replaced.
  bool resume = false;
  /// Journal header tag (the profile name): a resumed journal with another
  /// tag is discarded. "" accepts any tag.
  std::string run_tag;
  /// Cooperative run-level cancellation.
  const CancelToken* cancel = nullptr;
};

/// What every supervised run reports about its start and its journal.
struct Status {
  /// True when the run refused to start (a live run holds the journal lock,
  /// --resume met another options fingerprint, or the domain's own check
  /// failed): nothing ran, and `abort_reason` says why.
  bool aborted = false;
  std::string abort_reason;
  /// Records durable in the journal, header excluded.
  std::size_t journal_records = 0;
  /// Non-empty when a journal write failed (the run went on without
  /// durability); analyze also reports a discarded journal here.
  std::string journal_error;
};

/// "worker exception: <what>", the note a contained exception leaves.
std::string worker_exception(std::string_view what);

struct LadderResult {
  Failure failure = Failure::kNone;
  int attempts = 0;
};

/// One domain's attempt ladder. `attempt(k)` runs attempt k (1-based) and
/// classifies it; it may throw, and `on_exception` then records the thrown
/// attempt from the exception's message. `degrade` shrinks the next
/// attempt's search after a kDegrade class. Runs until an attempt ends in a
/// terminal class or 1 + retries are spent; an exception never escapes.
/// When more than one attempt was configured and all failed, appends
/// "[<label>: <class> persisted through N attempts]" to *note.
LadderResult run_ladder(const Options& options, std::string_view label, std::string* note,
                        const std::function<Failure(int attempt)>& attempt,
                        const std::function<void(const std::string& what)>& on_exception,
                        const std::function<void()>& degrade);

/// 16 lowercase hex digits of prf64(key, canon): the fingerprint of the
/// options that shape a run's results, recorded in the journal header.
std::string fingerprint(std::uint64_t key, std::string_view canon);

/// The journal's first line, one format for every supervised run.
struct Header {
  std::string tag;
  std::string opts;
};
std::string encode_header(const Header& header);
std::optional<Header> decode_header(std::string_view payload);

/// A supervised run's journal: lock, resume check, atomic start, appends.
/// Without a journal path every call is a no-op that succeeds.
class JournalSession {
 public:
  /// Takes the journal lock and, on resume, reads the journal back. Returns
  /// false when the run must be refused (a live run holds the lock, or the
  /// journal was written under another options fingerprint); refusal() says
  /// why and the file is left untouched. A malformed header or another tag
  /// discards the journal with a note(). `kind` names the run in the lock
  /// refusal; an empty `options_hash` skips the fingerprint check.
  bool open(const Options& options, std::string_view kind, std::string options_hash);

  /// The records after a matching header, for the domain to validate.
  const std::vector<std::string>& resumed() const { return resumed_; }
  const std::string& note() const { return note_; }
  const std::string& refusal() const { return refusal_; }

  /// Atomically replaces the journal with the header plus `records` (tmp,
  /// fsync, rename; the old journal survives any failure); later commits
  /// append to it. Called once at start, again when a domain must change
  /// records it already committed.
  bool rewrite(const std::vector<std::string>& records);
  void append(std::string_view payload);
  /// Appends every pending record (journal/JournalWriter::commit).
  bool commit();
  std::size_t pending() const { return writer_.pending(); }
  /// Records durable in the journal, header excluded.
  std::size_t records() const;
  /// The first write failure; the run went on without durability.
  const std::string& error() const { return error_; }

 private:
  bool fail();

  std::string path_;
  JournalLock lock_;
  JournalWriter writer_;
  Header header_;
  std::vector<std::string> resumed_;
  std::string note_;
  std::string refusal_;
  std::string error_;
};

}  // namespace procheck::supervise
