// Fault-tolerant remote SUL client (DESIGN.md §12).
//
// RemoteUeSul implements the learner::Sul interface as a plain
// membership-query oracle over the framed wire protocol: every answer is one
// whole word shipped as a kQueryWord (or a kQueryBatch of words). It absorbs
// every transport fault the chaos proxy (or a real network) can throw at it:
//
//   * per-call deadlines — no call ever blocks past its budget;
//   * reconnect with jittered exponential backoff, bumping the epoch so a
//     stale answer from a dead link is discarded, never consumed. A word is
//     a whole query (reset + symbols), so a retried word rebuilds the
//     deterministic server state exactly — which is why learning over a
//     lossy-but-not-lying channel stays byte-identical to an in-process run;
//   * a circuit breaker (closed → open → half-open probe) that stops
//     hammering a dead server and degrades to the structured
//     learner::kSulUnavailable output symbol — learners converge to an
//     explicit inconclusive verdict instead of hanging or throwing;
//   * an optional heartbeat thread that pings the idle link so a silently
//     dead connection is detected before the next query stalls on it.
//
// A word the wire cannot carry (a symbol outside the codec's charset, more
// than kMaxWordSymbols symbols, or a server that granted no word batch)
// degrades to kSulUnavailable with an unavailable_reason(); there is no
// second transport to fall back on.
//
// Thread-safety: all client state lives under one mutex shared by the query
// path and the heartbeat thread; the TSan suite pins this.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "learner/sul.h"
#include "net/socket.h"
#include "net/wire.h"

namespace procheck::net {

struct RemoteSulOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Shared key for the server's challenge/response handshake. "" works
  /// against an open (loopback) server; against a PSK server it yields a
  /// structured auth_failed close.
  std::string psk;

  /// Wall-clock budget for one frame round-trip (send + matching ack).
  double call_deadline_seconds = 1.0;
  /// Budget for one TCP connect attempt.
  double connect_timeout_seconds = 0.5;

  /// Reconnect backoff: base * 2^attempt, jittered, capped at max.
  double backoff_base_seconds = 0.01;
  double backoff_max_seconds = 0.25;
  /// Transport attempts per query before degrading to kSulUnavailable.
  int attempts_per_query = 3;

  /// Circuit breaker: consecutive transport failures before opening, and how
  /// long the open circuit rejects attempts before a half-open probe.
  int breaker_failure_threshold = 5;
  double breaker_open_seconds = 0.2;

  /// Heartbeat period for the keepalive thread; 0 disables it.
  double heartbeat_seconds = 0.0;

  /// Words offered per kQueryBatch in the hello negotiation, clamped to
  /// [1, kMaxBatchWords]. The server grants min(offer, its own cap) and
  /// echoes the grant in the hello-ack.
  int max_batch_words = kDefaultBatchWords;

  /// Jitter seed (deterministic backoff for reproducible tests).
  std::uint64_t seed = 0x5EEDF00D;
};

struct RemoteSulStats {
  long connects = 0;            // successful connections (incl. the first)
  long reconnects = 0;          // connections after the first
  long connect_failures = 0;
  long rpc_timeouts = 0;
  long framing_errors = 0;      // corrupted stream detected by CRC/length
  long stale_frames = 0;        // answers from a previous epoch, discarded
  long breaker_opens = 0;
  long breaker_probes = 0;      // half-open trial queries
  long unavailable_answers = 0; // queries degraded to kSulUnavailable
  long heartbeats = 0;
  long heartbeat_failures = 0;
  long auth_challenges = 0;     // kChallenge frames answered
  long busy_rejects = 0;        // kServerBusy rejects (admission/drain)
  long server_closes = 0;       // structured kClose frames received
  long word_queries = 0;        // whole words answered over kQueryWord
  long batch_queries = 0;       // kQueryBatch frames acked
  long batched_words = 0;       // words answered inside those batches
};

/// Circuit-breaker state (exposed for tests and status lines).
enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };
std::string_view to_string(BreakerState state);

class RemoteUeSul final : public learner::Sul {
 public:
  explicit RemoteUeSul(RemoteSulOptions options);
  ~RemoteUeSul() override;

  RemoteUeSul(const RemoteUeSul&) = delete;
  RemoteUeSul& operator=(const RemoteUeSul&) = delete;

  /// Lazy: clears the current word (no I/O here, so a dead server cannot
  /// stall reset storms).
  void reset() override;

  /// One abstract input: a word query of every input since the last reset().
  /// The server continues its live execution when a word extends the one it
  /// just ran, so a step walk costs one server step per call. Never throws,
  /// never blocks past the attempt budget.
  std::string step(const std::string& input) override;

  /// Whole membership query in one kQueryWord round trip, retried under the
  /// backoff/breaker rules; degrades to kSulUnavailable in every position.
  std::vector<std::string> query_word(const std::vector<std::string>& word) override;

  /// Deduplicates the words, ships the distinct ones as pipelined kQueryBatch
  /// frames, and finishes any word a failed batch left unanswered through
  /// query_word.
  std::vector<std::vector<std::string>> query_batch(
      const std::vector<std::vector<std::string>>& words) override;

  long resets() const override;
  long steps() const override;

  /// Batch capacity granted by the server in the last hello-ack (0 before
  /// first contact).
  int negotiated_batch_words() const;

  RemoteSulStats stats() const;
  BreakerState breaker() const;

  /// Server profile name from the hello handshake ("" before first contact).
  std::string server_profile() const;

  /// Reason string from the last structured kClose / kServerBusy frame the
  /// server sent ("" if none yet).
  std::string last_close_reason() const;
  /// Why queries degraded: a word the wire cannot carry, else the server's
  /// close reason, else an unreachable server, else the link's failure
  /// counts ("" while nothing degraded). `learn --remote` prints it when a
  /// run goes inconclusive.
  std::string unavailable_reason() const override;

 private:
  // All private helpers assume mu_ is held.
  bool breaker_allows_locked();
  void record_failure_locked();
  void record_success_locked();
  bool connect_locked(double budget_seconds);
  void drop_connection_locked();
  bool send_frame_locked(FrameType type, const std::string& payload, std::uint32_t* seq_out);
  std::optional<Frame> await_ack_locked(std::uint32_t seq);
  std::optional<Frame> rpc_locked(FrameType type, const std::string& payload);

  /// The prologue of every query attempt: the breaker gate, then (on a dead
  /// link) a jittered backoff and a redial. kRetry burns the attempt.
  enum class Link : std::uint8_t { kReady, kRetry, kGiveUp };
  Link prepare_link_locked(double* backoff_scale);

  /// One word over kQueryWord under the retry/backoff/breaker rules; nullopt
  /// when it could not be answered (refusal_ names a word the wire cannot
  /// carry).
  std::optional<std::vector<std::string>> word_query_locked(
      const std::vector<std::string>& word);
  /// Best-effort pipelined batches over the distinct `words`; every answered
  /// word lands in `*answered`. Words left behind (failed link, unsendable
  /// words) are the caller's to finish per word.
  void batch_rpc_locked(const std::vector<std::vector<std::string>>& words,
                        std::map<std::vector<std::string>, std::vector<std::string>>* answered);

  void heartbeat_loop();

  RemoteSulOptions options_;

  mutable std::mutex mu_;
  TcpConn conn_;
  FrameReader reader_;
  std::uint32_t epoch_ = 0;
  std::uint32_t seq_ = 0;
  std::vector<std::string> word_;  // inputs since the last reset()
  std::string server_profile_;
  std::string last_close_reason_;
  std::string refusal_;       // why the last unsendable word was refused
  int negotiated_batch_ = 0;  // words per batch the server granted

  BreakerState breaker_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  std::chrono::steady_clock::time_point breaker_opened_at_{};

  Rng jitter_;

  long resets_ = 0;
  long steps_ = 0;
  RemoteSulStats stats_;

  // Heartbeat machinery: its own mutex/cv so stop() can interrupt the wait
  // without contending with an in-flight query.
  std::thread heartbeat_thread_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool stopping_ = false;
};

}  // namespace procheck::net
