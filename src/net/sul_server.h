// Multi-session remote-SUL server (DESIGN.md §13): exposes independent
// learner::UeSul instances over the framed wire protocol so N learners can
// share one stack host, with robustness as the design center.
//
// Session model: session-per-connection. Every admitted connection gets its
// own UeSul on a worker thread (common/thread_pool), hard-isolated — a
// session crash, quota trip, poisoned FrameReader, or deadline only tears
// down that session (with a structured kClose frame) and never the listener
// or sibling sessions. The SUL is deterministic and every query is a whole
// word (reset + symbols), so a reconnecting client reconstructs its exact
// state by re-sending the word into a fresh session.
//
// Robustness layers:
//   * admission control — at most `max_sessions` concurrent sessions; beyond
//     the cap (or while draining) connections receive a structured
//     kServerBusy reject instead of hanging in the accept backlog, which the
//     client maps onto its circuit-breaker degradation path;
//   * PSK authentication with anti-replay — when a PSK is configured the
//     hello is answered with a fresh per-connection nonce challenge; the
//     client proves key possession with a MAC over (nonce, epoch), compared
//     in constant time. Failed or replayed handshakes close with
//     kClose(auth_failed) before any SUL state exists. A non-loopback
//     `bind_host` *requires* a PSK (start() refuses otherwise);
//   * version gating — a legacy v1 or v2 hello gets a structured
//     kClose(upgrade_required), not a silent half-open socket; a v3 hello
//     negotiates the word-batch capacity (DESIGN.md §14) echoed in the
//     hello-ack;
//   * word-level execution (wire v3) — kQueryWord runs a whole membership
//     query per frame and kQueryBatch up to the negotiated number of words,
//     executed in prefix-sorted order so a word that extends the previous
//     one continues stepping instead of resetting (the prefix_hits counter);
//     malformed or oversized word/batch payloads get a structured kError
//     refusal and the session lives on — a refused request touched no SUL
//     state;
//   * per-session quotas — query units, received bytes, and wall clock;
//     tripping one closes that session with a structured reason;
//   * graceful drain — drain() admits no new sessions (kServerBusy
//     "draining") and lets in-flight words finish: each session closes with
//     kClose(drained) at its next word boundary (a word or batch frame that
//     does not extend the live word) or at the drain deadline, whichever
//     comes first;
//   * idle reaping — sessions quiet longer than `idle_timeout_seconds`
//     (keepalive pings count as activity) are closed with
//     kClose(idle_timeout);
//   * observability — a per-session SessionStats registry plus aggregate
//     counters, rendered deterministically by render_stats() for
//     `serve-sul --stats` and asserted in the session suite.
//
// Test hooks: `kill_after_requests` drops a connection right after the
// request that crosses the Nth query unit (a word counts 1 + its length);
// `kill_before_reply` additionally suppresses the ack. With
// `kill_session < 0` the count is cumulative across all sessions (the net
// suite's kill-at-every-message sweep); with `kill_session = j` it counts
// within the j-th accepted session only, which the cross-session isolation
// sweep uses to kill one session at every message while siblings must stay
// byte-identical.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "learner/sul.h"
#include "net/socket.h"
#include "net/wire.h"
#include "ue/profile.h"

namespace procheck::net {

struct SulServerOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; see SulServer::port()
  /// Bind address. Anything but loopback requires a non-empty `psk`.
  std::string bind_host = "127.0.0.1";
  /// Shared key for the challenge/response handshake; "" disables auth
  /// (loopback only).
  std::string psk;
  /// Concurrent-session cap; connections beyond it get kServerBusy.
  int max_sessions = 4;
  /// Read budget per poll while a session is live; bounds how long stop()
  /// and drain() wait on quiet sessions.
  double poll_seconds = 0.05;
  /// Budget for the whole hello/auth handshake of one connection.
  double handshake_timeout_seconds = 2.0;
  /// Per-session quotas; 0 disables the respective limit.
  long max_session_queries = 0;   // query units (1 + word length per word)
  long max_session_bytes = 0;     // raw bytes received per session
  double max_session_seconds = 0; // wall clock per session (post-handshake)
  /// Reap sessions with no inbound traffic (pings count) for this long;
  /// 0 disables. Pair with a client heartbeat period well below it.
  double idle_timeout_seconds = 0;
  /// drain(): in-flight words may finish until this deadline, then sessions
  /// are closed regardless.
  double drain_deadline_seconds = 5.0;
  /// Auth nonce stream seed; 0 derives one from the clock. Tests pin it for
  /// reproducible challenges (uniqueness per connection is what anti-replay
  /// needs, and holds either way).
  std::uint64_t nonce_seed = 0;
  /// Drop a connection right after the request crossing the Nth query unit;
  /// < 0 disables the hook. See `kill_session` for scope.
  long kill_after_requests = -1;
  /// With the kill hook: crash *before* sending the ack.
  bool kill_before_reply = false;
  /// < 0: `kill_after_requests` counts across the server's lifetime and
  /// fires once (the kill-sweep semantics). >= 0: counts within the session
  /// with this accept index only — kill one session, spare its siblings.
  int kill_session = -1;
};

/// Aggregate counters (whole-server view).
struct SulServerStats {
  long connections = 0;      // accepted TCP connections, admitted or not
  long sessions_admitted = 0;
  long sessions_authenticated = 0;  // handshake completed (auth or open mode)
  long rejected_busy = 0;           // kServerBusy: cap reached
  long rejected_draining = 0;       // kServerBusy: drain in progress
  long auth_failures = 0;           // bad/replayed MAC, missing auth frame
  long upgrade_rejects = 0;         // v1/v2 hello answered with upgrade_required
  long quota_trips = 0;
  long reaped_idle = 0;
  long drained_closes = 0;
  long session_errors = 0;   // sessions torn down by an exception (isolated)
  long requests = 0;         // query units: 1 + word length per word
  long resets = 0;           // SUL resets actually executed
  long steps = 0;            // SUL steps actually executed
  long pings = 0;
  long word_queries = 0;     // v3 kQueryWord frames served
  long batch_queries = 0;    // v3 kQueryBatch frames served
  long batched_words = 0;    // words carried by those batches
  long prefix_hits = 0;      // words continued from the previous word's state
                             // (prefix-sorted execution amortized the reset)
  long framing_errors = 0;   // sessions dropped for mis-framed input
  long protocol_errors = 0;  // well-framed but unexpected frame types
  long batch_refusals = 0;   // malformed/oversized word or batch payloads
                             // answered with a structured kError (session lives)
  long kills = 0;            // connections dropped by the kill hook
};

/// One row of the per-session registry. `close_reason` is "" while the
/// session is live; terminal values are the wire reason tokens plus "eof"
/// (peer vanished) and "bye" (orderly client goodbye).
struct SessionStats {
  long id = 0;  // accept order among *admitted* sessions, 0-based
  bool authenticated = false;
  long requests = 0;  // query units (a word counts 1 + its length)
  long resets = 0;
  long steps = 0;
  long word_queries = 0;
  long batch_queries = 0;
  long batched_words = 0;
  long prefix_hits = 0;
  long bytes_in = 0;
  long bytes_out = 0;
  std::string close_reason;
};

/// Serves per-connection UeSul sessions over TCP. start() spawns the
/// accept thread and the session pool; stop() (or the destructor) shuts
/// everything down promptly; drain() sheds load gracefully first.
class SulServer {
 public:
  SulServer(ue::StackProfile profile, SulServerOptions options = {});
  ~SulServer();

  SulServer(const SulServer&) = delete;
  SulServer& operator=(const SulServer&) = delete;

  /// Binds the listener and spawns the accept thread + session pool. False
  /// if the port cannot be bound or the options are unsafe (non-loopback
  /// bind without a PSK) — see start_error().
  bool start();
  /// Hard stop: sessions notice within one poll interval and exit.
  void stop();
  /// Graceful drain: no new sessions; in-flight words finish until the drain
  /// deadline, then sessions close with a structured reason. Non-blocking —
  /// poll active_sessions() (or call stop()) to finish shutdown.
  void drain();

  /// Serves on the calling thread until stop() (CLI `serve-sul` mode).
  void serve();

  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  int active_sessions() const { return active_.load(std::memory_order_acquire); }
  /// Why the last start() returned false ("" if it didn't).
  std::string start_error() const;

  /// Snapshot of the aggregate counters (safe to call while serving).
  SulServerStats stats() const;
  /// Snapshot of the per-session registry, in accept order.
  std::vector<SessionStats> session_stats() const;
  /// Deterministic table over both snapshots (`serve-sul --stats`).
  std::string render_stats() const;

 private:
  void serve_loop();
  /// One session, crash-isolated: handshake, then the request loop. Runs on
  /// a pool worker; never throws out.
  void run_session(std::shared_ptr<TcpConn> conn, long session_id);
  /// Handshake half of run_session. True when the session is admitted to
  /// the request loop (sets *close_reason on refusal). The hello may carry a
  /// "batch=N" offer; the granted per-batch word capacity is returned
  /// through *batch_words and echoed in the hello-ack.
  bool handshake(TcpConn& conn, long session_id, FrameReader& reader,
                 std::string* close_reason, int* batch_words);
  /// Request loop half; returns the close reason.
  std::string session_loop(TcpConn& conn, long session_id, FrameReader& reader,
                           int batch_words);

  /// Sends a structured frame (best-effort) and accounts bytes_out.
  void send_control(TcpConn& conn, long session_id, FrameType type,
                    const std::string& reason, std::uint32_t epoch, std::uint32_t seq);
  /// Reads one frame within `budget` seconds; accounts bytes_in and the
  /// byte quota. Status mirrors the frame reader plus timeout/eof.
  enum class ReadStatus : std::uint8_t { kFrame, kTimeout, kEof, kBadFrame, kStop };
  ReadStatus read_frame(TcpConn& conn, long session_id, FrameReader& reader,
                        double budget_seconds, Frame* out);

  std::string next_nonce();
  void set_close_reason(long session_id, const std::string& reason);

  ue::StackProfile profile_;
  SulServerOptions options_;

  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> active_{0};
  std::chrono::steady_clock::time_point drain_started_{};

  std::atomic<long> nonce_counter_{0};
  std::uint64_t nonce_seed_ = 0;

  mutable std::mutex stats_mu_;
  SulServerStats stats_;
  std::vector<SessionStats> sessions_;
  std::string start_error_;
};

}  // namespace procheck::net
