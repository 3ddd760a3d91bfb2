#include "net/sul_server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <random>
#include <sstream>

#include "common/rng.h"

namespace procheck::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

bool is_loopback(const std::string& host) {
  return host.rfind("127.", 0) == 0 || host == "localhost";
}

}  // namespace

SulServer::SulServer(ue::StackProfile profile, SulServerOptions options)
    : profile_(std::move(profile)), options_(options) {
  if (options_.nonce_seed != 0) {
    nonce_seed_ = options_.nonce_seed;
  } else {
    std::random_device rd;
    nonce_seed_ = (static_cast<std::uint64_t>(rd()) << 32) ^ rd() ^
                  static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
  }
}

SulServer::~SulServer() { stop(); }

bool SulServer::start() {
  if (!is_loopback(options_.bind_host) && options_.psk.empty()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    start_error_ = "refusing non-loopback bind (" + options_.bind_host +
                   ") without a PSK: pass --psk to authenticate sessions";
    return false;
  }
  auto listener = TcpListener::listen(options_.bind_host, options_.port);
  if (!listener) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    start_error_ = "cannot bind " + options_.bind_host;
    return false;
  }
  listener_ = std::move(*listener);
  port_ = listener_.port();
  stop_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(options_.max_sessions < 1 ? 1 : options_.max_sessions));
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void SulServer::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  pool_.reset();  // waits for in-flight sessions (they poll stop_)
  running_.store(false, std::memory_order_release);
}

void SulServer::drain() {
  drain_started_ = Clock::now();
  draining_.store(true, std::memory_order_release);
}

void SulServer::serve() {
  if (!listener_.valid()) {
    if (!is_loopback(options_.bind_host) && options_.psk.empty()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      start_error_ = "refusing non-loopback bind (" + options_.bind_host +
                     ") without a PSK: pass --psk to authenticate sessions";
      return;
    }
    auto listener = TcpListener::listen(options_.bind_host, options_.port);
    if (!listener) return;
    listener_ = std::move(*listener);
    port_ = listener_.port();
  }
  if (!pool_) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options_.max_sessions < 1 ? 1 : options_.max_sessions));
  }
  running_.store(true, std::memory_order_release);
  serve_loop();
  pool_.reset();
  running_.store(false, std::memory_order_release);
}

std::string SulServer::start_error() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return start_error_;
}

SulServerStats SulServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::vector<SessionStats> SulServer::session_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return sessions_;
}

std::string SulServer::render_stats() const {
  SulServerStats agg;
  std::vector<SessionStats> sessions;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    agg = stats_;
    sessions = sessions_;
  }
  std::ostringstream out;
  out << "sessions: " << agg.sessions_admitted << " admitted, "
      << agg.sessions_authenticated << " authenticated, " << agg.rejected_busy
      << " rejected busy, " << agg.rejected_draining << " rejected draining, "
      << agg.auth_failures << " auth failures, " << agg.upgrade_rejects
      << " upgrade rejects\n";
  out << "quotas/reaping: " << agg.quota_trips << " quota trips, " << agg.reaped_idle
      << " idle reaped, " << agg.drained_closes << " drained, " << agg.session_errors
      << " session errors, " << agg.kills << " kills\n";
  out << "traffic: " << agg.requests << " requests (" << agg.resets << " resets, "
      << agg.steps << " steps), " << agg.pings << " pings, " << agg.framing_errors
      << " framing errors, " << agg.protocol_errors << " protocol errors\n";
  out << "words: " << agg.word_queries << " word queries, " << agg.batch_queries
      << " batches (" << agg.batched_words << " words), " << agg.prefix_hits
      << " prefix hits, " << agg.batch_refusals << " refusals\n";
  char line[200];
  std::snprintf(line, sizeof(line), "%4s %5s %9s %7s %7s %7s %7s %7s %10s %10s  %s\n", "id",
                "auth", "requests", "resets", "steps", "words", "batches", "pfx_hit",
                "bytes_in", "bytes_out", "close_reason");
  out << line;
  for (const SessionStats& s : sessions) {
    std::snprintf(line, sizeof(line),
                  "%4ld %5s %9ld %7ld %7ld %7ld %7ld %7ld %10ld %10ld  %s\n", s.id,
                  s.authenticated ? "yes" : "no", s.requests, s.resets, s.steps,
                  s.word_queries + s.batched_words, s.batch_queries, s.prefix_hits,
                  s.bytes_in, s.bytes_out,
                  s.close_reason.empty() ? "(live)" : s.close_reason.c_str());
    out << line;
  }
  return out.str();
}

std::string SulServer::next_nonce() {
  const std::uint64_t n = static_cast<std::uint64_t>(
      nonce_counter_.fetch_add(1, std::memory_order_relaxed));
  const std::uint64_t raw = splitmix64(nonce_seed_ ^ (n * 0x9E3779B97F4A7C15ULL));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(raw));
  return hex;
}

void SulServer::set_close_reason(long session_id, const std::string& reason) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (session_id >= 0 && static_cast<std::size_t>(session_id) < sessions_.size() &&
      sessions_[static_cast<std::size_t>(session_id)].close_reason.empty()) {
    sessions_[static_cast<std::size_t>(session_id)].close_reason = reason;
  }
}

// ---------------------------------------------------------------------------
// Accept / admission
// ---------------------------------------------------------------------------

void SulServer::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    auto conn = listener_.accept(options_.poll_seconds);
    if (!conn) continue;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections;
    }
    // Admission control: shedding happens here, *before* a session thread or
    // any SUL state exists, so an overloaded or draining server answers
    // immediately with a structured reject instead of queueing the client.
    if (draining_.load(std::memory_order_acquire)) {
      send_control(*conn, -1, FrameType::kServerBusy, kReasonDraining, 0, 0);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected_draining;
      continue;
    }
    if (active_.load(std::memory_order_acquire) >= options_.max_sessions) {
      send_control(*conn, -1, FrameType::kServerBusy, kReasonServerBusy, 0, 0);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected_busy;
      continue;
    }

    long session_id;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      session_id = static_cast<long>(sessions_.size());
      SessionStats s;
      s.id = session_id;
      sessions_.push_back(std::move(s));
      ++stats_.sessions_admitted;
    }
    active_.fetch_add(1, std::memory_order_acq_rel);
    auto shared = std::make_shared<TcpConn>(std::move(*conn));
    pool_->submit([this, shared, session_id] { run_session(shared, session_id); });
  }
}

// ---------------------------------------------------------------------------
// Session worker
// ---------------------------------------------------------------------------

void SulServer::run_session(std::shared_ptr<TcpConn> conn, long session_id) {
  std::string close_reason = "eof";
  try {
    FrameReader reader;
    int batch_words = 0;
    if (handshake(*conn, session_id, reader, &close_reason, &batch_words)) {
      close_reason = session_loop(*conn, session_id, reader, batch_words);
    }
  } catch (const std::exception& e) {
    // Crash isolation: an exception tears down this session only. The close
    // frame is best-effort — the peer may be the reason we're here.
    close_reason = std::string(kReasonSessionError) + ": " + e.what();
    send_control(*conn, session_id, FrameType::kClose, close_reason, 0, 0);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.session_errors;
  } catch (...) {
    close_reason = kReasonSessionError;
    send_control(*conn, session_id, FrameType::kClose, close_reason, 0, 0);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.session_errors;
  }
  set_close_reason(session_id, close_reason);
  conn->close();
  active_.fetch_sub(1, std::memory_order_acq_rel);
}

void SulServer::send_control(TcpConn& conn, long session_id, FrameType type,
                             const std::string& reason, std::uint32_t epoch,
                             std::uint32_t seq) {
  Frame f;
  f.type = type;
  f.epoch = epoch;
  f.seq = seq;
  f.payload = reason;
  Bytes wire = encode_frame(f);
  conn.send_all(wire, options_.poll_seconds);
  if (session_id >= 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (static_cast<std::size_t>(session_id) < sessions_.size()) {
      sessions_[static_cast<std::size_t>(session_id)].bytes_out +=
          static_cast<long>(wire.size());
    }
  }
}

SulServer::ReadStatus SulServer::read_frame(TcpConn& conn, long session_id,
                                            FrameReader& reader, double budget_seconds,
                                            Frame* out) {
  const auto started = Clock::now();
  Bytes chunk;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return ReadStatus::kStop;
    Decoded d = reader.next();
    if (d.status == DecodeStatus::kBadFrame) return ReadStatus::kBadFrame;
    if (d.status == DecodeStatus::kFrame) {
      *out = d.frame;
      return ReadStatus::kFrame;
    }
    const double elapsed = seconds_since(started);
    if (elapsed >= budget_seconds) return ReadStatus::kTimeout;
    const double slice = std::min(options_.poll_seconds, budget_seconds - elapsed);
    chunk.clear();
    auto status = conn.recv_some(chunk, 4096, slice);
    if (status == TcpConn::RecvStatus::kTimeout) continue;
    if (status != TcpConn::RecvStatus::kData) return ReadStatus::kEof;
    reader.feed(chunk);
    if (session_id >= 0) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (static_cast<std::size_t>(session_id) < sessions_.size()) {
        sessions_[static_cast<std::size_t>(session_id)].bytes_in +=
            static_cast<long>(chunk.size());
      }
    }
  }
}

bool SulServer::handshake(TcpConn& conn, long session_id, FrameReader& reader,
                          std::string* close_reason, int* batch_words) {
  *batch_words = 0;
  Frame hello;
  switch (read_frame(conn, session_id, reader, options_.handshake_timeout_seconds, &hello)) {
    case ReadStatus::kFrame:
      break;
    case ReadStatus::kBadFrame: {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.framing_errors;
      *close_reason = "framing_error";
      return false;
    }
    case ReadStatus::kTimeout:
      *close_reason = "handshake_timeout";
      return false;
    default:
      *close_reason = "eof";
      return false;
  }

  if (hello.type != FrameType::kHello) {
    send_control(conn, session_id, FrameType::kError,
                 "expected hello, got " + std::string(to_string(hello.type)), hello.epoch,
                 hello.seq);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.protocol_errors;
    *close_reason = "protocol_error";
    return false;
  }
  // Version gate: a legacy v1 (pre-auth) or v2 (per-symbol) client gets a
  // structured upgrade notice and a closed socket — never a half-open
  // connection. A v3 hello may offer a batch capacity, granted below and
  // echoed in the hello-ack.
  if (hello.version < kMinServedVersion) {
    send_control(conn, session_id, FrameType::kClose, kReasonUpgradeRequired, hello.epoch,
                 hello.seq);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.upgrade_rejects;
    *close_reason = kReasonUpgradeRequired;
    return false;
  }
  const int offered = parse_batch_token(hello.payload);
  *batch_words = offered > 0 ? std::min(offered, kDefaultBatchWords) : kDefaultBatchWords;

  // The final hello-ack answers the last client frame of the handshake — the
  // hello in open mode, the auth response in PSK mode — so the client's
  // seq-matched rpc consumes it instead of discarding it as stale.
  std::uint32_t ack_epoch = hello.epoch;
  std::uint32_t ack_seq = hello.seq;
  if (!options_.psk.empty()) {
    // Fresh nonce per connection: a captured auth_response from any earlier
    // connection is bound to a nonce that will never be issued again, so
    // replay cannot authenticate.
    const std::string nonce = next_nonce();
    send_control(conn, session_id, FrameType::kChallenge, nonce, hello.epoch, hello.seq);
    Frame auth;
    switch (
        read_frame(conn, session_id, reader, options_.handshake_timeout_seconds, &auth)) {
      case ReadStatus::kFrame:
        break;
      case ReadStatus::kBadFrame: {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.framing_errors;
        *close_reason = "framing_error";
        return false;
      }
      default: {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.auth_failures;
        *close_reason = kReasonAuthFailed;
        return false;
      }
    }
    const std::string expected = auth_mac(options_.psk, nonce, auth.epoch);
    if (auth.type != FrameType::kAuthResponse ||
        !constant_time_equal(auth.payload, expected)) {
      send_control(conn, session_id, FrameType::kClose, kReasonAuthFailed, auth.epoch,
                   auth.seq);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.auth_failures;
      *close_reason = kReasonAuthFailed;
      return false;
    }
    ack_epoch = auth.epoch;
    ack_seq = auth.seq;
  }

  // The granted batch rides as a " batch=N" suffix on the profile name; the
  // client strips it back off.
  send_control(conn, session_id, FrameType::kHelloAck,
               with_batch_token(profile_.name, *batch_words), ack_epoch, ack_seq);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.sessions_authenticated;
  if (static_cast<std::size_t>(session_id) < sessions_.size()) {
    sessions_[static_cast<std::size_t>(session_id)].authenticated = true;
  }
  return true;
}

std::string SulServer::session_loop(TcpConn& conn, long session_id, FrameReader& reader,
                                    int batch_words) {
  // The SUL exists only for an authenticated session — a rejected handshake
  // can never have touched stack state.
  learner::UeSul sul(profile_);
  const auto session_started = Clock::now();
  auto last_activity = Clock::now();

  // Word-execution state: the inputs applied to `sul` since its last reset,
  // with their outputs. A word whose predecessor is a full prefix continues
  // stepping from the live state instead of resetting — that's the reset
  // amortization the prefix_hits counter measures, and what keeps a client's
  // step-by-step walk (each step a word one symbol longer) at one server
  // step per call.
  std::vector<std::string> exec_inputs;
  std::vector<std::string> exec_outputs;
  bool exec_valid = false;  // sul state == initial state + exec_inputs applied

  auto continues_live = [&](const std::vector<std::string>& word) {
    return exec_valid && exec_inputs.size() <= word.size() &&
           std::equal(exec_inputs.begin(), exec_inputs.end(), word.begin());
  };

  auto run_word = [&](const std::vector<std::string>& word, long* resets_done,
                      long* steps_done, long* prefix_continuations) {
    std::size_t keep = 0;
    if (continues_live(word)) {
      keep = exec_inputs.size();
    } else {
      sul.reset();
      ++*resets_done;
      exec_inputs.clear();
      exec_outputs.clear();
      exec_valid = true;
    }
    if (keep > 0) ++*prefix_continuations;
    std::vector<std::string> outputs(exec_outputs.begin(),
                                     exec_outputs.begin() + static_cast<std::ptrdiff_t>(keep));
    for (std::size_t i = keep; i < word.size(); ++i) {
      std::string out = sul.step(word[i]);
      ++*steps_done;
      exec_inputs.push_back(word[i]);
      exec_outputs.push_back(out);
      outputs.push_back(std::move(out));
    }
    return outputs;
  };

  // Malformed or oversized payloads get a structured per-request refusal;
  // the session survives — a refused request touched no SUL state.
  auto refuse = [&](const Frame& req, const char* reason) {
    send_control(conn, session_id, FrameType::kError, reason, req.epoch, req.seq);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batch_refusals;
  };

  // A structured close in answer to `req`, counted by `counter`.
  auto close_with = [&](const Frame& req, const char* reason, long SulServerStats::*counter) {
    send_control(conn, session_id, FrameType::kClose, reason, req.epoch, req.seq);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++(stats_.*counter);
    return std::string(reason);
  };
  const Frame unsolicited;  // epoch/seq 0: a close that answers no request

  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return "server_stop";

    // Wall-clock quota and drain deadline are time-based: check every poll.
    if (options_.max_session_seconds > 0 &&
        seconds_since(session_started) > options_.max_session_seconds) {
      return close_with(unsolicited, kReasonQuotaWall, &SulServerStats::quota_trips);
    }
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && seconds_since(drain_started_) > options_.drain_deadline_seconds) {
      return close_with(unsolicited, kReasonDrained, &SulServerStats::drained_closes);
    }
    if (options_.idle_timeout_seconds > 0 &&
        seconds_since(last_activity) > options_.idle_timeout_seconds) {
      return close_with(unsolicited, kReasonIdleTimeout, &SulServerStats::reaped_idle);
    }

    Frame req;
    switch (read_frame(conn, session_id, reader, options_.poll_seconds, &req)) {
      case ReadStatus::kFrame:
        break;
      case ReadStatus::kTimeout:
        continue;  // quota/drain/idle checks re-run above
      case ReadStatus::kBadFrame: {
        // Resync is impossible once framing breaks (the length prefix itself
        // is untrusted); drop the session and let the client replay.
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.framing_errors;
        return "framing_error";
      }
      case ReadStatus::kStop:
        return "server_stop";
      default:
        return "eof";
    }
    last_activity = Clock::now();

    if (options_.max_session_bytes > 0) {
      long bytes_in;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        bytes_in = sessions_[static_cast<std::size_t>(session_id)].bytes_in;
      }
      if (bytes_in > options_.max_session_bytes) {
        return close_with(req, kReasonQuotaBytes, &SulServerStats::quota_trips);
      }
    }

    Frame ack;
    ack.epoch = req.epoch;
    ack.seq = req.seq;
    std::vector<std::vector<std::string>> words;  // a word or batch request's words
    switch (req.type) {
      case FrameType::kHello:
        // A repeated hello inside a live session is harmless: re-ack.
        ack.type = FrameType::kHelloAck;
        ack.payload = with_batch_token(profile_.name, batch_words);
        break;
      case FrameType::kQueryWord: {
        auto word = decode_word(req.payload);
        if (!word) {
          refuse(req, kReasonBadWord);
          continue;
        }
        words.push_back(std::move(*word));
        ack.type = FrameType::kWordAck;
        break;
      }
      case FrameType::kQueryBatch: {
        const std::size_t cap = static_cast<std::size_t>(batch_words);
        auto decoded = decode_batch(req.payload, kMaxBatchWords);
        if (!decoded || decoded->size() > cap) {
          // Distinguish "too large" from "malformed" for the structured
          // refusal even when decoding bailed early: separator counts bound
          // the item/symbol totals without trusting the payload.
          const std::size_t semis = static_cast<std::size_t>(
              std::count(req.payload.begin(), req.payload.end(), ';'));
          const std::size_t commas = static_cast<std::size_t>(
              std::count(req.payload.begin(), req.payload.end(), ','));
          const bool too_large = (decoded && decoded->size() > cap) || semis + 1 > cap ||
                                 semis + commas + 1 > kMaxBatchSymbols;
          refuse(req, too_large ? kReasonBatchTooLarge : kReasonBadBatch);
          continue;
        }
        words = std::move(*decoded);
        ack.type = FrameType::kBatchAck;
        break;
      }
      case FrameType::kPing:
        ack.type = FrameType::kPong;
        break;
      case FrameType::kBye:
        return "bye";  // orderly end; no ack expected
      default: {
        // A frame type the server never expects (acks, pongs, control
        // frames): answer with a structured refusal and drop the session.
        send_control(conn, session_id, FrameType::kError,
                     "unexpected frame type: " + std::string(to_string(req.type)),
                     req.epoch, req.seq);
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
        return "protocol_error";
      }
    }
    const bool is_app_request =
        req.type == FrameType::kQueryWord || req.type == FrameType::kQueryBatch;

    // Quota and kill accounting run in logical reset+step units: a word
    // costs 1 + its length regardless of how many resets the prefix-sorted
    // execution actually saved, while resets_done/steps_done count the SUL
    // work really performed.
    long app_cost = 0;
    for (const auto& w : words) app_cost += 1 + static_cast<long>(w.size());

    // Drain: every word or batch frame is a word boundary, so close there
    // with a structured reason instead of starting another word. The one
    // exception is a single word that extends the live execution — a step
    // walk still finishing its in-flight word.
    if (draining && is_app_request &&
        !(req.type == FrameType::kQueryWord && continues_live(words.front()))) {
      return close_with(req, kReasonDrained, &SulServerStats::drained_closes);
    }

    // Per-session query quota, checked before the request mutates the SUL
    // so a quota-tripped session never half-applies a word: a request that
    // would take the session past its budget is refused whole.
    if (is_app_request && options_.max_session_queries > 0) {
      long session_requests;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        session_requests = sessions_[static_cast<std::size_t>(session_id)].requests;
      }
      if (session_requests + app_cost > options_.max_session_queries) {
        return close_with(req, kReasonQuotaQueries, &SulServerStats::quota_trips);
      }
    }

    long resets_done = 0;
    long steps_done = 0;
    long prefix_continuations = 0;
    if (is_app_request) {
      // Prefix-sorted execution: lexicographic order lands every word right
      // after its longest prefix in the request, so run_word continues
      // stepping instead of resetting. Acks go back in the *request* order.
      std::vector<std::size_t> order(words.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) { return words[a] < words[b]; });
      std::vector<BatchItem> items(words.size());
      for (const std::size_t idx : order) {
        items[idx].ok = true;
        items[idx].outputs = run_word(words[idx], &resets_done, &steps_done,
                                      &prefix_continuations);
      }
      ack.payload = req.type == FrameType::kQueryWord ? encode_word(items.front().outputs)
                                                      : encode_batch_ack(items);
    }

    bool kill = false;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (req.type == FrameType::kPing) ++stats_.pings;
      if (is_app_request) {
        SessionStats& s = sessions_[static_cast<std::size_t>(session_id)];
        const long pre = options_.kill_session < 0 ? stats_.requests : s.requests;
        stats_.requests += app_cost;
        s.requests += app_cost;
        stats_.resets += resets_done;
        s.resets += resets_done;
        stats_.steps += steps_done;
        s.steps += steps_done;
        stats_.prefix_hits += prefix_continuations;
        s.prefix_hits += prefix_continuations;
        if (req.type == FrameType::kQueryWord) {
          ++stats_.word_queries;
          ++s.word_queries;
        } else {
          ++stats_.batch_queries;
          ++s.batch_queries;
          stats_.batched_words += static_cast<long>(words.size());
          s.batched_words += static_cast<long>(words.size());
        }
        if (options_.kill_after_requests >= 0) {
          // Threshold crossing, not equality: a word/batch advances the count
          // by more than one unit, and the kill-at-every-message sweeps need
          // the hook to fire for *any* threshold inside that request.
          const long post = pre + app_cost;
          const bool in_scope =
              options_.kill_session < 0 || session_id == options_.kill_session;
          if (in_scope && pre < options_.kill_after_requests &&
              options_.kill_after_requests <= post) {
            kill = true;
            ++stats_.kills;
          }
        }
      }
    }
    if (kill && options_.kill_before_reply) return "killed";  // crash before the ack
    {
      Bytes wire = encode_frame(ack);
      if (!conn.send_all(wire, options_.poll_seconds)) return "eof";
      std::lock_guard<std::mutex> lock(stats_mu_);
      sessions_[static_cast<std::size_t>(session_id)].bytes_out +=
          static_cast<long>(wire.size());
    }
    if (kill) return "killed";  // crash after the ack
  }
}

}  // namespace procheck::net
