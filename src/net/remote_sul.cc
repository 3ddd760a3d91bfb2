#include "net/remote_sul.h"

#include <algorithm>
#include <deque>
#include <set>

namespace procheck::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

void sleep_seconds(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Batch frames allowed in flight before query_batch waits on an ack (acks
/// come back in request order, so the window just hides RTTs).
constexpr std::size_t kMaxInflightBatches = 4;
static_assert(kMaxWordSymbols <= kMaxBatchSymbols, "every sendable word fits one batch");

/// Why the v3 codec cannot carry this word verbatim ("" when it can). Such a
/// word is refused, never re-encoded lossily.
std::string unsendable_reason(const std::vector<std::string>& word) {
  if (word.size() > kMaxWordSymbols) {
    return "word of " + std::to_string(word.size()) + " symbols exceeds the " +
           std::to_string(kMaxWordSymbols) + "-symbol wire bound";
  }
  for (const std::string& s : word) {
    if (!encodable_symbol(s)) return "symbol '" + s + "' is not encodable on the wire";
  }
  return "";
}

}  // namespace

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

RemoteUeSul::RemoteUeSul(RemoteSulOptions options)
    : options_(options), jitter_(options.seed) {
  options_.max_batch_words =
      std::clamp(options_.max_batch_words, 1, static_cast<int>(kMaxBatchWords));
  if (options_.heartbeat_seconds > 0) {
    heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
  }
}

RemoteUeSul::~RemoteUeSul() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    stopping_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (conn_.valid()) {
    Frame bye;
    bye.type = FrameType::kBye;
    bye.epoch = epoch_;
    bye.seq = ++seq_;
    conn_.send_all(encode_frame(bye), 0.05);  // best-effort courtesy
  }
}

void RemoteUeSul::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ++resets_;
  word_.clear();
}

long RemoteUeSul::resets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resets_;
}

long RemoteUeSul::steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_;
}

RemoteSulStats RemoteUeSul::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

BreakerState RemoteUeSul::breaker() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_;
}

std::string RemoteUeSul::server_profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return server_profile_;
}

std::string RemoteUeSul::last_close_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_close_reason_;
}

std::string RemoteUeSul::unavailable_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!refusal_.empty()) return refusal_;
  if (!last_close_reason_.empty()) return "server said: " + last_close_reason_;
  if (stats_.connect_failures > 0 && stats_.connects == 0) return "server unreachable";
  if (stats_.unavailable_answers == 0) return "";
  return "link failed: " + std::to_string(stats_.rpc_timeouts) + " timeouts, " +
         std::to_string(stats_.framing_errors) + " framing errors, breaker " +
         std::string(to_string(breaker_));
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

bool RemoteUeSul::breaker_allows_locked() {
  switch (breaker_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (seconds_since(breaker_opened_at_) < options_.breaker_open_seconds) return false;
      breaker_ = BreakerState::kHalfOpen;  // cooldown elapsed: one probe
      ++stats_.breaker_probes;
      return true;
    case BreakerState::kHalfOpen:
      // A probe is conceptually in flight; the single-threaded query path
      // means we *are* the probe.
      return true;
  }
  return true;
}

void RemoteUeSul::record_failure_locked() {
  ++consecutive_failures_;
  if (breaker_ == BreakerState::kHalfOpen ||
      (breaker_ == BreakerState::kClosed &&
       consecutive_failures_ >= options_.breaker_failure_threshold)) {
    breaker_ = BreakerState::kOpen;
    breaker_opened_at_ = Clock::now();
    ++stats_.breaker_opens;
  }
}

void RemoteUeSul::record_success_locked() {
  consecutive_failures_ = 0;
  breaker_ = BreakerState::kClosed;
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

void RemoteUeSul::drop_connection_locked() {
  conn_.close();
  reader_.reset();
}

bool RemoteUeSul::connect_locked(double budget_seconds) {
  auto conn = TcpConn::connect(options_.host, options_.port, budget_seconds);
  if (!conn) {
    ++stats_.connect_failures;
    return false;
  }
  conn_ = std::move(*conn);
  reader_.reset();
  ++epoch_;  // stale answers from the dead link can never match again
  seq_ = 0;
  ++stats_.connects;
  if (stats_.connects > 1) ++stats_.reconnects;

  auto ack = rpc_locked(FrameType::kHello,
                        with_batch_token("prochecker-learner", options_.max_batch_words));
  if (ack && ack->type == FrameType::kChallenge) {
    // PSK handshake: prove key possession with a MAC over the server's fresh
    // nonce and our epoch. An empty PSK still answers (with a wrong MAC) so
    // the refusal comes back as a structured auth_failed close.
    ++stats_.auth_challenges;
    const std::string mac = auth_mac(options_.psk, ack->payload, epoch_);
    ack = rpc_locked(FrameType::kAuthResponse, mac);
  }
  if (!ack || ack->type != FrameType::kHelloAck) {
    drop_connection_locked();
    return false;
  }
  negotiated_batch_ = parse_batch_token(ack->payload);
  server_profile_ = strip_batch_token(ack->payload);
  return true;
}

bool RemoteUeSul::send_frame_locked(FrameType type, const std::string& payload,
                                    std::uint32_t* seq_out) {
  if (!conn_.valid()) return false;
  Frame req;
  req.type = type;
  req.epoch = epoch_;
  req.seq = ++seq_;
  req.payload = payload;
  if (!conn_.send_all(encode_frame(req), options_.call_deadline_seconds)) {
    drop_connection_locked();
    return false;
  }
  *seq_out = req.seq;
  return true;
}

std::optional<Frame> RemoteUeSul::rpc_locked(FrameType type, const std::string& payload) {
  std::uint32_t seq = 0;
  if (!send_frame_locked(type, payload, &seq)) return std::nullopt;
  return await_ack_locked(seq);
}

std::optional<Frame> RemoteUeSul::await_ack_locked(std::uint32_t seq) {
  if (!conn_.valid()) return std::nullopt;
  const auto started = Clock::now();
  Bytes chunk;
  while (seconds_since(started) < options_.call_deadline_seconds) {
    Decoded d = reader_.next();
    if (d.status == DecodeStatus::kBadFrame) {
      // Corruption is *detected*, never consumed: the CRC turned it into a
      // framing error, and the only safe move is a fresh connection.
      ++stats_.framing_errors;
      drop_connection_locked();
      return std::nullopt;
    }
    if (d.status == DecodeStatus::kFrame) {
      // Server-initiated control frames carry the *server's* sequencing
      // (admission rejects precede our hello; drain/quota closes fire at poll
      // time), so they must be recognized before the epoch/seq match below
      // would discard them as stale.
      if (d.frame.type == FrameType::kServerBusy || d.frame.type == FrameType::kClose) {
        if (d.frame.type == FrameType::kServerBusy) {
          ++stats_.busy_rejects;
        } else {
          ++stats_.server_closes;
        }
        last_close_reason_ = d.frame.payload;
        drop_connection_locked();
        return std::nullopt;
      }
      if (d.frame.epoch != epoch_ || d.frame.seq != seq) {
        ++stats_.stale_frames;  // leftover answer from an earlier life
        continue;
      }
      if (d.frame.type == FrameType::kError) {
        drop_connection_locked();
        return std::nullopt;
      }
      return d.frame;
    }
    chunk.clear();
    double remaining = options_.call_deadline_seconds - seconds_since(started);
    auto status = conn_.recv_some(chunk, 4096, std::max(remaining, 0.001));
    if (status == TcpConn::RecvStatus::kData) {
      reader_.feed(chunk);
      continue;
    }
    if (status == TcpConn::RecvStatus::kTimeout) break;
    drop_connection_locked();  // EOF or socket error
    return std::nullopt;
  }
  ++stats_.rpc_timeouts;
  drop_connection_locked();  // the stream may deliver the answer later; too late
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Query path (wire v3 words and batches)
// ---------------------------------------------------------------------------

RemoteUeSul::Link RemoteUeSul::prepare_link_locked(double* backoff_scale) {
  if (!breaker_allows_locked()) return Link::kGiveUp;
  if (!conn_.valid()) {
    // Jittered exponential backoff before redialing (scale grows per attempt).
    const double backoff =
        std::min(options_.backoff_base_seconds * *backoff_scale, options_.backoff_max_seconds);
    sleep_seconds(backoff * (0.5 + 0.5 * static_cast<double>(jitter_.next_below(1000)) / 1000.0));
    *backoff_scale *= 2.0;
    if (!connect_locked(options_.connect_timeout_seconds)) {
      record_failure_locked();
      return breaker_ == BreakerState::kOpen ? Link::kGiveUp : Link::kRetry;
    }
  }
  if (negotiated_batch_ <= 0) {
    refusal_ = "server granted no word batch in its hello-ack (wire v3 required)";
    return Link::kGiveUp;
  }
  return Link::kReady;
}

std::optional<std::vector<std::string>> RemoteUeSul::word_query_locked(
    const std::vector<std::string>& word) {
  if (std::string why = unsendable_reason(word); !why.empty()) {
    refusal_ = std::move(why);
    return std::nullopt;
  }
  double backoff_scale = 1.0;
  for (int attempt = 0; attempt < options_.attempts_per_query; ++attempt) {
    const Link link = prepare_link_locked(&backoff_scale);
    if (link == Link::kGiveUp) break;
    if (link == Link::kRetry) continue;
    auto ack = rpc_locked(FrameType::kQueryWord, encode_word(word));
    auto outs =
        ack && ack->type == FrameType::kWordAck ? decode_word(ack->payload) : std::nullopt;
    if (outs && outs->size() == word.size()) {
      record_success_locked();
      ++stats_.word_queries;
      return outs;
    }
    record_failure_locked();
    backoff_scale *= 2.0;
    if (breaker_ == BreakerState::kOpen) break;  // stop hammering a dead server
  }
  return std::nullopt;
}

std::string RemoteUeSul::step(const std::string& input) {
  std::lock_guard<std::mutex> lock(mu_);
  ++steps_;
  word_.push_back(input);
  if (auto outs = word_query_locked(word_)) return outs->back();
  ++stats_.unavailable_answers;
  return learner::kSulUnavailable;
}

std::vector<std::string> RemoteUeSul::query_word(const std::vector<std::string>& word) {
  std::lock_guard<std::mutex> lock(mu_);
  ++resets_;
  steps_ += static_cast<long>(word.size());
  if (auto outs = word_query_locked(word)) return *outs;
  // The structured unavailable symbol the learner converts into
  // "inconclusive".
  ++stats_.unavailable_answers;
  return std::vector<std::string>(word.size(), learner::kSulUnavailable);
}

void RemoteUeSul::batch_rpc_locked(
    const std::vector<std::vector<std::string>>& words,
    std::map<std::vector<std::string>, std::vector<std::string>>* answered) {
  std::vector<std::vector<std::string>> remaining;
  for (const auto& w : words) {
    if (!w.empty() && unsendable_reason(w).empty()) remaining.push_back(w);
  }

  double backoff_scale = 1.0;
  for (int attempt = 0; attempt < options_.attempts_per_query && !remaining.empty();
       ++attempt) {
    const Link link = prepare_link_locked(&backoff_scale);
    if (link == Link::kGiveUp) break;
    if (link == Link::kRetry) continue;

    // Chunk the remaining words by the negotiated count and the codec's
    // total-symbol bound, keeping up to kMaxInflightBatches frames in the
    // air; acks come back in request order.
    const std::size_t cap = static_cast<std::size_t>(negotiated_batch_);
    std::deque<std::pair<std::uint32_t, std::vector<std::vector<std::string>>>> inflight;
    std::size_t next = 0;
    bool failed = false;

    auto drain_one = [&]() {
      auto [seq, chunk] = std::move(inflight.front());
      inflight.pop_front();
      auto ack = await_ack_locked(seq);
      if (!ack || ack->type != FrameType::kBatchAck) return false;
      const auto items = decode_batch_ack(ack->payload, chunk.size());
      if (!items || items->size() != chunk.size()) {
        drop_connection_locked();  // the server answered something we never asked
        return false;
      }
      ++stats_.batch_queries;
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        const BatchItem& item = (*items)[i];
        if (!item.ok || item.outputs.size() != chunk[i].size()) continue;
        ++resets_;
        steps_ += static_cast<long>(chunk[i].size());
        ++stats_.batched_words;
        (*answered)[chunk[i]] = item.outputs;
      }
      return true;
    };

    while (next < remaining.size() || !inflight.empty()) {
      while (next < remaining.size() && inflight.size() < kMaxInflightBatches &&
             conn_.valid()) {
        std::vector<std::vector<std::string>> chunk;
        std::size_t symbols = 0;
        while (next < remaining.size() && chunk.size() < cap &&
               symbols + remaining[next].size() <= kMaxBatchSymbols) {
          symbols += remaining[next].size();
          chunk.push_back(remaining[next]);
          ++next;
        }
        std::uint32_t seq = 0;
        if (!send_frame_locked(FrameType::kQueryBatch, encode_batch(chunk), &seq)) {
          failed = true;
          break;
        }
        inflight.emplace_back(seq, std::move(chunk));
      }
      if (inflight.empty()) break;
      if (!drain_one()) {
        failed = true;
        break;
      }
    }

    std::vector<std::vector<std::string>> still;
    for (const auto& w : remaining) {
      if (answered->count(w) == 0) still.push_back(w);
    }
    remaining = std::move(still);
    if (failed) {
      record_failure_locked();
      backoff_scale *= 2.0;
      if (breaker_ == BreakerState::kOpen) break;
    } else if (remaining.empty()) {
      record_success_locked();
    }
  }
}

std::vector<std::vector<std::string>> RemoteUeSul::query_batch(
    const std::vector<std::vector<std::string>>& words) {
  // Dedupe identical words client-side: each distinct word rides the wire
  // once and fans its answer back out to every position that asked for it.
  std::vector<std::vector<std::string>> unique;
  std::set<std::vector<std::string>> seen;
  for (const auto& w : words) {
    if (seen.insert(w).second) unique.push_back(w);
  }
  std::map<std::vector<std::string>, std::vector<std::string>> answered;

  if (unique.size() > 1) {
    std::lock_guard<std::mutex> lock(mu_);
    batch_rpc_locked(unique, &answered);
  }
  // Anything a batch could not carry (transport failure, unsendable words)
  // finishes through query_word's retry and degradation rules.
  for (const auto& w : unique) {
    if (answered.count(w) == 0) answered[w] = query_word(w);
  }

  std::vector<std::vector<std::string>> results;
  results.reserve(words.size());
  for (const auto& w : words) results.push_back(answered.at(w));
  return results;
}

int RemoteUeSul::negotiated_batch_words() const {
  std::lock_guard<std::mutex> lock(mu_);
  return negotiated_batch_;
}

// ---------------------------------------------------------------------------
// Heartbeat
// ---------------------------------------------------------------------------

void RemoteUeSul::heartbeat_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(lock, std::chrono::duration<double>(options_.heartbeat_seconds),
                      [this] { return stopping_; });
      if (stopping_) return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!conn_.valid()) continue;  // nothing to keep alive
    ++stats_.heartbeats;
    auto pong = rpc_locked(FrameType::kPing, "");
    if (!pong || pong->type != FrameType::kPong) {
      // rpc_locked already dropped the connection; the next query redials.
      ++stats_.heartbeat_failures;
    }
  }
}

}  // namespace procheck::net
