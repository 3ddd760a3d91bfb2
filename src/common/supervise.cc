#include "common/supervise.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <thread>

#include "common/json.h"
#include "common/rng.h"

namespace procheck::supervise {

namespace {

struct FailureInfo {
  Failure failure;
  std::string_view token;
  Retry retry;
};

// The tokens are a file format (analyze journal records, the report's
// "contained failures:" line, learn's stderr summary): never respell one.
constexpr FailureInfo kFailures[] = {
    {Failure::kNone, "none", Retry::kStop},
    {Failure::kException, "exception", Retry::kFullBudget},
    {Failure::kDeadline, "deadline", Retry::kDegrade},
    {Failure::kMemCeiling, "mem-ceiling", Retry::kDegrade},
    {Failure::kBudget, "budget", Retry::kDegrade},
    {Failure::kQueryBudget, "query_budget", Retry::kDegrade},
    {Failure::kByteBudget, "byte_budget", Retry::kDegrade},
    {Failure::kCancelled, "cancelled", Retry::kStop},
    {Failure::kContested, "contested", Retry::kStop},
    {Failure::kUnavailable, "sul_unavailable", Retry::kFullBudget},
};

const FailureInfo& info(Failure f) { return kFailures[static_cast<std::size_t>(f)]; }

// v2 adds "opts", the options fingerprint; a journal without one is foreign.
constexpr int kHeaderVersion = 2;

}  // namespace

std::string_view to_string(Failure f) { return info(f).token; }

std::optional<Failure> parse_failure(std::string_view token) {
  for (const FailureInfo& i : kFailures) {
    if (i.token == token) return i.failure;
  }
  return std::nullopt;
}

Retry retry_policy(Failure f) { return info(f).retry; }

std::string worker_exception(std::string_view what) {
  return "worker exception: " + std::string(what);
}

LadderResult run_ladder(const Options& options, std::string_view label, std::string* note,
                        const std::function<Failure(int attempt)>& attempt,
                        const std::function<void(const std::string& what)>& on_exception,
                        const std::function<void()>& degrade) {
  const int total = 1 + std::max(0, options.retries);
  LadderResult out;
  for (int k = 1;; ++k) {
    out.attempts = k;
    try {
      out.failure = attempt(k);
    } catch (const std::exception& e) {
      on_exception(e.what());
      out.failure = Failure::kException;
    } catch (...) {
      on_exception("unknown exception type");
      out.failure = Failure::kException;
    }
    const Retry retry = retry_policy(out.failure);
    if (retry == Retry::kStop) return out;
    if (k == total) break;
    if (retry == Retry::kDegrade) degrade();
    if (options.backoff_seconds > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.backoff_seconds * std::ldexp(1.0, k - 1)));
    }
  }
  if (total > 1) {
    if (!note->empty()) *note += ' ';
    *note += "[" + std::string(label) + ": " + std::string(to_string(out.failure)) +
             " persisted through " + std::to_string(out.attempts) + " attempts]";
  }
  return out;
}

std::string fingerprint(std::uint64_t key, std::string_view canon) {
  const std::uint64_t h = prf64(key, Bytes(canon.begin(), canon.end()));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

std::string encode_header(const Header& header) {
  return "{\"kind\":\"header\",\"v\":" + std::to_string(kHeaderVersion) +
         ",\"tag\":" + json_quote(header.tag) + ",\"opts\":" + json_quote(header.opts) + "}";
}

std::optional<Header> decode_header(std::string_view payload) {
  std::optional<Json> v = json_parse(payload);
  if (!v || !v->is(Json::Type::kObject)) return std::nullopt;
  if (v->get_str("kind") != "header" || v->get_int("v") != kHeaderVersion) return std::nullopt;
  return Header{v->get_str("tag"), v->get_str("opts")};
}

bool JournalSession::open(const Options& options, std::string_view kind,
                          std::string options_hash) {
  path_ = options.journal_path;
  header_ = Header{options.run_tag, std::move(options_hash)};
  if (path_.empty()) return true;
  if (!lock_.acquire(path_)) {
    refusal_ = "concurrent " + std::string(kind) + " run: " + lock_.error();
    return false;
  }
  if (!options.resume) return true;
  JournalLoad load = load_journal(path_);
  if (load.payloads.empty()) return true;
  const std::optional<Header> found = decode_header(load.payloads.front());
  if (!found) {
    note_ = "journal header malformed; starting fresh";
  } else if (!header_.tag.empty() && found->tag != header_.tag) {
    // Another profile's journal must never leak into this run.
    note_ = "journal header mismatch (tag '" + found->tag + "' vs '" + header_.tag +
            "'); starting fresh";
  } else if (!header_.opts.empty() && found->opts != header_.opts) {
    // Its records were made under other budgets: adopting them would mix
    // incompatible runs, discarding them would throw away work the user
    // asked to keep. Refuse, loudly.
    refusal_ = "resume refused: journal " + path_ + " was written with options hash " +
               (found->opts.empty() ? std::string("<none>") : found->opts) +
               " but this run has " + header_.opts +
               "; re-run with matching options or delete the journal";
    return false;
  } else {
    resumed_.assign(std::make_move_iterator(load.payloads.begin() + 1),
                    std::make_move_iterator(load.payloads.end()));
  }
  return true;
}

bool JournalSession::rewrite(const std::vector<std::string>& records) {
  if (path_.empty()) return true;
  std::vector<std::string> lines;
  lines.reserve(records.size() + 1);
  lines.push_back(encode_header(header_));
  lines.insert(lines.end(), records.begin(), records.end());
  return writer_.replace(path_, lines) || fail();
}

void JournalSession::append(std::string_view payload) {
  if (!path_.empty()) writer_.append(payload);
}

bool JournalSession::commit() { return path_.empty() || writer_.commit() || fail(); }

std::size_t JournalSession::records() const {
  return writer_.records() > 0 ? writer_.records() - 1 : 0;
}

bool JournalSession::fail() {
  if (error_.empty()) {
    error_ = "journal write failed at " + path_ + "; continuing without durability";
  }
  return false;
}

}  // namespace procheck::supervise
