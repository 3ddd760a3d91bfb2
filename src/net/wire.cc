#include "net/wire.h"

#include <algorithm>
#include <cstdio>

#include "common/journal.h"  // crc32
#include "common/rng.h"      // prf64 (simulation-grade keyed MAC)

namespace procheck::net {

namespace {

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 | static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | static_cast<std::uint32_t>(p[3]);
}

Decoded bad(std::string reason) {
  Decoded d;
  d.status = DecodeStatus::kBadFrame;
  d.error = std::move(reason);
  return d;
}

}  // namespace

std::string_view to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kHelloAck:
      return "hello_ack";
    case FrameType::kPing:
      return "ping";
    case FrameType::kPong:
      return "pong";
    case FrameType::kBye:
      return "bye";
    case FrameType::kError:
      return "error";
    case FrameType::kChallenge:
      return "challenge";
    case FrameType::kAuthResponse:
      return "auth_response";
    case FrameType::kServerBusy:
      return "server_busy";
    case FrameType::kClose:
      return "close";
    case FrameType::kQueryWord:
      return "query_word";
    case FrameType::kWordAck:
      return "word_ack";
    case FrameType::kQueryBatch:
      return "query_batch";
    case FrameType::kBatchAck:
      return "batch_ack";
  }
  return "?";
}

bool known_frame_type(std::uint8_t raw) {
  // Every enumerator has a name; a retired or unassigned byte falls through
  // to_string's switch.
  return to_string(static_cast<FrameType>(raw)) != "?";
}

// ---------------------------------------------------------------------------
// Word / batch payload codec (wire v3)
// ---------------------------------------------------------------------------

namespace {

bool valid_symbol_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == '-';
}

/// Splits `text` into symbols at ','; total and bounds-checked. An empty
/// text is the empty word (ε), which is valid.
bool decode_word_into(std::string_view text, std::vector<std::string>* out) {
  out->clear();
  if (text.empty()) return true;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] != ',') {
      if (!valid_symbol_char(text[i])) return false;
      continue;
    }
    const std::size_t len = i - start;
    if (len == 0 || len > kMaxSymbolChars) return false;
    if (out->size() >= kMaxWordSymbols) return false;
    out->emplace_back(text.substr(start, len));
    start = i + 1;
  }
  return true;
}

}  // namespace

bool encodable_symbol(std::string_view symbol) {
  return !symbol.empty() && symbol.size() <= kMaxSymbolChars &&
         std::all_of(symbol.begin(), symbol.end(), valid_symbol_char);
}

std::string encode_word(const std::vector<std::string>& word) {
  std::string out;
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (i > 0) out += ',';
    out += word[i];
  }
  return out;
}

std::optional<std::vector<std::string>> decode_word(std::string_view text) {
  std::vector<std::string> word;
  if (!decode_word_into(text, &word)) return std::nullopt;
  return word;
}

std::string encode_batch(const std::vector<std::vector<std::string>>& words) {
  std::string out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i > 0) out += ';';
    out += encode_word(words[i]);
  }
  return out;
}

std::optional<std::vector<std::vector<std::string>>> decode_batch(std::string_view text,
                                                                  std::size_t max_words) {
  std::vector<std::vector<std::string>> words;
  const std::size_t cap = max_words == 0 || max_words > kMaxBatchWords ? kMaxBatchWords
                                                                       : max_words;
  std::size_t total_symbols = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] != ';') continue;
    if (words.size() >= cap) return std::nullopt;
    std::vector<std::string> word;
    if (!decode_word_into(text.substr(start, i - start), &word)) return std::nullopt;
    // An empty item is only meaningful as the single ε word of a one-item
    // batch; ";;" runs are malformed.
    if (word.empty() && text.size() > 0) return std::nullopt;
    total_symbols += word.size();
    if (total_symbols > kMaxBatchSymbols) return std::nullopt;
    words.push_back(std::move(word));
    start = i + 1;
  }
  if (words.empty()) return std::nullopt;
  return words;
}

std::string encode_batch_ack(const std::vector<BatchItem>& items) {
  // Per-item status prefix: '+' carries outputs, '!' carries a reason token.
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ';';
    if (items[i].ok) {
      out += '+';
      out += encode_word(items[i].outputs);
    } else {
      out += '!';
      for (char c : items[i].error) out += valid_symbol_char(c) ? c : '_';
    }
  }
  return out;
}

std::optional<std::vector<BatchItem>> decode_batch_ack(std::string_view text,
                                                       std::size_t max_words) {
  std::vector<BatchItem> items;
  const std::size_t cap = max_words == 0 || max_words > kMaxBatchWords ? kMaxBatchWords
                                                                       : max_words;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] != ';') continue;
    if (items.size() >= cap) return std::nullopt;
    std::string_view item = text.substr(start, i - start);
    if (item.empty()) return std::nullopt;
    BatchItem decoded;
    if (item[0] == '+') {
      decoded.ok = true;
      if (!decode_word_into(item.substr(1), &decoded.outputs)) return std::nullopt;
    } else if (item[0] == '!') {
      decoded.ok = false;
      std::string_view reason = item.substr(1);
      if (reason.empty() || reason.size() > kMaxSymbolChars) return std::nullopt;
      for (char c : reason) {
        if (!valid_symbol_char(c)) return std::nullopt;
      }
      decoded.error.assign(reason);
    } else {
      return std::nullopt;
    }
    items.push_back(std::move(decoded));
    start = i + 1;
  }
  if (items.empty()) return std::nullopt;
  return items;
}

std::string with_batch_token(const std::string& base, int batch_words) {
  if (batch_words <= 0) return base;
  return base + " batch=" + std::to_string(batch_words);
}

int parse_batch_token(std::string_view payload) {
  const std::string_view token = " batch=";
  const std::size_t at = payload.rfind(token);
  if (at == std::string_view::npos) return 0;
  std::string_view digits = payload.substr(at + token.size());
  if (digits.empty() || digits.size() > 4) return 0;
  int value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
    value = value * 10 + (c - '0');
  }
  if (value <= 0) return 0;
  return value > static_cast<int>(kMaxBatchWords) ? static_cast<int>(kMaxBatchWords) : value;
}

std::string strip_batch_token(std::string_view payload) {
  const std::string_view token = " batch=";
  const std::size_t at = payload.rfind(token);
  if (at == std::string_view::npos || parse_batch_token(payload) == 0) {
    return std::string(payload);
  }
  return std::string(payload.substr(0, at));
}

std::string auth_mac(const std::string& psk, const std::string& nonce_hex,
                     std::uint32_t epoch) {
  // Key = PRF of the PSK octets under a fixed domain constant; MAC = PRF of
  // (nonce || epoch) under that key. Domain separation keeps this MAC from
  // colliding with any other prf64 use in the framework.
  Bytes key_material(psk.begin(), psk.end());
  const std::uint64_t key = prf64(0x50C5A117u, key_material);
  Bytes data(nonce_hex.begin(), nonce_hex.end());
  put_u32(data, epoch);
  const std::uint64_t mac = prf64(key, data);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(mac));
  return hex;
}

bool constant_time_equal(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  unsigned char acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<unsigned char>(acc | (static_cast<unsigned char>(a[i]) ^
                                            static_cast<unsigned char>(b[i])));
  }
  return acc == 0;
}

Bytes encode_frame(const Frame& frame) {
  const std::size_t payload = frame.payload.size() <= kMaxFramePayload
                                  ? frame.payload.size()
                                  : kMaxFramePayload;  // defensive clamp
  Bytes out;
  out.reserve(4 + kFrameOverhead + payload);
  put_u32(out, static_cast<std::uint32_t>(kFrameOverhead + payload));
  put_u16(out, kWireMagic);
  out.push_back(frame.version);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  put_u32(out, frame.epoch);
  put_u32(out, frame.seq);
  out.insert(out.end(), frame.payload.begin(), frame.payload.begin() +
                            static_cast<std::ptrdiff_t>(payload));
  // CRC over magic..payload (body minus the CRC itself).
  std::string_view body(reinterpret_cast<const char*>(out.data() + 4), out.size() - 4);
  put_u32(out, crc32(body));
  return out;
}

Decoded decode_frame(const Bytes& wire, std::size_t* consumed) {
  if (consumed) *consumed = 0;
  if (wire.size() < 4) {
    Decoded d;
    d.status = DecodeStatus::kNeedMore;
    return d;
  }
  const std::uint32_t length = get_u32(wire.data());
  if (length < kFrameOverhead || length > kFrameOverhead + kMaxFramePayload) {
    return bad("frame length out of range");
  }
  if (wire.size() < 4 + static_cast<std::size_t>(length)) {
    Decoded d;
    d.status = DecodeStatus::kNeedMore;
    return d;
  }
  const std::uint8_t* body = wire.data() + 4;
  if (get_u16(body) != kWireMagic) return bad("bad magic");
  if (body[2] < kMinWireVersion || body[2] > kWireVersion) {
    return bad("unsupported protocol version");
  }
  if (!known_frame_type(body[3])) return bad("unknown frame type");

  const std::size_t payload_len = length - kFrameOverhead;
  const std::uint32_t tagged = get_u32(body + 12 + payload_len);
  std::string_view covered(reinterpret_cast<const char*>(body), length - 4);
  if (crc32(covered) != tagged) return bad("crc mismatch");

  Decoded d;
  d.status = DecodeStatus::kFrame;
  d.frame.type = static_cast<FrameType>(body[3]);
  d.frame.version = body[2];
  d.frame.epoch = get_u32(body + 4);
  d.frame.seq = get_u32(body + 8);
  d.frame.payload.assign(reinterpret_cast<const char*>(body + 12), payload_len);
  if (consumed) *consumed = 4 + length;
  return d;
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (poisoned_) return;  // the stream is already dead; don't accumulate
  buf_.insert(buf_.end(), data, data + n);
}

Decoded FrameReader::next() {
  if (poisoned_) {
    Decoded d;
    d.status = DecodeStatus::kBadFrame;
    d.error = poison_reason_;
    return d;
  }
  // Compact lazily so long sessions don't grow the buffer unboundedly.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  Bytes window(buf_.begin() + static_cast<std::ptrdiff_t>(pos_), buf_.end());
  std::size_t consumed = 0;
  Decoded d = decode_frame(window, &consumed);
  if (d.status == DecodeStatus::kFrame) {
    pos_ += consumed;
  } else if (d.status == DecodeStatus::kBadFrame) {
    poisoned_ = true;
    poison_reason_ = d.error;
  }
  return d;
}

void FrameReader::reset() {
  buf_.clear();
  pos_ = 0;
  poisoned_ = false;
  poison_reason_.clear();
}

}  // namespace procheck::net
