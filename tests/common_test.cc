#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/bytes.h"
#include "common/journal.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/supervise.h"
#include "common/table.h"

namespace procheck {
namespace {

// --- bytes -------------------------------------------------------------

TEST(Hex, RoundTrip) {
  Bytes data{0x00, 0x01, 0xAB, 0xFF};
  std::string hex = to_hex(data);
  EXPECT_EQ(hex, "0001abff");
  auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, AcceptsUppercase) {
  auto out = from_hex("ABCDEF");
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(to_hex(*out), "abcdef");
}

TEST(Hex, RejectsOddLength) { EXPECT_FALSE(from_hex("abc").has_value()); }

TEST(Hex, RejectsNonHex) { EXPECT_FALSE(from_hex("zz").has_value()); }

TEST(Hex, EmptyIsEmpty) {
  EXPECT_EQ(to_hex({}), "");
  auto out = from_hex("");
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(ByteWriterReader, PrimitiveRoundTrip) {
  ByteWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789ABCDE);
  w.u64(0x0123456789ABCDEFULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789ABCDEu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(r.ok());
}

TEST(ByteWriterReader, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.bytes(), (Bytes{0x01, 0x02}));
}

TEST(ByteWriterReader, BlobAndStringRoundTrip) {
  ByteWriter w;
  w.blob({0xDE, 0xAD});
  w.str("attach_request");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.blob(), (Bytes{0xDE, 0xAD}));
  EXPECT_EQ(r.str(), "attach_request");
  EXPECT_TRUE(r.at_end());
}

TEST(ByteReader, OutOfBoundsReturnsNullopt) {
  Bytes buf{0x01};
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_FALSE(r.u8().has_value());
  EXPECT_FALSE(r.ok());
  // Further reads keep failing; no UB.
  EXPECT_FALSE(r.u32().has_value());
}

TEST(ByteReader, TruncatedBlobFails) {
  ByteWriter w;
  w.u16(10);  // claims 10 bytes
  w.u8(0x01);
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.blob().has_value());
}

TEST(ByteReader, EmptyBlob) {
  ByteWriter w;
  w.blob({});
  ByteReader r(w.bytes());
  auto b = r.blob();
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(b->empty());
}

// --- rng ---------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(13), 13u);
}

TEST(Rng, BytesLength) {
  Rng r(9);
  EXPECT_EQ(r.next_bytes(17).size(), 17u);
  EXPECT_TRUE(r.next_bytes(0).empty());
}

TEST(Prf, DeterministicAndKeyed) {
  Bytes data{1, 2, 3};
  EXPECT_EQ(prf64(5, data), prf64(5, data));
  EXPECT_NE(prf64(5, data), prf64(6, data));
  EXPECT_NE(prf64(5, data), prf64(5, Bytes{1, 2, 4}));
}

TEST(Prf, LengthSensitive) {
  EXPECT_NE(prf64(1, Bytes{0}), prf64(1, Bytes{0, 0}));
}

TEST(PrfStream, DeterministicLengthAndIv) {
  Bytes a = prf_stream(1, 2, 32);
  Bytes b = prf_stream(1, 2, 32);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 32u);
  EXPECT_NE(prf_stream(1, 3, 32), a);
  EXPECT_NE(prf_stream(2, 2, 32), a);
  // Prefix property: a longer stream extends a shorter one.
  Bytes longer = prf_stream(1, 2, 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), longer.begin()));
}

// --- strings -----------------------------------------------------------

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitLinesDropsTrailing) {
  EXPECT_EQ(split_lines("a\nb\n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_lines("a\nb"), (std::vector<std::string>{"a", "b"}));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"x", "y"}, " & "), "x & y");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Predicates) {
  EXPECT_TRUE(starts_with("recv_attach", "recv_"));
  EXPECT_FALSE(starts_with("recv", "recv_"));
  EXPECT_TRUE(ends_with("x_trigger", "_trigger"));
  EXPECT_FALSE(ends_with("trig", "_trigger"));
  EXPECT_TRUE(contains("abc", "b"));
  EXPECT_FALSE(contains("abc", "d"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("abc", "x", "y"), "abc");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC"), "abc"); }

// --- table -------------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  TextTable t({"Attack", "srsLTE", "OAI"});
  t.add_row({"P1", "yes", "yes"});
  t.add_row({"longer-name", "no", "yes"});
  std::string out = t.render();
  EXPECT_NE(out.find("Attack"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Every data line has the separator in the same column.
  auto lines = split_lines(out);
  ASSERT_GE(lines.size(), 4u);
  std::size_t sep = lines[0].find('|');
  EXPECT_EQ(lines[2].find('|'), sep);
  EXPECT_EQ(lines[3].find('|'), sep);
}

TEST(TextTable, SectionsAndRules) {
  TextTable t({"a", "b"});
  t.add_section("New Attacks");
  t.add_row({"x", "y"});
  t.add_rule();
  t.add_row({"z", "w"});
  std::string out = t.render();
  EXPECT_NE(out.find("New Attacks"), std::string::npos);
  EXPECT_EQ(t.row_count(), 4u);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_NO_THROW(t.render());
}

// --- journal writer ----------------------------------------------------

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

ino_t inode_of(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

TEST(JournalWriterTest, CommitsAppendInPlace) {
  const std::string path = temp_path("journal_append.jsonl");
  std::remove(path.c_str());
  JournalWriter writer;
  ASSERT_TRUE(writer.replace(path, {"head"}));
  const ino_t started = inode_of(path);
  const std::string before = slurp(path);
  writer.append("one");
  writer.append("two");
  ASSERT_TRUE(writer.commit());
  // Same file, extended: no per-commit rewrite or rename.
  EXPECT_EQ(inode_of(path), started);
  EXPECT_EQ(slurp(path).compare(0, before.size(), before), 0);
  EXPECT_EQ(load_journal(path).payloads, (std::vector<std::string>{"head", "one", "two"}));
  EXPECT_EQ(writer.records(), 3u);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(JournalWriterTest, FailedCommitPoisonsTheWriter) {
  const std::string path = temp_path("journal_poison.jsonl");
  std::remove(path.c_str());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // A file-size limit cuts the big commit's single write() short, leaving
    // a torn line the way a full disk would.
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit normal{};
    ::getrlimit(RLIMIT_FSIZE, &normal);
    rlimit small = normal;
    small.rlim_cur = 64;
    JournalWriter writer;
    int code = writer.replace(path, {"head"}) ? 0 : 1;
    ::setrlimit(RLIMIT_FSIZE, &small);
    writer.append(std::string(200, 'a'));
    if (writer.commit()) code |= 2;
    ::setrlimit(RLIMIT_FSIZE, &normal);
    // The file could grow again; the poisoned writer must still refuse.
    writer.append("tail");
    if (writer.commit()) code |= 4;
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(slurp(path).size(), 64u);  // the torn line, nothing behind it
  const JournalLoad load = load_journal(path);
  EXPECT_EQ(load.payloads, (std::vector<std::string>{"head"}));
  EXPECT_EQ(load.dropped, 1u);
}

// --- supervision core --------------------------------------------------

using supervise::Failure;
using supervise::Retry;

TEST(SuperviseFailure, TokensRoundTripWithTheirJournalSpellings) {
  const std::vector<std::pair<Failure, std::string>> spellings = {
      {Failure::kNone, "none"},
      {Failure::kException, "exception"},
      {Failure::kDeadline, "deadline"},
      {Failure::kMemCeiling, "mem-ceiling"},
      {Failure::kBudget, "budget"},
      {Failure::kQueryBudget, "query_budget"},
      {Failure::kByteBudget, "byte_budget"},
      {Failure::kCancelled, "cancelled"},
      {Failure::kContested, "contested"},
      {Failure::kUnavailable, "sul_unavailable"},
  };
  for (const auto& [failure, token] : spellings) {
    EXPECT_EQ(supervise::to_string(failure), token);
    EXPECT_EQ(supervise::parse_failure(token), failure) << token;
  }
  EXPECT_FALSE(supervise::parse_failure(""));
  EXPECT_FALSE(supervise::parse_failure("mem_ceiling"));
  EXPECT_FALSE(supervise::parse_failure("unavailable"));
}

TEST(SuperviseFailure, RetryPolicyPerClass) {
  for (Failure f : {Failure::kNone, Failure::kCancelled, Failure::kContested}) {
    EXPECT_EQ(supervise::retry_policy(f), Retry::kStop) << supervise::to_string(f);
  }
  for (Failure f : {Failure::kDeadline, Failure::kMemCeiling, Failure::kBudget,
                    Failure::kQueryBudget, Failure::kByteBudget}) {
    EXPECT_EQ(supervise::retry_policy(f), Retry::kDegrade) << supervise::to_string(f);
  }
  for (Failure f : {Failure::kException, Failure::kUnavailable}) {
    EXPECT_EQ(supervise::retry_policy(f), Retry::kFullBudget) << supervise::to_string(f);
  }
}

/// Drives run_ladder through scripted attempts: entry k is the class attempt
/// k+1 ends in, or nullopt for an attempt that throws.
struct ScriptedLadder {
  std::vector<std::optional<Failure>> script;
  std::string note = "base note";
  int degrades = 0;
  std::vector<std::string> exceptions;

  supervise::LadderResult run(int retries, double backoff_seconds = 0) {
    supervise::Options options;
    options.retries = retries;
    options.backoff_seconds = backoff_seconds;
    return supervise::run_ladder(
        options, "test", &note,
        [this](int k) {
          const std::optional<Failure>& step = script.at(static_cast<std::size_t>(k - 1));
          if (!step) throw std::runtime_error("boom " + std::to_string(k));
          return *step;
        },
        [this](const std::string& what) { exceptions.push_back(what); }, [this] { ++degrades; });
  }
};

TEST(SuperviseLadder, TerminalClassStopsTheLadder) {
  for (Failure f : {Failure::kNone, Failure::kCancelled, Failure::kContested}) {
    ScriptedLadder s;
    s.script = {f, Failure::kNone};
    const supervise::LadderResult r = s.run(3);
    EXPECT_EQ(r.failure, f);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_EQ(s.degrades, 0);
    EXPECT_EQ(s.note, "base note");
  }
}

TEST(SuperviseLadder, DegradeRunsOnlyForResourceClasses) {
  ScriptedLadder s;
  s.script = {Failure::kDeadline,   std::nullopt,         Failure::kUnavailable,
              Failure::kMemCeiling, Failure::kBudget,     Failure::kQueryBudget,
              Failure::kByteBudget, Failure::kNone};
  const supervise::LadderResult r = s.run(10);
  EXPECT_EQ(r.failure, Failure::kNone);
  EXPECT_EQ(r.attempts, 8);
  EXPECT_EQ(s.degrades, 5);
  EXPECT_EQ(s.exceptions, (std::vector<std::string>{"boom 2"}));
}

TEST(SuperviseLadder, ExceptionRetriesAtFullBudget) {
  ScriptedLadder s;
  s.script = {std::nullopt, std::nullopt, Failure::kNone};
  const supervise::LadderResult r = s.run(2);
  EXPECT_EQ(r.failure, Failure::kNone);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(s.degrades, 0);
  EXPECT_EQ(s.exceptions, (std::vector<std::string>{"boom 1", "boom 2"}));
  EXPECT_EQ(supervise::worker_exception("boom"), "worker exception: boom");

  std::string note, what;
  const supervise::LadderResult odd = supervise::run_ladder(
      {}, "test", &note, [](int) -> Failure { throw 42; },
      [&what](const std::string& w) { what = w; }, [] {});
  EXPECT_EQ(odd.failure, Failure::kException);
  EXPECT_EQ(what, "unknown exception type");
}

TEST(SuperviseLadder, ExhaustionNoteOnlyWhenMoreThanOneAttempt) {
  ScriptedLadder single;
  single.script = {Failure::kBudget};
  EXPECT_EQ(single.run(0).failure, Failure::kBudget);
  EXPECT_EQ(single.note, "base note");

  ScriptedLadder three;
  three.script = {Failure::kBudget, Failure::kBudget, Failure::kBudget};
  const supervise::LadderResult r = three.run(2);
  EXPECT_EQ(r.failure, Failure::kBudget);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(three.degrades, 2);  // never after the last attempt
  EXPECT_EQ(three.note, "base note [test: budget persisted through 3 attempts]");

  ScriptedLadder bare;
  bare.note.clear();
  bare.script = {std::nullopt, std::nullopt};
  bare.run(1);
  EXPECT_EQ(bare.note, "[test: exception persisted through 2 attempts]");
}

TEST(SuperviseLadder, ZeroBackoffNeverSleeps) {
  using Clock = std::chrono::steady_clock;
  ScriptedLadder s;
  s.script.assign(40, std::nullopt);
  const Clock::time_point start = Clock::now();
  EXPECT_EQ(s.run(39, 0.0).attempts, 40);
  // Any sleep on this ladder would be at least one backoff unit per retry.
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - start).count(), 1.0);

  ScriptedLadder slept;
  slept.script = {Failure::kDeadline, Failure::kDeadline, Failure::kNone};
  const Clock::time_point t0 = Clock::now();
  slept.run(2, 0.02);
  // 0.02 s after attempt 1, 0.04 s after attempt 2.
  EXPECT_GE(std::chrono::duration<double>(Clock::now() - t0).count(), 0.06);
}

TEST(SuperviseFingerprint, SixteenHexDigitsOfTheKeyedPrf) {
  const std::string canon = "max_states=1000000;";
  const std::string h = supervise::fingerprint(0x0A75BA5E, canon);
  char expect[17];
  std::snprintf(expect, sizeof expect, "%016llx",
                static_cast<unsigned long long>(
                    prf64(0x0A75BA5E, Bytes(canon.begin(), canon.end()))));
  EXPECT_EQ(h, expect);
  EXPECT_NE(supervise::fingerprint(0x13AD0CA7, canon), h);
}

TEST(SuperviseHeader, RoundTripsInTheAnalyzeFormat) {
  const std::string line = supervise::encode_header({"cls", "0123456789abcdef"});
  EXPECT_EQ(line, "{\"kind\":\"header\",\"v\":2,\"tag\":\"cls\",\"opts\":\"0123456789abcdef\"}");
  const std::optional<supervise::Header> h = supervise::decode_header(line);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->tag, "cls");
  EXPECT_EQ(h->opts, "0123456789abcdef");
}

TEST(SuperviseHeader, RejectsDamageAndForeignLines) {
  EXPECT_FALSE(supervise::decode_header(""));
  EXPECT_FALSE(supervise::decode_header("not json"));
  EXPECT_FALSE(supervise::decode_header("{\"kind\":\"header\",\"v\":1,\"tag\":\"cls\"}"));
  EXPECT_FALSE(supervise::decode_header("{\"kind\":\"outcome\",\"id\":\"S01\"}"));
  EXPECT_FALSE(supervise::decode_header("learn-header v=1 tag=cls opts=0123456789abcdef"));
  EXPECT_FALSE(supervise::decode_header("obs 1 power_on attach_request"));
  const std::string line = supervise::encode_header({"cls", "0123456789abcdef"});
  EXPECT_FALSE(supervise::decode_header(line.substr(0, line.size() - 1)));
}

// --- journal session ---------------------------------------------------

supervise::Options session_options(const std::string& path, bool resume) {
  supervise::Options o;
  o.journal_path = path;
  o.resume = resume;
  o.run_tag = "cls";
  return o;
}

TEST(JournalSessionTest, ResumeKeepsTheValidPrefixAndAppendsAfterIt) {
  const std::string path = temp_path("session_resume.jsonl");
  std::remove(path.c_str());
  {
    supervise::JournalSession first;
    ASSERT_TRUE(first.open(session_options(path, false), "test", "00000000deadbeef"));
    ASSERT_TRUE(first.rewrite({}));
    first.append("one");
    first.append("two");
    ASSERT_TRUE(first.commit());
    EXPECT_EQ(first.records(), 2u);
  }
  const std::string bytes = slurp(path);
  {
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn << bytes.substr(0, bytes.size() - 2);  // kill mid-way through "two"
  }
  supervise::JournalSession resumed;
  ASSERT_TRUE(resumed.open(session_options(path, true), "test", "00000000deadbeef"));
  EXPECT_EQ(resumed.resumed(), (std::vector<std::string>{"one"}));
  EXPECT_TRUE(resumed.note().empty());
  ASSERT_TRUE(resumed.rewrite(resumed.resumed()));
  resumed.append("three");
  ASSERT_TRUE(resumed.commit());
  EXPECT_EQ(resumed.records(), 2u);
  const JournalLoad load = load_journal(path);
  EXPECT_EQ(load.dropped, 0u);
  EXPECT_EQ(load.payloads,
            (std::vector<std::string>{supervise::encode_header({"cls", "00000000deadbeef"}),
                                      "one", "three"}));
}

TEST(JournalSessionTest, ForeignTagIsDiscardedOtherFingerprintIsRefused) {
  const std::string path = temp_path("session_guard.jsonl");
  std::remove(path.c_str());
  {
    supervise::JournalSession writer;
    ASSERT_TRUE(writer.open(session_options(path, false), "test", "00000000deadbeef"));
    ASSERT_TRUE(writer.rewrite({"record"}));
  }
  const std::string bytes = slurp(path);

  supervise::Options other_tag = session_options(path, true);
  other_tag.run_tag = "srsue";
  {
    supervise::JournalSession discarded;
    ASSERT_TRUE(discarded.open(other_tag, "test", "00000000deadbeef"));
    EXPECT_TRUE(discarded.resumed().empty());
    EXPECT_NE(discarded.note().find("mismatch (tag 'cls' vs 'srsue')"), std::string::npos)
        << discarded.note();
    // It holds the lock until it ends: a second run is refused meanwhile.
    supervise::JournalSession locked;
    EXPECT_FALSE(locked.open(session_options(path, true), "test", "00000000deadbeef"));
    EXPECT_NE(locked.refusal().find("concurrent test run"), std::string::npos)
        << locked.refusal();
  }

  supervise::JournalSession refused;
  EXPECT_FALSE(refused.open(session_options(path, true), "test", "00000000feedface"));
  EXPECT_NE(refused.refusal().find("00000000deadbeef"), std::string::npos) << refused.refusal();
  EXPECT_NE(refused.refusal().find("00000000feedface"), std::string::npos) << refused.refusal();
  EXPECT_EQ(slurp(path), bytes);
}

TEST(JournalSessionTest, WithoutAPathEveryCallIsANoOp) {
  supervise::JournalSession none;
  ASSERT_TRUE(none.open(supervise::Options{}, "test", "00000000deadbeef"));
  EXPECT_TRUE(none.rewrite({"x"}));
  none.append("y");
  EXPECT_TRUE(none.commit());
  EXPECT_EQ(none.records(), 0u);
  EXPECT_EQ(none.pending(), 0u);
  EXPECT_TRUE(none.error().empty());
}

}  // namespace
}  // namespace procheck
