// Crash-safe JSONL run journal (DESIGN.md §11).
//
// The supervisors (common/supervise.h) record one line per finished unit of
// work so an interrupted run can resume without redoing it. Durability
// contract:
//   - a journal is started (or replaced) atomically: the full text goes to
//     `<path>.tmp`, is fsynced, and is renamed over `<path>` — a crash leaves
//     either the old or the new journal, never a mix and never none;
//   - after that, every commit is one write() of the pending lines to the
//     O_APPEND descriptor followed by fdatasync;
//   - every line is CRC32-tagged (`%08x <payload>`), so a torn tail (a crash
//     mid-append, or a file truncated at an arbitrary byte) is detected on
//     reload: the valid prefix is kept, everything from the first damaged
//     line on is dropped. A failed commit poisons its writer, so no later
//     record can land behind a torn line.
//
// The journal is a line transport: payloads are opaque single-line strings.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace procheck {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`.
std::uint32_t crc32(std::string_view data);

struct JournalLoad {
  /// Valid record payloads, in file order (CRC prefix stripped).
  std::vector<std::string> payloads;
  std::size_t dropped = 0;  // lines discarded (torn tail / CRC mismatch)
  bool existed = false;     // the file was present and readable
};

/// Reloads a journal, tolerating a torn tail: reading stops at the first
/// line whose CRC tag is missing, malformed, or wrong; that line and
/// everything after it count as `dropped`. A missing file is an empty load.
JournalLoad load_journal(const std::string& path);

/// Advisory single-writer lock for a journal path. Two concurrent
/// supervised runs against the same file would interleave commits and
/// corrupt the resume state; the lock makes the second run fail fast with a
/// structured diagnostic instead.
///
/// Implementation: `<path>.lock` created with O_CREAT|O_EXCL holding the
/// owner's pid. A crash leaves the lock file behind, so acquisition steals
/// locks whose recorded pid no longer exists (stale-lock recovery) — only a
/// *live* holder blocks.
class JournalLock {
 public:
  JournalLock() = default;
  ~JournalLock() { release(); }
  JournalLock(const JournalLock&) = delete;
  JournalLock& operator=(const JournalLock&) = delete;

  /// Tries to take the lock for `journal_path`. False when another live
  /// process holds it; `error()` then names the holder.
  bool acquire(const std::string& journal_path);
  /// Removes the lock file (idempotent; the destructor calls it too).
  void release();

  bool held() const { return held_; }
  const std::string& error() const { return error_; }

 private:
  std::string lock_path_;
  std::string error_;
  bool held_ = false;
};

class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Atomically replaces the journal at `path` with exactly `payloads`
  /// (`<path>.tmp`, fsync, rename) and keeps it open for appends. Drops
  /// anything pending. On failure the file at `path` is untouched and the
  /// writer stays closed.
  bool replace(const std::string& path, const std::vector<std::string>& payloads);

  /// Queues one record payload (must not contain '\n'). Not yet durable.
  void append(std::string_view payload);

  /// Appends every queued record with a single write() and fdatasync. False
  /// when the writer is closed or the write fails; a failure closes the
  /// writer (the file may end in a torn line) and drops the queue.
  bool commit();

  /// Records durable in the journal.
  std::size_t records() const { return records_; }
  std::size_t pending() const { return pending_records_; }

 private:
  void close();

  int fd_ = -1;
  std::string pending_;  // rendered lines
  std::size_t pending_records_ = 0;
  std::size_t records_ = 0;
};

}  // namespace procheck
