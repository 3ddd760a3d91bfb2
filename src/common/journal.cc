#include "common/journal.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

namespace procheck {

namespace {

std::array<std::uint32_t, 256> build_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// A line's tag: 8 lowercase hex CRC digits and a space.
std::string crc_tag(std::string_view payload) {
  char tag[10];
  std::snprintf(tag, sizeof(tag), "%08x ", crc32(payload));
  return tag;
}

std::string render_line(std::string_view payload) {
  return crc_tag(payload) + std::string(payload) + '\n';
}

/// Validates one line (without trailing '\n'); false when the CRC tag is
/// absent, malformed, or wrong.
bool check_line(std::string_view line, std::string* payload) {
  if (line.size() < 9 || line.substr(0, 9) != crc_tag(line.substr(9))) return false;
  payload->assign(line.substr(9));
  return true;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = build_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

JournalLoad load_journal(const std::string& path) {
  JournalLoad load;
  std::ifstream in(path, std::ios::binary);
  if (!in) return load;
  load.existed = true;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();

  std::size_t pos = 0;
  bool tail = false;  // first bad line poisons everything after it
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    // A final line with no newline is by definition torn (commit always
    // terminates lines), so it never validates even if its CRC happens to.
    bool terminated = nl != std::string::npos;
    std::string_view line(text.data() + pos, (terminated ? nl : text.size()) - pos);
    pos = terminated ? nl + 1 : text.size();
    std::string payload;
    if (tail || !terminated || !check_line(line, &payload)) {
      tail = true;
      ++load.dropped;
      continue;
    }
    load.payloads.push_back(std::move(payload));
  }
  return load;
}

namespace {

/// Reads the pid recorded in a lock file; 0 when unreadable/garbled.
long lock_holder_pid(const std::string& lock_path) {
  std::ifstream in(lock_path);
  long pid = 0;
  if (!(in >> pid) || pid <= 0) return 0;
  return pid;
}

bool try_create_lock(const std::string& lock_path) {
  int fd = ::open(lock_path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  std::string body = std::to_string(static_cast<long>(::getpid())) + "\n";
  (void)!::write(fd, body.data(), body.size());
  ::close(fd);
  return true;
}

}  // namespace

bool JournalLock::acquire(const std::string& journal_path) {
  release();
  lock_path_ = journal_path + ".lock";
  error_.clear();

  for (int attempt = 0; attempt < 2; ++attempt) {
    if (try_create_lock(lock_path_)) {
      held_ = true;
      return true;
    }
    if (errno != EEXIST) {
      error_ = "cannot create lock file " + lock_path_;
      return false;
    }
    long pid = lock_holder_pid(lock_path_);
    bool holder_alive = pid > 0 && (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH);
    if (holder_alive) {
      error_ = "journal " + journal_path + " is locked by pid " + std::to_string(pid) +
               " (" + lock_path_ + ")";
      return false;
    }
    // Stale lock from a crashed run: steal it and retry the exclusive
    // create once (racing stealers — at most one create succeeds).
    std::remove(lock_path_.c_str());
  }
  error_ = "journal " + journal_path + " lock contended (" + lock_path_ + ")";
  return false;
}

void JournalLock::release() {
  if (held_) {
    std::remove(lock_path_.c_str());
    held_ = false;
  }
}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  pending_.clear();
  pending_records_ = 0;
}

bool JournalWriter::replace(const std::string& path, const std::vector<std::string>& payloads) {
  close();
  std::string text;
  for (const std::string& payload : payloads) text += render_line(payload);
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = ::write(fd, text.data(), text.size()) == static_cast<ssize_t>(text.size());
  ok = ok && ::fsync(fd) == 0;
  // The descriptor follows the inode through the rename, so it appends to
  // the journal at `path` from here on.
  ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    ::close(fd);
    std::remove(tmp.c_str());
    return false;
  }
  fd_ = fd;
  records_ = payloads.size();
  return true;
}

void JournalWriter::append(std::string_view payload) {
  pending_ += render_line(payload);
  ++pending_records_;
}

bool JournalWriter::commit() {
  if (fd_ < 0) {
    close();
    return false;
  }
  if (pending_records_ == 0) return true;
  const bool ok = ::write(fd_, pending_.data(), pending_.size()) ==
                      static_cast<ssize_t>(pending_.size()) &&
                  ::fdatasync(fd_) == 0;
  if (!ok) {
    close();
    return false;
  }
  records_ += pending_records_;
  pending_.clear();
  pending_records_ = 0;
  return true;
}

}  // namespace procheck
