#include "server_proc.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/sul_server.h"

namespace perfbench {

namespace {

/// Parent-side pipe ends of every live server: a later child closes them so
/// that closing a control pipe in the parent really delivers EOF.
std::vector<int>& parent_fds() {
  static std::vector<int> fds;
  return fds;
}

bool write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One '\n'-terminated line; "" on EOF or error.
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "";
    if (c == '\n') return line;
    line += c;
  }
}

[[noreturn]] void child_main(const procheck::ue::StackProfile& profile, const std::string& psk,
                             int in, int out) {
  procheck::net::SulServerOptions options;
  options.psk = psk;
  options.max_sessions = 1;
  int status = 0;
  {
    procheck::net::SulServer server(profile, options);
    if (!server.start()) {
      write_all(out, "error " + server.start_error() + "\n");
      ::_exit(3);
    }
    write_all(out, "port " + std::to_string(server.port()) + "\n");
    char command = 0;
    for (;;) {
      const ssize_t n = ::read(in, &command, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // parent closed the pipe (or died): shut down
      std::string reply;
      if (command == 'w') {
        while (server.active_sessions() > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        reply = "idle\n";
      } else if (command == 'c') {
        const procheck::net::SulServerStats s = server.stats();
        long in_bytes = 0;
        long out_bytes = 0;
        for (const procheck::net::SessionStats& ss : server.session_stats()) {
          in_bytes += ss.bytes_in;
          out_bytes += ss.bytes_out;
        }
        reply = std::to_string(s.word_queries) + ' ' + std::to_string(s.batched_words) + ' ' +
                std::to_string(s.prefix_hits) + ' ' + std::to_string(in_bytes) + ' ' +
                std::to_string(out_bytes) + '\n';
      } else {
        reply = "error unknown command\n";
      }
      if (!write_all(out, reply)) break;
    }
    server.stop();
    status = server.stats().session_errors == 0 ? 0 : 4;
  }
  ::_exit(status);
}

}  // namespace

ServerProcess::ServerProcess(const procheck::ue::StackProfile& profile, const std::string& psk) {
  int down[2];
  int up[2];
  if (::pipe2(down, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(up, O_CLOEXEC) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    throw std::runtime_error("pipe failed");
  }
  std::fflush(nullptr);  // the child must not replay buffered parent output
  pid_ = ::fork();
  if (pid_ < 0) {
    for (int fd : {down[0], down[1], up[0], up[1]}) ::close(fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    for (int fd : parent_fds()) ::close(fd);
    ::close(down[1]);
    ::close(up[0]);
    child_main(profile, psk, down[0], up[1]);
  }
  ::close(down[0]);
  ::close(up[1]);
  to_child_ = down[1];
  from_child_ = up[0];
  parent_fds().push_back(to_child_);
  parent_fds().push_back(from_child_);
  const std::string hello = read_line(from_child_);
  if (hello.rfind("port ", 0) != 0) {
    stop();
    throw std::runtime_error("SUL server for " + profile.name + " did not start: " + hello);
  }
  port_ = static_cast<std::uint16_t>(std::stoul(hello.substr(5)));
}

ServerProcess::~ServerProcess() { stop(); }

std::string ServerProcess::request(char command) {
  if (to_child_ < 0 || !write_all(to_child_, std::string(1, command))) {
    throw std::runtime_error("SUL server process is gone");
  }
  std::string reply = read_line(from_child_);
  if (reply.empty() || reply.rfind("error", 0) == 0) {
    throw std::runtime_error("SUL server process failed: " + reply);
  }
  return reply;
}

void ServerProcess::wait_idle() { request('w'); }

ServerCounters ServerProcess::counters() {
  ServerCounters c;
  if (std::sscanf(request('c').c_str(), "%ld %ld %ld %ld %ld", &c.word_queries,
                  &c.batched_words, &c.prefix_hits, &c.bytes_in, &c.bytes_out) != 5) {
    throw std::runtime_error("SUL server sent malformed counters");
  }
  return c;
}

void ServerProcess::request_stop() {
  auto& fds = parent_fds();
  for (int* fd : {&to_child_, &from_child_}) {
    if (*fd < 0) continue;
    std::erase(fds, *fd);
    ::close(*fd);
    *fd = -1;
  }
}

int ServerProcess::stop() {
  if (pid_ <= 0) return 0;
  request_stop();
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace perfbench
