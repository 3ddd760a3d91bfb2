// A net::SulServer in a child process of its own, so the learner process
// and each server stay within the host's core count of threads (a server
// runs an accept thread and one session worker). The child is driven over
// a pipe: it reports its port once listening, waits for its session slot to
// free on request, reports its counters on request, and stops when the pipe
// closes.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "ue/profile.h"

namespace perfbench {

/// Server-side counters summed over every session the child served.
struct ServerCounters {
  long word_queries = 0;
  long batched_words = 0;
  long prefix_hits = 0;
  long bytes_in = 0;
  long bytes_out = 0;
};

class ServerProcess {
 public:
  /// Forks the child and waits until it listens on an ephemeral loopback
  /// port with `psk` and max_sessions = 1. Must be called while the caller
  /// is single-threaded. Throws std::runtime_error when the child fails.
  ServerProcess(const procheck::ue::StackProfile& profile, const std::string& psk);
  /// Closes the control pipe and waits for the child to exit.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  /// Blocks until the server has no live session (the previous client's
  /// goodbye has been processed), so the next connection is admitted.
  void wait_idle();
  ServerCounters counters();
  /// Asks the child to stop without waiting for it (see stop()).
  void request_stop();
  /// Stops the child and waits for it; returns its exit status (0 = clean).
  int stop();

 private:
  std::string request(char command);

  pid_t pid_ = -1;
  int to_child_ = -1;    // parent's write end
  int from_child_ = -1;  // parent's read end
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
