// CPU pinning for the parts of the benchmark that are a hand-off between
// processes: a learn (learner <-> SUL servers) and the set-up probes (parent
// waits on a freshly started child). Both sides share one fixed CPU. A fixed
// CPU keeps the scheduler from migrating either side, and a shared one keeps
// every hand-off a context switch on a running CPU instead of a wake-up of an
// idle one, whose latency on a virtual machine depends on the host's load.
#pragma once

#include <sched.h>

namespace perfbench {

/// Restricts this process, and every process it forks while pinned, to the
/// highest-numbered CPU it may run on; the destructor restores the previous
/// set. The highest one because the lowest take the device interrupts (on a
/// 4-vCPU Firecracker guest, CPU 0 and 1 also showed the most steal time).
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace perfbench
