#include "affinity.h"

namespace perfbench {

OneCpu::OneCpu() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  int chosen = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) chosen = cpu;
  }
  if (chosen < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

OneCpu::~OneCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

}  // namespace perfbench
