// Side acquisition for `prochecker diff` (DESIGN.md §16): materializes one
// comparison side from a spec string. Supported forms:
//
//   profile:<cls|srsue|oai>  — fresh instrumented conformance run, flat
//                              checking-model extraction (the MC input: the
//                              surface where seeded deviations appear as
//                              predicate atoms);
//   log:[<profile>:]<path>   — extraction from an existing trace log. The
//                              optional profile names the handler-signature
//                              table; omitted, the table is auto-detected by
//                              extraction yield (ties resolve cls→srsue→oai);
//   learn:<cls|srsue|oai>    — in-process L* over the learning alphabet
//                              (the black-box view of the same stack);
//   remote:<host>:<port>     — L* against a live serve-sul endpoint over the
//                              fault-tolerant transport. Transport
//                              degradation yields a structured inconclusive
//                              side (CLI exit 3), never a hang.
//
// Learned sides (learn:/remote:) see only the behavior the valid-message
// harness can drive, so two stacks whose deviations are predicate-level may
// legitimately learn identical machines; extracted sides (profile:/log:)
// carry the predicate atoms and are where I1–I6 surface. Mixing an
// extracted side with a learned side is allowed but rarely meaningful — the
// condition alphabets barely overlap — and the report will say DIVERGENT
// loudly rather than pretend comparability.
#pragma once

#include <cstdint>
#include <string>

#include "diff/diff.h"

namespace procheck::diff {

struct SourceOptions {
  /// PSK for remote: sides.
  std::string psk;
  std::uint64_t learn_seed = 0xC0FFEE;
};

struct SideResult {
  Side side;
  bool ok = false;
  /// When !ok: true means the side was reachable-in-principle but degraded
  /// (remote transport down, learning inconclusive) — CLI exit 3; false
  /// means the spec itself is unusable (unknown form, unreadable log) —
  /// usage error.
  bool inconclusive = false;
  std::string error;
};

SideResult resolve_side(const std::string& spec, const SourceOptions& options = {});

}  // namespace procheck::diff
