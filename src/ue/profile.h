// Behavior profiles for the three analyzed UE NAS implementations.
//
// The paper evaluates one closed-source stack and two open-source stacks
// (srsLTE's srsUE and OpenAirInterface). This reproduction implements one
// complete NAS stack whose spec-deviations and logging signatures are
// selected by a profile, reproducing each stack's documented behavior
// (DESIGN.md §1 and §3):
//   * cls    — the closed-source stand-in: spec-conformant implementation
//              (still subject to the standards-level flaws P1–P3).
//   * srsue  — srsLTE: deviations I1 (accepts any replayed protected message
//              and resets the DL counter), I3 (accepts an equal SQN again),
//              I4 (re-registers after reject without re-authentication),
//              I6; logging signature send_/parse_.
//   * oai    — OpenAirInterface: deviations I1 (accepts a replay of the last
//              message), I2 (accepts plain messages after the security
//              context), I5 (answers plain identity_request with the IMSI),
//              I6; logging signature emm_send_/emm_recv_.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace procheck::ue {

struct StackProfile {
  std::string name;         // "cls" | "srsue" | "oai"
  std::string recv_prefix;  // handler-name prefix for incoming messages
  std::string send_prefix;  // handler-name prefix for outgoing messages

  // Implementation deviations (ground truth for Table I).
  bool accept_replayed_protected = false;  // I1 (srs): any old COUNT accepted
  bool reset_dl_counter_on_replay = false; // I1 (srs): DL COUNT reset to replayed value
  bool accept_last_replay = false;         // I1 (oai): replay of the most recent message
  bool accept_plain_after_smc = false;     // I2 (oai): plain NAS accepted post-SMC
  bool accept_equal_sqn = false;           // I3 (srs): same SQN accepted, counter reset
  bool keep_ctx_after_reject = false;      // I4 (srs): security bypass after reject
  bool plain_identity_response = false;    // I5 (oai): IMSI to plain identity_request
  bool smc_replay_distinguishable = false; // I6 (both): replayed SMC response leaks identity

  // Mitigation knob for the ablation bench: TS 33.102 Annex C.2.2 freshness
  // limit L. nullopt (the COTS default) is the P1/P2 root cause.
  std::optional<std::uint64_t> sqn_freshness_limit;

  static StackProfile cls();
  static StackProfile srsue();
  static StackProfile oai();
  /// The profile called `name` ("cls" | "srsue" | "oai"); nullopt otherwise.
  static std::optional<StackProfile> by_name(const std::string& name);
};

}  // namespace procheck::ue
