#include "ue/profile.h"

namespace procheck::ue {

StackProfile StackProfile::cls() {
  StackProfile p;
  p.name = "cls";
  p.recv_prefix = "recv_";
  p.send_prefix = "send_";
  p.smc_replay_distinguishable = true;  // I6 holds for all tested stacks
  return p;
}

StackProfile StackProfile::srsue() {
  StackProfile p;
  p.name = "srsue";
  p.recv_prefix = "parse_";
  p.send_prefix = "send_";
  p.accept_replayed_protected = true;
  p.reset_dl_counter_on_replay = true;
  p.accept_equal_sqn = true;
  p.keep_ctx_after_reject = true;
  p.smc_replay_distinguishable = true;
  return p;
}

StackProfile StackProfile::oai() {
  StackProfile p;
  p.name = "oai";
  p.recv_prefix = "emm_recv_";
  p.send_prefix = "emm_send_";
  p.accept_last_replay = true;
  p.accept_plain_after_smc = true;
  p.plain_identity_response = true;
  p.smc_replay_distinguishable = true;
  return p;
}

std::optional<StackProfile> StackProfile::by_name(const std::string& name) {
  if (name == "cls") return cls();
  if (name == "srsue") return srsue();
  if (name == "oai") return oai();
  return std::nullopt;
}

}  // namespace procheck::ue
