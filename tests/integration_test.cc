// End-to-end integration tests: the full ProChecker pipeline per stack
// profile must reproduce the paper's Table I detection matrix, and verified
// counterexamples must replay against the live stacks on the testbed (the
// paper's final validation step).
#include <gtest/gtest.h>

#include "checker/prochecker.h"
#include "testing/conformance.h"
#include "testing/testbed.h"
#include "ue/emm_state.h"

namespace procheck::checker {
namespace {

const ImplementationReport& report_for(const ue::StackProfile& profile) {
  static std::map<std::string, ImplementationReport> cache;
  auto it = cache.find(profile.name);
  if (it == cache.end()) {
    it = cache.emplace(profile.name, ProChecker::analyze(profile)).first;
  }
  return it->second;
}

// --- Table I: the detection matrix ------------------------------------------------

TEST(TableOne, NewProtocolAttacksOnAllImplementations) {
  // P1–P3 are standards-level: detected on the closed-source profile and
  // both open-source profiles.
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const ImplementationReport& rep = report_for(profile);
    EXPECT_TRUE(rep.attacks_found.count("P1")) << profile.name;
    EXPECT_TRUE(rep.attacks_found.count("P2")) << profile.name;
    EXPECT_TRUE(rep.attacks_found.count("P3")) << profile.name;
  }
}

TEST(TableOne, ImplementationIssuesMatchThePaperPattern) {
  const ImplementationReport& cls = report_for(ue::StackProfile::cls());
  const ImplementationReport& srs = report_for(ue::StackProfile::srsue());
  const ImplementationReport& oai = report_for(ue::StackProfile::oai());

  // Table I: I1 ● srs ● oai; I2 ○ srs ● oai; I3 ● srs ○ oai;
  //          I4 ● srs ○ oai; I5 ○ srs ● oai; I6 ● both.
  EXPECT_TRUE(srs.attacks_found.count("I1"));
  EXPECT_TRUE(oai.attacks_found.count("I1"));
  EXPECT_FALSE(cls.attacks_found.count("I1"));

  EXPECT_TRUE(oai.attacks_found.count("I2"));
  EXPECT_FALSE(srs.attacks_found.count("I2"));

  EXPECT_TRUE(srs.attacks_found.count("I3"));
  EXPECT_FALSE(oai.attacks_found.count("I3"));

  EXPECT_TRUE(srs.attacks_found.count("I4"));
  EXPECT_FALSE(oai.attacks_found.count("I4"));

  EXPECT_TRUE(oai.attacks_found.count("I5"));
  EXPECT_FALSE(srs.attacks_found.count("I5"));

  EXPECT_TRUE(cls.attacks_found.count("I6"));
  EXPECT_TRUE(srs.attacks_found.count("I6"));
  EXPECT_TRUE(oai.attacks_found.count("I6"));
}

TEST(TableOne, PriorAttacksRediscovered) {
  // 12 of the 14 prior rows are applicable (PR04/PR09 are the paper's "-"
  // rows) and detected on every profile.
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const ImplementationReport& rep = report_for(profile);
    for (const char* id : {"PR01", "PR02", "PR03", "PR05", "PR06", "PR07", "PR08",
                           "PR10", "PR11", "PR12", "PR13", "PR14"}) {
      EXPECT_TRUE(rep.attacks_found.count(id)) << profile.name << " " << id;
    }
    EXPECT_FALSE(rep.attacks_found.count("PR04")) << profile.name;
    EXPECT_FALSE(rep.attacks_found.count("PR09")) << profile.name;
  }
}

TEST(TableOne, EveryAttackVerdictMapsToARow) {
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    for (const PropertyResult& r : report_for(profile).results) {
      if (r.status == PropertyResult::Status::kAttack) {
        EXPECT_FALSE(r.attack_id.empty())
            << profile.name << " " << r.property_id << " is an unmapped finding";
      }
    }
  }
}

TEST(Pipeline, AllSixtyTwoPropertiesChecked) {
  const ImplementationReport& rep = report_for(ue::StackProfile::cls());
  EXPECT_EQ(rep.results.size(), 62u);
  EXPECT_EQ(rep.verified_count() + rep.attack_count() + rep.not_applicable_count(), 62);
  EXPECT_EQ(rep.not_applicable_count(), 2);  // the "-" rows
}

TEST(Pipeline, ConformanceCoverageIsComplete) {
  for (const auto& profile :
       {ue::StackProfile::cls(), ue::StackProfile::srsue(), ue::StackProfile::oai()}) {
    const ImplementationReport& rep = report_for(profile);
    EXPECT_DOUBLE_EQ(rep.conformance.handler_coverage, 1.0) << profile.name;
    EXPECT_GT(rep.log_records, 500u) << profile.name;
    EXPECT_GT(rep.extraction_seconds, 0.0);
  }
}

TEST(Pipeline, AblationFreshnessLimitRemovesP1P2) {
  ue::StackProfile mitigated = ue::StackProfile::cls();
  mitigated.sqn_freshness_limit = 1;
  AnalysisOptions options;
  options.only_properties = {"S01", "P01", "S05"};
  ImplementationReport rep = ProChecker::analyze(mitigated, options);
  EXPECT_FALSE(rep.attacks_found.count("P1"));
  EXPECT_FALSE(rep.attacks_found.count("P2"));
}

// --- Testbed replay of verified counterexamples (the paper's validation) ------------

TEST(TestbedReplay, P1ServiceDisruptionOnLiveStack) {
  testing::Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), testing::kTestImsi, testing::kTestKey);
  ASSERT_TRUE(testing::complete_attach(tb, conn));
  auto captured = testing::capture_dropped_challenge(tb, conn);
  ASSERT_TRUE(captured.has_value());
  int auth_before = tb.ue(conn).authentications_completed();
  tb.inject_downlink(conn, *captured);
  tb.run_until_quiet();
  // Service disruption: keys desynchronized, UE discards genuine traffic,
  // and the UE was forced through another power-consuming AKA run.
  EXPECT_GT(tb.ue(conn).authentications_completed(), auth_before);
  int discards_before = tb.ue(conn).protected_discards();
  tb.mme_guti_reallocation(conn);
  tb.run_until_quiet();
  EXPECT_GT(tb.ue(conn).protected_discards(), discards_before);
}

TEST(TestbedReplay, P3SelectiveDenialPreventsGutiRotation) {
  testing::Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::cls(), testing::kTestImsi, testing::kTestKey);
  ASSERT_TRUE(testing::complete_attach(tb, conn));
  std::string guti_before = tb.ue(conn).guti();
  // The MITM selectively drops every GUTI reallocation command.
  tb.set_downlink_interceptor([&tb, conn](int c, const nas::NasPdu& pdu) {
    auto msg = tb.decode(c, pdu, /*downlink=*/true);
    if (msg && msg->type == nas::MsgType::kGutiReallocationCommand) {
      return testing::AdversaryAction::drop();
    }
    return testing::AdversaryAction::pass();
  });
  tb.mme_guti_reallocation(conn);
  tb.run_until_quiet();
  tb.tick(mme::MmeNas::kTimerPeriod * (mme::MmeNas::kMaxRetransmissions + 1));
  // The MME aborted after five tries; both sides keep the old GUTI — the
  // victim stays trackable.
  EXPECT_EQ(tb.mme().procedures_aborted(), 1);
  EXPECT_EQ(tb.ue(conn).guti(), guti_before);
  EXPECT_EQ(tb.mme().guti(conn), guti_before);
}

TEST(TestbedReplay, I2PlainInjectionOnOai) {
  testing::Testbed tb;
  int conn = tb.add_ue(ue::StackProfile::oai(), testing::kTestImsi, testing::kTestKey);
  ASSERT_TRUE(testing::complete_attach(tb, conn));
  nas::NasMessage cmd(nas::MsgType::kGutiReallocationCommand);
  cmd.set_s("guti", "guti-attacker");
  tb.inject_downlink(conn, nas::encode_plain(cmd));
  tb.run_until_quiet();
  EXPECT_EQ(tb.ue(conn).guti(), "guti-attacker");
}

TEST(TestbedReplay, I6SmcReplayLinksVictimAcrossUes) {
  testing::Testbed tb;
  int victim = tb.add_ue(ue::StackProfile::cls(), "001010000000001", 0xA);
  int other = tb.add_ue(ue::StackProfile::cls(), "001010000000002", 0xB);
  ASSERT_TRUE(testing::complete_attach(tb, victim));
  ASSERT_TRUE(testing::complete_attach(tb, other));
  const nas::NasPdu* smc =
      tb.last_downlink_of_type(victim, nas::MsgType::kSecurityModeCommand);
  ASSERT_NE(smc, nullptr);
  auto victim_resp = tb.ue(victim).handle_downlink(*smc);
  auto other_resp = tb.ue(other).handle_downlink(*smc);
  ASSERT_EQ(victim_resp.size(), 1u);
  ASSERT_EQ(other_resp.size(), 1u);
  // Victim completes; others reject — distinguishable on the air.
  auto om = nas::decode_payload(other_resp[0].payload);
  ASSERT_TRUE(om.has_value());
  EXPECT_EQ(om->type, nas::MsgType::kSecurityModeReject);
  EXPECT_NE(victim_resp[0].sec_hdr, nas::SecHdr::kPlain);
}

TEST(Pipeline, ReportsAreDeterministic) {
  AnalysisOptions options;
  options.only_properties = {"S01", "S05", "S07"};
  ImplementationReport a = ProChecker::analyze(ue::StackProfile::srsue(), options);
  ImplementationReport b = ProChecker::analyze(ue::StackProfile::srsue(), options);
  EXPECT_EQ(a.attacks_found, b.attacks_found);
  EXPECT_EQ(a.checking_model, b.checking_model);
}

}  // namespace
}  // namespace procheck::checker
