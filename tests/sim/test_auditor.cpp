#include "broker/auditor.hpp"

#include <gtest/gtest.h>

#include "broker/registry.hpp"
#include "util/assert.hpp"

namespace qres {
namespace {

struct Fixture {
  BrokerRegistry registry;
  ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{0}, 100.0);
  ResourceId l1 = registry.add_resource(
      "l1", ResourceKind::kNetworkBandwidth, HostId{}, 50.0);
  ResourceId l2 = registry.add_resource(
      "l2", ResourceKind::kNetworkBandwidth, HostId{}, 60.0);
  ResourceId path = registry.add_network_path("path", {l1, l2});
  ReservationAuditor auditor{&registry};
};

TEST(ReservationAuditor, Contracts) {
  EXPECT_THROW(ReservationAuditor(nullptr), ContractViolation);
  Fixture f;
  EXPECT_THROW(f.auditor.on_reserved(SessionId{}, f.cpu, 1.0),
               ContractViolation);
  EXPECT_THROW(f.auditor.on_reserved(SessionId{1}, f.cpu, -1.0),
               ContractViolation);
}

TEST(ReservationAuditor, MatchingModelAndBrokersPass) {
  Fixture f;
  const SessionId s{1};
  ASSERT_TRUE(f.registry.broker(f.cpu).reserve(0.0, s, 25.0));
  f.auditor.on_reserved(s, f.cpu, 25.0);
  EXPECT_TRUE(f.auditor.audit_hosts().empty());
  EXPECT_EQ(f.auditor.expected_held(s, f.cpu), 25.0);
  EXPECT_FALSE(f.auditor.model_empty());

  f.registry.broker(f.cpu).release_amount(1.0, s, 25.0);
  f.auditor.on_released(s, f.cpu, 25.0);
  EXPECT_TRUE(f.auditor.audit_hosts().empty());
  EXPECT_TRUE(f.auditor.model_empty());
}

TEST(ReservationAuditor, DetectsLeakedCapacity) {
  Fixture f;
  // The broker holds capacity the model never heard of — the classic leak
  // (a crashed proxy that reserved and never released).
  ASSERT_TRUE(f.registry.broker(f.cpu).reserve(0.0, SessionId{9}, 10.0));
  const auto violations = f.auditor.audit_hosts();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().find("total reserved"), std::string::npos);
}

TEST(ReservationAuditor, DetectsMissingReservation) {
  Fixture f;
  // The model expects a holding the broker lost (double release, say).
  f.auditor.on_reserved(SessionId{2}, f.cpu, 15.0);
  const auto violations = f.auditor.audit_hosts();
  // Both the per-session and the per-resource check fire.
  EXPECT_EQ(violations.size(), 2u);
}

TEST(ReservationAuditor, NetworkPathsDecomposeIntoLeafLinks) {
  Fixture f;
  const SessionId s{3};
  ASSERT_TRUE(f.registry.broker(f.path).reserve(0.0, s, 12.0));
  f.auditor.on_reserved(s, f.path, 12.0);
  // The expectation landed on the leaf links, where the holdings are.
  EXPECT_EQ(f.auditor.expected_held(s, f.l1), 12.0);
  EXPECT_EQ(f.auditor.expected_held(s, f.l2), 12.0);
  EXPECT_EQ(f.auditor.expected_held(s, f.path), 0.0);
  EXPECT_TRUE(f.auditor.audit_hosts().empty());

  f.registry.broker(f.path).release(1.0, s);
  f.auditor.on_session_released(s);
  EXPECT_TRUE(f.auditor.audit_hosts().empty());
  EXPECT_TRUE(f.auditor.model_empty());
}

TEST(ReservationAuditor, OnReleasedCapsAtExpectation) {
  Fixture f;
  const SessionId s{4};
  f.auditor.on_reserved(s, f.cpu, 10.0);
  f.auditor.on_released(s, f.cpu, 99.0);  // capped, mirrors release_amount
  EXPECT_EQ(f.auditor.expected_held(s, f.cpu), 0.0);
  EXPECT_TRUE(f.auditor.model_empty());
  // Releasing an unknown session is a no-op, like the brokers'.
  f.auditor.on_released(SessionId{99}, f.cpu, 1.0);
}

}  // namespace
}  // namespace qres
