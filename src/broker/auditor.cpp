#include "broker/auditor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "broker/network_broker.hpp"
#include "util/assert.hpp"

namespace qres {

namespace {

constexpr double kTolerance = 1e-6;

std::string describe(const std::string& what, double expected,
                     double actual) {
  std::ostringstream out;
  out << what << ": expected " << expected << ", actual " << actual;
  return out.str();
}

}  // namespace

ReservationAuditor::ReservationAuditor(const BrokerRegistry* registry)
    : registry_(registry) {
  QRES_REQUIRE(registry != nullptr, "ReservationAuditor: null registry");
}

std::vector<ResourceId> ReservationAuditor::leaves_of(
    ResourceId resource) const {
  const IBroker& broker = registry_->broker(resource);
  const auto* path = dynamic_cast<const NetworkPathBroker*>(&broker);
  if (path == nullptr) return {resource};
  std::vector<ResourceId> leaves;
  leaves.reserve(path->link_count());
  for (std::size_t i = 0; i < path->link_count(); ++i)
    leaves.push_back(path->link(i).id());
  return leaves;
}

void ReservationAuditor::on_reserved(SessionId session, ResourceId resource,
                                     double amount) {
  QRES_REQUIRE(session.valid() && amount >= 0.0,
               "ReservationAuditor::on_reserved: bad arguments");
  for (ResourceId leaf : leaves_of(resource))
    host_expect_[session][leaf] += amount;
}

void ReservationAuditor::on_released(SessionId session, ResourceId resource,
                                     double amount) {
  QRES_REQUIRE(amount >= 0.0,
               "ReservationAuditor::on_released: negative amount");
  auto it = host_expect_.find(session);
  if (it == host_expect_.end()) return;
  for (ResourceId leaf : leaves_of(resource)) {
    auto held = it->second.find(leaf);
    if (held == it->second.end()) continue;
    held->second -= std::min(amount, held->second);
    if (held->second <= 1e-12) it->second.erase(leaf);
  }
  if (it->second.empty()) host_expect_.erase(session);
}

void ReservationAuditor::on_session_released(SessionId session) {
  host_expect_.erase(session);
}

const char* to_string(DiscrepancyKind kind) noexcept {
  switch (kind) {
    case DiscrepancyKind::kOrphanReleased: return "orphan-released";
    case DiscrepancyKind::kLostReservation: return "lost-reservation";
  }
  return "?";
}

void ReservationAuditor::on_reconciled(const Discrepancy& discrepancy) {
  QRES_REQUIRE(discrepancy.amount >= 0.0,
               "ReservationAuditor::on_reconciled: negative amount");
  if (discrepancy.session.valid())
    on_released(discrepancy.session, discrepancy.resource,
                discrepancy.amount);
  discrepancies_.push_back(discrepancy);
}

double ReservationAuditor::expected_held(SessionId session,
                                         ResourceId resource) const {
  const auto it = host_expect_.find(session);
  if (it == host_expect_.end()) return 0.0;
  const auto held = it->second.find(resource);
  return held == it->second.end() ? 0.0 : held->second;
}

bool ReservationAuditor::model_empty() const noexcept {
  return host_expect_.empty();
}

std::vector<std::string> ReservationAuditor::audit_hosts() const {
  std::vector<std::string> violations;

  // Per (session, leaf resource): the broker agrees with the model. Down
  // brokers are out of the audit until they restart and reconcile.
  for (const auto& [session, holdings] : host_expect_) {
    for (const auto& [resource, expected] : holdings) {
      if (!registry_->broker(resource).up()) continue;
      const double actual =
          registry_->broker(resource).held_by(session);
      if (std::abs(actual - expected) > kTolerance)
        violations.push_back(describe(
            "session " + std::to_string(session.value()) + " on " +
                registry_->broker(resource).name(),
            expected, actual));
    }
  }

  // Per leaf resource: nothing held by sessions the model never saw.
  const std::size_t n = registry_->catalog().size();
  for (std::uint32_t r = 0; r < n; ++r) {
    const ResourceId id{r};
    const IBroker& broker = registry_->broker(id);
    if (dynamic_cast<const NetworkPathBroker*>(&broker) != nullptr)
      continue;  // paths have no holdings of their own; links are audited
    if (!broker.up()) continue;
    double expected_total = 0.0;
    for (const auto& [session, holdings] : host_expect_) {
      const auto it = holdings.find(id);
      if (it != holdings.end()) expected_total += it->second;
    }
    const double actual_total = broker.capacity() - broker.available();
    if (std::abs(actual_total - expected_total) > kTolerance)
      violations.push_back(describe("total reserved on " + broker.name(),
                                    expected_total, actual_total));
  }
  return violations;
}

}  // namespace qres
