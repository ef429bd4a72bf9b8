// Admission-governance interface for the establishment entry points.
//
// Overload-aware admission governors are consulted by SessionCoordinator
// (src/proxy) before any establishment work is spent: when the
// bottleneck contention index says the environment is overloaded, doomed
// establishments are rejected immediately (kOverload) instead of
// churning the brokers with plan/reserve/rollback rounds.
// Implementations live in src/adapt (the ContentionMonitor-backed
// ContentionGovernor); the proxy layer only sees this interface, so
// qres_proxy does not depend on qres_adapt.
#pragma once

namespace qres {

class IAdmissionGovernor {
 public:
  virtual ~IAdmissionGovernor() = default;

  /// True when an establishment of priority `priority` (higher = more
  /// important; see adapt::SessionPriority) should be rejected at `now`.
  virtual bool should_reject(double now, int priority) const = 0;
};

}  // namespace qres
