// Conservation auditor for faulted simulations.
//
// The fault plane makes it possible for reservations to leak: a lost
// release message, a crashed proxy that never releases, a rollback that
// never reaches its broker. The ReservationAuditor maintains an
// independent model of what *should* be held — fed by the harness at
// every reserve / release / expiry it initiates — and proves the brokers
// agree:
//
//   * per (session, resource): the broker's held_by() equals the model;
//   * per resource: the broker's total reserved amount equals the sum of
//     the model's expectations (catching holdings by sessions the model
//     never heard of — the classic leak).
//
// At the end of a run, after every session was torn down or expired, the
// model is empty and the audit degenerates to the conservation proof:
// every unit ever reserved was released or expired, nothing leaked.
//
// Reservations made against a two-level network path are decomposed into
// the path's leaf links internally, so expectations accumulate on leaf
// brokers exactly like the real holdings do (paths sharing a link add up).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "broker/registry.hpp"
#include "util/annotations.hpp"
#include "core/ids.hpp"
#include "util/flat_map.hpp"

namespace qres {

/// What a broker-restart reconciliation pass found and resolved. The
/// journal is the durable truth; both kinds describe the model being
/// brought back into line with it (see SessionCoordinator::
/// reconcile_broker and DESIGN.md §9).
enum class DiscrepancyKind : std::uint8_t {
  /// The journal restored a holding whose session no longer exists (it
  /// died or was torn down during the outage); reconciliation released it
  /// at the broker.
  kOrphanReleased,
  /// A live session's holding is absent from the recovered broker (the
  /// crash lost the un-fsynced journal tail); the session's claim is
  /// forfeit and its expectation dropped.
  kLostReservation,
};

const char* to_string(DiscrepancyKind kind) noexcept;

struct Discrepancy {
  DiscrepancyKind kind = DiscrepancyKind::kOrphanReleased;
  SessionId session;
  ResourceId resource;
  double amount = 0.0;
  double time = 0.0;
};

class ReservationAuditor {
 public:
  /// The registry whose brokers are audited; must outlive the auditor.
  explicit ReservationAuditor(const BrokerRegistry* registry);

  // --- Model mutations (call exactly when the real operation happens).

  /// `session` reserved `amount` on `resource` (a leaf resource or a
  /// network path; paths are decomposed into their links).
  void on_reserved(SessionId session, ResourceId resource, double amount);
  /// `session` released `amount` from `resource` (capped at the
  /// expectation, mirroring IBroker::release_amount).
  void on_released(SessionId session, ResourceId resource, double amount);
  /// Every holding of `session` is gone (full teardown, or its leases
  /// expired).
  void on_session_released(SessionId session);

  /// Folds one reconciliation finding into the model: the broker-side
  /// resolution already happened (toward the journal), so the model drops
  /// the corresponding expectation — a no-op when it never had one — and
  /// the finding is kept as a typed record. Conservation stays exact:
  /// after reconciliation, audit_hosts() is clean again.
  void on_reconciled(const Discrepancy& discrepancy);
  const std::vector<Discrepancy>& discrepancies() const noexcept {
    return discrepancies_;
  }

  // --- Model queries.

  double expected_held(SessionId session, ResourceId resource) const;
  /// True when the model expects no outstanding holding anywhere — the
  /// precondition for the end-of-run conservation proof.
  bool model_empty() const noexcept;

  // --- Audits. Each returns human-readable violations (empty == pass).

  /// Audits every leaf broker in the registry against the model. Down
  /// brokers are skipped — their in-memory state is gone by definition;
  /// they re-enter the audit after restart + reconciliation.
  QRES_NODISCARD std::vector<std::string> audit_hosts() const;

 private:
  /// Resolves `resource` to the leaf resources holdings accumulate on.
  std::vector<ResourceId> leaves_of(ResourceId resource) const;

  const BrokerRegistry* registry_;
  /// session -> leaf resource -> expected held amount.
  FlatMap<SessionId, FlatMap<ResourceId, double>> host_expect_;
  std::vector<Discrepancy> discrepancies_;
};

}  // namespace qres
