#include "mc/world.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <utility>

#include "rpc/wire.hpp"
#include "util/assert.hpp"

namespace qres::mc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Reservation amounts are sums of client-spec doubles; exact in IEEE
/// for the topologies we ship, but the invariants tolerate rounding.
constexpr double kEps = 1e-9;

/// Request ids are session-scoped: session*100 + per-session sequence.
/// The session is recoverable from any id, and ids from different
/// clients never collide — which is what lets frame actions commute.
std::uint64_t make_request_id(std::uint32_t session, std::uint64_t seq) {
  QRES_ENSURE(seq < 100, "mc: per-session request budget exceeded");
  return static_cast<std::uint64_t>(session) * 100 + seq;
}

std::uint32_t session_of_request(std::uint64_t request_id) {
  return static_cast<std::uint32_t>(request_id / 100);
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t hash) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Canonical-state byte stream feeding the two key hashes.
struct KeyStream {
  std::vector<std::uint8_t> bytes;

  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back((v >> (8 * i)) & 0xff);
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// Absolute simulation times enter the key relative to `now`, so two
  /// worlds that differ only in when they happened merge.
  void rel_time(double t, double now) { f64(std::isinf(t) ? t : t - now); }
};

void hex_append(std::string* out, std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4)
    out->push_back(digits[(v >> shift) & 0xf]);
}

}  // namespace

const char* to_string(ActionKind kind) noexcept {
  switch (kind) {
    case ActionKind::kStart: return "start";
    case ActionKind::kRetry: return "retry";
    case ActionKind::kGiveUp: return "giveup";
    case ActionKind::kRenew: return "renew";
    case ActionKind::kTeardown: return "teardown";
    case ActionKind::kAbandon: return "abandon";
    case ActionKind::kObserveExpired: return "observe-expired";
    case ActionKind::kDeliver: return "deliver";
    case ActionKind::kDrop: return "drop";
    case ActionKind::kDup: return "dup";
    case ActionKind::kExpire: return "expire";
    case ActionKind::kCrash: return "crash";
    case ActionKind::kRestart: return "restart";
  }
  return "?";
}

std::string to_string(const Action& action) {
  std::string out = to_string(action.kind);
  switch (action.kind) {
    case ActionKind::kStart:
    case ActionKind::kRetry:
    case ActionKind::kGiveUp:
    case ActionKind::kRenew:
    case ActionKind::kTeardown:
    case ActionKind::kAbandon:
    case ActionKind::kObserveExpired:
      out += " c" + std::to_string(action.client);
      break;
    case ActionKind::kDeliver:
    case ActionKind::kDrop:
    case ActionKind::kDup:
      out += action.broker >= 0 ? " b" + std::to_string(action.broker)
                                : " c" + std::to_string(action.client);
      out += " id " + std::to_string(action.request_id) + " h ";
      hex_append(&out, action.frame_hash);
      break;
    case ActionKind::kExpire:
    case ActionKind::kRestart:
      out += " b" + std::to_string(action.broker);
      break;
    case ActionKind::kCrash:
      out += " b" + std::to_string(action.broker) + " loss " +
             std::to_string(action.arg);
      break;
  }
  return out;
}

namespace {

/// Footprint of an action: broker processes are encoded as their index,
/// clients as 100 + index. Conservative — anything an action might read
/// or write is included.
void footprint(const Action& a, int out[3], int* n) {
  *n = 0;
  switch (a.kind) {
    case ActionKind::kStart:
    case ActionKind::kRetry:
    case ActionKind::kGiveUp:
    case ActionKind::kRenew:
    case ActionKind::kTeardown:
    case ActionKind::kAbandon:
    case ActionKind::kObserveExpired:
      out[(*n)++] = 100 + a.client;
      break;
    case ActionKind::kDeliver:
    case ActionKind::kDrop:
    case ActionKind::kDup:
      out[(*n)++] = 100 + a.owner;
      if (a.broker >= 0) out[(*n)++] = a.broker;
      if (a.client >= 0 && a.client != a.owner) out[(*n)++] = 100 + a.client;
      break;
    case ActionKind::kExpire:  // time advancer: never independent
      break;
    case ActionKind::kCrash:
    case ActionKind::kRestart:
      out[(*n)++] = a.broker;
      break;
  }
}

}  // namespace

bool independent(const Action& a, const Action& b) {
  // kExpire advances the shared logical clock, so it is dependent with
  // everything (time-gated enabledness would otherwise be missed).
  if (a.kind == ActionKind::kExpire || b.kind == ActionKind::kExpire)
    return false;
  int fa[3];
  int fb[3];
  int na = 0;
  int nb = 0;
  footprint(a, fa, &na);
  footprint(b, fb, &nb);
  for (int i = 0; i < na; ++i)
    for (int j = 0; j < nb; ++j)
      if (fa[i] == fb[j]) return false;
  return true;
}

// ---------------------------------------------------------------------------
// World construction and cloning.

World::World(const Topology& topology, const McConfig& config)
    : topo_(&topology), cfg_(config) {
  procs_.reserve(topology.brokers.size());
  for (const BrokerSpec& spec : topology.brokers) {
    Proc proc;
    proc.registry = std::make_unique<BrokerRegistry>();
    const ResourceId id = proc.registry->add_resource(
        spec.name, ResourceKind::kCpu, HostId{0}, spec.capacity);
    if (spec.journaled) {
      proc.journal = std::make_unique<MemoryJournal>(spec.compact);
      proc.registry->leaf(id)->attach_journal(proc.journal.get(),
                                              spec.snapshot_every, 0.0);
    }
    proc.service = std::make_unique<rpc::BrokerService>(proc.registry.get());
    proc.crashes_left = spec.max_crashes;
    procs_.push_back(std::move(proc));
  }
  clients_.reserve(topology.clients.size());
  for (const ClientSpec& spec : topology.clients) {
    QRES_REQUIRE(spec.broker >= 0 &&
                     spec.broker < static_cast<int>(procs_.size()),
                 "mc: client targets a nonexistent broker");
    Client client;
    client.retries_left = spec.max_retries;
    client.dups_left = spec.max_dups;
    client.renews_left = spec.max_renews;
    client.rereserves_left = spec.max_rereserves;
    client.believed_deadline = kInf;
    clients_.push_back(client);
  }
}

ResourceBroker& World::leaf(int proc) const {
  ResourceBroker* broker = procs_[proc].registry->leaf(ResourceId{0});
  QRES_ENSURE(broker != nullptr, "mc: proc without a leaf broker");
  return *broker;
}

bool World::proc_up(int proc) const { return leaf(proc).up(); }

World World::clone() const {
  World copy(*topo_, cfg_);
  copy.now_ = now_;
  copy.clients_ = clients_;
  copy.frames_ = frames_;
  copy.violation_ = violation_;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    // Journal first (so the rebind below lands on the copied contents),
    // then the broker value, then re-point its sink at the copy.
    if (procs_[i].journal)
      *copy.procs_[i].journal = *procs_[i].journal;
    ResourceBroker& dst = copy.leaf(static_cast<int>(i));
    dst = leaf(static_cast<int>(i));
    dst.rebind_journal(copy.procs_[i].journal.get());
    copy.procs_[i].service->restore_dedup(procs_[i].service->dedup_state());
    copy.procs_[i].crashes_left = procs_[i].crashes_left;
  }
  return copy;
}

// ---------------------------------------------------------------------------
// Frames.

void World::add_frame(std::vector<std::uint8_t> bytes, int to_broker,
                      int to_client, int owner) {
  const rpc::Decoded decoded = rpc::decode_frame(bytes);
  QRES_ENSURE(decoded.ok(), "mc: undecodable frame entering flight");
  const std::uint64_t request_id = rpc::request_id_of(decoded.message);
  std::uint64_t hash = fnv1a(bytes.data(), bytes.size(), 14695981039346656037ull);
  hash ^= (static_cast<std::uint64_t>(to_broker + 1) << 1) ^
          (static_cast<std::uint64_t>(to_client + 1) << 33);
  for (Frame& frame : frames_) {
    if (frame.hash == hash && frame.to_broker == to_broker &&
        frame.to_client == to_client && frame.bytes == bytes) {
      ++frame.count;
      return;
    }
  }
  Frame frame;
  frame.bytes = std::move(bytes);
  frame.hash = hash;
  frame.to_broker = to_broker;
  frame.to_client = to_client;
  frame.owner = owner;
  frame.session = session_of_request(request_id);
  frame.request_id = request_id;
  frames_.push_back(std::move(frame));
}

int World::frame_index(const Action& action) const {
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.hash == action.frame_hash && f.to_broker == action.broker &&
        f.to_client == action.client)
      return static_cast<int>(i);
  }
  return -1;
}

void World::send_request(int client, const std::vector<std::uint8_t>& bytes,
                         std::uint64_t request_id) {
  Client& c = clients_[client];
  c.awaiting = true;
  c.inflight_request = request_id;
  c.inflight_bytes = bytes;
  add_frame(bytes, topo_->clients[client].broker, -1, client);
}

// ---------------------------------------------------------------------------
// Enabled actions (deterministic canonical order).

std::vector<Action> World::enabled() const {
  std::vector<Action> actions;
  if (!violation_.empty()) return actions;

  for (int i = 0; i < static_cast<int>(clients_.size()); ++i) {
    const Client& c = clients_[i];
    const ClientSpec& spec = topo_->clients[i];
    const auto client_action = [&](ActionKind kind) {
      Action a;
      a.kind = kind;
      a.client = i;
      actions.push_back(a);
    };
    if (c.phase == Phase::kIdle) client_action(ActionKind::kStart);
    if (c.awaiting && c.retries_left > 0) client_action(ActionKind::kRetry);
    if (c.awaiting && c.retries_left == 0) {
      bool frame_pending = false;
      for (const Frame& f : frames_)
        if (f.request_id == c.inflight_request) frame_pending = true;
      if (!frame_pending) client_action(ActionKind::kGiveUp);
    }
    if (c.phase == Phase::kGranted && !c.awaiting) {
      if (c.renews_left > 0 && spec.lease > 0.0)
        client_action(ActionKind::kRenew);
      client_action(ActionKind::kTeardown);
      if (spec.lease > 0.0 && c.rereserves_left > 0 &&
          c.believed_deadline <= now_)
        client_action(ActionKind::kObserveExpired);
      if (spec.may_abandon) client_action(ActionKind::kAbandon);
    }
  }

  // Frames in canonical order, independent of insertion history.
  std::vector<int> order(frames_.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Frame& fa = frames_[a];
    const Frame& fb = frames_[b];
    if (fa.to_broker != fb.to_broker) return fa.to_broker < fb.to_broker;
    if (fa.to_client != fb.to_client) return fa.to_client < fb.to_client;
    if (fa.request_id != fb.request_id) return fa.request_id < fb.request_id;
    return fa.hash < fb.hash;
  });
  for (const int idx : order) {
    const Frame& f = frames_[idx];
    Action a;
    a.broker = f.to_broker;
    a.client = f.to_client;
    a.owner = f.owner;
    a.request_id = f.request_id;
    a.frame_hash = f.hash;
    // A request cannot reach a dead colocated process: with the cache in
    // the broker process, delivery-while-down is indistinguishable from a
    // drop, so only the drop is enabled. A surviving frontend
    // (dedup_survives_crash) answers even while the broker is down.
    const bool deliverable = f.to_client >= 0 || proc_up(f.to_broker) ||
                             cfg_.dedup_survives_crash;
    if (deliverable) {
      a.kind = ActionKind::kDeliver;
      actions.push_back(a);
    }
    // Fairness: never destroy a permanent client's last path to the
    // truth. When a retry-exhausted, lease-less client's active exchange
    // is down to one in-flight copy (request or reply — a request
    // redelivery regenerates the reply via the dedup cache), and the
    // broker-side holding disagrees with where giving up will leave the
    // client (a granted reserve it never learned of, an unexecuted
    // release), dropping that copy forces a strand no protocol action can
    // undo. Those schedules — the network eating literally every copy —
    // are excluded; leased sessions stay fully droppable because expiry
    // reclaims server-side regardless.
    const Client& oc = clients_[f.owner];
    const ClientSpec& ocs = topo_->clients[f.owner];
    bool droppable = oc.retries_left > 0 || ocs.lease > 0.0 ||
                     !oc.awaiting || f.request_id != oc.inflight_request;
    if (!droppable) {
      int copies = 0;
      for (const Frame& other : frames_)
        if (other.request_id == f.request_id) copies += other.count;
      // While the broker is down its in-memory holdings read zero, but
      // restart will restore the journaled truth — consulting held_by()
      // there would let the network eat a release whose session the
      // restarted broker still holds (a strand). Down broker: keep the
      // last copy alive.
      droppable =
          copies > 1 ||
          (proc_up(ocs.broker) &&
           leaf(ocs.broker).held_by(SessionId{ocs.session}) <= kEps);
    }
    if (droppable) {
      a.kind = ActionKind::kDrop;
      actions.push_back(a);
    }
    if (clients_[f.owner].dups_left > 0) {
      a.kind = ActionKind::kDup;
      actions.push_back(a);
    }
  }

  for (int b = 0; b < static_cast<int>(procs_.size()); ++b) {
    const BrokerSpec& spec = topo_->brokers[b];
    if (proc_up(b)) {
      double earliest = kInf;
      for (const ClientSpec& cs : topo_->clients)
        earliest =
            std::min(earliest, leaf(b).lease_deadline(SessionId{cs.session}));
      if (std::isfinite(earliest)) {
        Action a;
        a.kind = ActionKind::kExpire;
        a.broker = b;
        actions.push_back(a);
      }
      if (procs_[b].crashes_left > 0) {
        const std::size_t max_loss =
            procs_[b].journal ? spec.max_tail_loss : 0;
        for (std::size_t k = 0; k <= max_loss; ++k) {
          Action a;
          a.kind = ActionKind::kCrash;
          a.broker = b;
          a.arg = static_cast<std::int32_t>(k);
          actions.push_back(a);
        }
      }
    } else {
      Action a;
      a.kind = ActionKind::kRestart;
      a.broker = b;
      actions.push_back(a);
    }
  }
  return actions;
}

// ---------------------------------------------------------------------------
// Applying actions.

void World::apply(const Action& action) {
  QRES_REQUIRE(violation_.empty(), "mc: apply after a violation");
  const int ci = action.client >= 0 ? action.client : action.owner;
  switch (action.kind) {
    case ActionKind::kStart: {
      Client& c = clients_[ci];
      const ClientSpec& spec = topo_->clients[ci];
      const std::uint64_t rid = make_request_id(spec.session, ++c.seq);
      rpc::ReserveRequest req;
      req.header = {rid, spec.session, kInf};
      req.resource = 0;
      req.amount = spec.amount;
      req.lease = spec.lease;
      c.phase = Phase::kReserving;
      c.started = true;
      send_request(ci, rpc::encode(req), rid);
      break;
    }
    case ActionKind::kRetry: {
      Client& c = clients_[ci];
      --c.retries_left;
      add_frame(c.inflight_bytes, topo_->clients[ci].broker, -1, ci);
      break;
    }
    case ActionKind::kGiveUp:
      resolve_failure(ci);
      break;
    case ActionKind::kRenew: {
      Client& c = clients_[ci];
      const ClientSpec& spec = topo_->clients[ci];
      --c.renews_left;
      const std::uint64_t rid = make_request_id(spec.session, ++c.seq);
      rpc::RenewRequest req;
      req.header = {rid, spec.session, kInf};
      req.resource = 0;
      req.lease = spec.lease;
      c.phase = Phase::kRenewing;
      send_request(ci, rpc::encode(req), rid);
      break;
    }
    case ActionKind::kTeardown: {
      Client& c = clients_[ci];
      const ClientSpec& spec = topo_->clients[ci];
      const std::uint64_t rid = make_request_id(spec.session, ++c.seq);
      rpc::ReleaseRequest req;
      req.header = {rid, spec.session, kInf};
      req.resource = 0;
      req.release_all = 1;
      c.phase = Phase::kReleasing;
      send_request(ci, rpc::encode(req), rid);
      break;
    }
    case ActionKind::kAbandon:
      clients_[ci].phase = Phase::kAborted;
      break;
    case ActionKind::kObserveExpired: {
      Client& c = clients_[ci];
      const ClientSpec& spec = topo_->clients[ci];
      --c.rereserves_left;
      c.holds = false;
      c.believed_deadline = kInf;
      if (cfg_.rereserve_releases_first) {
        const std::uint64_t rid = make_request_id(spec.session, ++c.seq);
        rpc::ReleaseRequest req;
        req.header = {rid, spec.session, kInf};
        req.resource = 0;
        req.release_all = 1;
        c.phase = Phase::kRelForRereserve;
        send_request(ci, rpc::encode(req), rid);
      } else {
        // The buggy client: assumes the broker side is gone too and goes
        // straight to a fresh reserve. If the broker still holds (restart
        // grace pushed the server-side deadline out), the grants stack.
        c.phase = Phase::kIdle;
      }
      break;
    }
    case ActionKind::kDeliver:
      if (action.broker >= 0)
        deliver_to_broker(action);
      else
        deliver_to_client(action);
      break;
    case ActionKind::kDrop: {
      const int idx = frame_index(action);
      QRES_REQUIRE(idx >= 0, "mc: drop of an unknown frame");
      if (--frames_[idx].count == 0)
        frames_.erase(frames_.begin() + idx);
      break;
    }
    case ActionKind::kDup: {
      const int idx = frame_index(action);
      QRES_REQUIRE(idx >= 0, "mc: dup of an unknown frame");
      --clients_[frames_[idx].owner].dups_left;
      ++frames_[idx].count;
      break;
    }
    case ActionKind::kExpire: {
      double earliest = kInf;
      for (const ClientSpec& cs : topo_->clients)
        earliest = std::min(
            earliest, leaf(action.broker).lease_deadline(SessionId{cs.session}));
      QRES_REQUIRE(std::isfinite(earliest), "mc: expire with no lease due");
      now_ = std::max(now_, earliest);
      leaf(action.broker).expire_due(now_, nullptr);
      break;
    }
    case ActionKind::kCrash: {
      Proc& proc = procs_[action.broker];
      --proc.crashes_left;
      leaf(action.broker).crash(now_);
      if (proc.journal)
        proc.journal->drop_tail(static_cast<std::size_t>(action.arg));
      if (!cfg_.dedup_survives_crash)
        proc.service->forget_dedup(ResourceId{0});
      break;
    }
    case ActionKind::kRestart: {
      Proc& proc = procs_[action.broker];
      leaf(action.broker).restart(now_,
                                  topo_->brokers[action.broker].restart_grace);
      if (proc.journal && cfg_.rebuild_dedup_on_restart)
        proc.service->rebuild_dedup(ResourceId{0});
      break;
    }
  }
  check_invariants();
}

void World::deliver_to_broker(const Action& action) {
  const int idx = frame_index(action);
  QRES_REQUIRE(idx >= 0, "mc: deliver of an unknown frame");
  const std::vector<std::uint8_t> bytes = frames_[idx].bytes;
  const std::uint64_t request_id = frames_[idx].request_id;
  if (--frames_[idx].count == 0) frames_.erase(frames_.begin() + idx);
  rpc::BrokerService& service = *procs_[action.broker].service;
  std::vector<std::vector<std::uint8_t>> replies;
  // The stale-cache ordering: a frontend that consults the replay cache
  // before checking the broker serves a cached reply while the broker is
  // down. That reply describes an execution journal recovery may still
  // lose, so it promises state nobody can guarantee. BrokerService
  // answers kBrokerDown first (the fixed ordering); the world plays the
  // other ordering itself.
  if (!cfg_.down_check_before_dedup && !proc_up(action.broker)) {
    const rpc::BrokerService::DedupState cache = service.dedup_state();
    const auto cached = cache.entries.find(request_id);
    if (cached != cache.entries.end()) {
      replies.push_back(cached->second.bytes);
      if (violation_.empty()) violation_ = "no-stale-dedup-replay";
    }
  }
  if (replies.empty()) service.handle_frame(bytes, now_, &replies);
  for (std::vector<std::uint8_t>& reply : replies) {
    const rpc::Decoded decoded = rpc::decode_frame(reply);
    QRES_ENSURE(decoded.ok(), "mc: service produced an undecodable reply");
    const std::uint32_t session =
        session_of_request(rpc::request_id_of(decoded.message));
    int target = -1;
    for (int i = 0; i < static_cast<int>(topo_->clients.size()); ++i)
      if (topo_->clients[i].session == session) target = i;
    QRES_ENSURE(target >= 0, "mc: reply for an unknown session");
    add_frame(std::move(reply), -1, target, target);
  }
}

void World::deliver_to_client(const Action& action) {
  const int idx = frame_index(action);
  QRES_REQUIRE(idx >= 0, "mc: deliver of an unknown frame");
  const std::vector<std::uint8_t> bytes = frames_[idx].bytes;
  if (--frames_[idx].count == 0) frames_.erase(frames_.begin() + idx);

  Client& c = clients_[action.client];
  const ClientSpec& spec = topo_->clients[action.client];
  if (c.phase == Phase::kDone || c.phase == Phase::kAborted) return;
  const rpc::Decoded decoded = rpc::decode_frame(bytes);
  QRES_ENSURE(decoded.ok(), "mc: undecodable reply delivered");
  if (rpc::request_id_of(decoded.message) != c.inflight_request)
    return;  // duplicate or superseded reply: ignored

  const auto settle = [&] {
    c.awaiting = false;
    c.inflight_request = 0;
    c.inflight_bytes.clear();
  };
  // Retryable transport-level failures keep the exchange open while the
  // retry budget lasts (the at-least-once shim's behavior); once the
  // budget is gone the failure resolves the client's phase.
  const auto transport_failure = [&] {
    if (c.retries_left == 0) resolve_failure(action.client);
  };

  if (const auto* r = std::get_if<rpc::ReserveReply>(&decoded.message)) {
    if (r->code == rpc::RpcCode::kOk) {
      settle();
      c.phase = Phase::kGranted;
      c.holds = true;
      c.believed_deadline =
          spec.lease <= 0.0 ? kInf
          : cfg_.client_trusts_reply_deadline ? r->lease_deadline
                                              : now_ + spec.lease;
    } else if (r->code == rpc::RpcCode::kAdmissionReject) {
      settle();
      c.phase = Phase::kDone;
    } else {
      transport_failure();
    }
  } else if (const auto* n = std::get_if<rpc::RenewReply>(&decoded.message)) {
    if (n->code == rpc::RpcCode::kOk) {
      settle();
      if (n->renewed != 0) {
        c.phase = Phase::kGranted;
        c.believed_deadline = cfg_.client_trusts_reply_deadline
                                  ? n->lease_deadline
                                  : now_ + spec.lease;
      } else {
        // The broker no longer holds anything leased for us: the lease
        // lapsed. Re-reserve if budgeted, otherwise finish.
        c.holds = false;
        c.believed_deadline = kInf;
        if (c.rereserves_left > 0) {
          --c.rereserves_left;
          c.phase = Phase::kIdle;
        } else {
          c.phase = Phase::kDone;
        }
      }
    } else {
      transport_failure();
    }
  } else if (const auto* l = std::get_if<rpc::ReleaseReply>(&decoded.message)) {
    if (l->code == rpc::RpcCode::kOk) {
      settle();
      c.holds = false;
      c.believed_deadline = kInf;
      c.phase = c.phase == Phase::kRelForRereserve ? Phase::kIdle : Phase::kDone;
    } else {
      transport_failure();
    }
  } else {
    QRES_ENSURE(false, "mc: client received an unexpected reply type");
  }
}

void World::resolve_failure(int client) {
  Client& c = clients_[client];
  c.awaiting = false;
  c.inflight_request = 0;
  c.inflight_bytes.clear();
  switch (c.phase) {
    case Phase::kReserving:
      c.phase = Phase::kDone;  // nothing believed granted
      break;
    case Phase::kRenewing:
      c.phase = Phase::kGranted;  // keeps its old belief; expiry will tell
      break;
    case Phase::kReleasing:
    case Phase::kRelForRereserve:
      // Best-effort release failed; leased holdings are reclaimed by
      // expiry, so the client is done either way.
      c.holds = false;
      c.believed_deadline = kInf;
      c.phase = Phase::kDone;
      break;
    case Phase::kIdle:
    case Phase::kGranted:
    case Phase::kDone:
    case Phase::kAborted:
      QRES_ENSURE(false, "mc: failure resolution in a settled phase");
  }
}

// ---------------------------------------------------------------------------
// Invariants.

void World::check_invariants() {
  if (!violation_.empty()) return;
  for (int b = 0; b < static_cast<int>(procs_.size()); ++b) {
    ResourceBroker& broker = leaf(b);
    if (!broker.up()) continue;
    const BrokerSpec& spec = topo_->brokers[b];
    double sum = 0.0;
    for (const ClientSpec& cs : topo_->clients) {
      if (cs.broker != b) continue;
      const double held = broker.held_by(SessionId{cs.session});
      sum += held;
      if (held > cs.amount + kEps) {
        violation_ = "no-double-grant";
        return;
      }
    }
    if (std::abs(broker.reserved() - sum) > kEps ||
        broker.reserved() > spec.capacity + kEps) {
      violation_ = "conservation";
      return;
    }
    if (procs_[b].journal) {
      const ResourceBroker recovered =
          ResourceBroker::recover(procs_[b].journal->load());
      if (to_line(recovered.snapshot(now_)) != to_line(broker.snapshot(now_))) {
        violation_ = "recovery-bit-identity";
        return;
      }
    }
  }
  for (int i = 0; i < static_cast<int>(clients_.size()); ++i) {
    const Client& c = clients_[i];
    const ClientSpec& cs = topo_->clients[i];
    const BrokerSpec& bs = topo_->brokers[cs.broker];
    // A client whose believed deadline is still in the future must be
    // covered by a live broker-side holding. Only checkable when crashes
    // cannot legitimately lose state (journaled, lossless tail), and only
    // while the client still claims the holding — once it has sent a
    // release (kReleasing/kRelForRereserve) the broker-side holding is
    // legitimately gone before the reply arrives.
    const bool checkable =
        (bs.max_crashes == 0 || bs.journaled) && bs.max_tail_loss == 0;
    const bool claims =
        c.phase == Phase::kGranted || c.phase == Phase::kRenewing;
    if (c.holds && claims && c.believed_deadline > now_ && checkable &&
        proc_up(cs.broker) &&
        leaf(cs.broker).held_by(SessionId{cs.session}) + kEps < cs.amount) {
      violation_ = "no-phantom-grant";
      return;
    }
  }
}

void World::check_quiescent() {
  if (!violation_.empty() || topo_->allow_stranded) return;
  for (int b = 0; b < static_cast<int>(procs_.size()); ++b) {
    if (proc_up(b) && leaf(b).reserved() > kEps) {
      violation_ = "no-stranded";
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Canonical key.

std::pair<std::uint64_t, std::uint64_t> World::canonical_key() const {
  KeyStream s;
  // Canonical form for frame/cached-reply bytes: replies embed the
  // broker's *absolute* lease deadline, so hashing raw bytes would split
  // time-shifted but behaviorally identical worlds. Decode and hash the
  // fields with deadlines made now-relative instead; anything else (the
  // requests the world itself builds are deadline-free) hashes raw.
  const auto canon_bytes = [&](const std::vector<std::uint8_t>& bytes) {
    const rpc::Decoded decoded = rpc::decode_frame(bytes);
    if (decoded.ok()) {
      if (const auto* r = std::get_if<rpc::ReserveReply>(&decoded.message)) {
        s.u8(1);
        s.u64(r->request_id);
        s.u8(static_cast<std::uint8_t>(r->code));
        s.f64(r->available_after);
        s.rel_time(r->lease_deadline, now_);
        return;
      }
      if (const auto* r = std::get_if<rpc::RenewReply>(&decoded.message)) {
        s.u8(2);
        s.u64(r->request_id);
        s.u8(static_cast<std::uint8_t>(r->code));
        s.u8(r->renewed);
        s.rel_time(r->lease_deadline, now_);
        return;
      }
    }
    s.u8(0);
    s.u64(fnv1a(bytes.data(), bytes.size(), 14695981039346656037ull));
  };
  // Request ids that can still reach broker `b`: a request frame in
  // flight, or a client that can still retransmit. A dedup entry (or
  // journaled reply record) for any other id is behaviorally inert — no
  // future action can hit it — and hashing it would keep behaviorally
  // merged states apart forever.
  const auto live_ids = [&](int b) {
    std::set<std::uint64_t> live;
    for (const Frame& f : frames_)
      if (f.to_broker == b && f.to_client < 0) live.insert(f.request_id);
    for (std::size_t i = 0; i < clients_.size(); ++i)
      if (topo_->clients[i].broker == b && clients_[i].awaiting &&
          clients_[i].retries_left > 0)
        live.insert(clients_[i].inflight_request);
    return live;
  };
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const Client& c = clients_[i];
    s.u8(static_cast<std::uint8_t>(c.phase));
    s.u8(static_cast<std::uint8_t>(c.retries_left));
    s.u8(static_cast<std::uint8_t>(c.dups_left));
    s.u8(static_cast<std::uint8_t>(c.renews_left));
    s.u8(static_cast<std::uint8_t>(c.rereserves_left));
    s.u8(c.awaiting ? 1 : 0);
    s.u8(c.holds ? 1 : 0);
    s.u64(c.seq);
    s.u64(c.inflight_request);
    s.rel_time(c.believed_deadline, now_);
    s.u64(fnv1a(c.inflight_bytes.data(), c.inflight_bytes.size(),
                14695981039346656037ull));
  }
  // Frames in the same canonical order enabled() uses.
  std::vector<int> order(frames_.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Frame& fa = frames_[a];
    const Frame& fb = frames_[b];
    if (fa.to_broker != fb.to_broker) return fa.to_broker < fb.to_broker;
    if (fa.to_client != fb.to_client) return fa.to_client < fb.to_client;
    if (fa.request_id != fb.request_id) return fa.request_id < fb.request_id;
    return fa.hash < fb.hash;
  });
  for (const int idx : order) {
    const Frame& f = frames_[idx];
    s.u64(static_cast<std::uint64_t>(f.to_broker + 1) |
          (static_cast<std::uint64_t>(f.to_client + 1) << 16));
    canon_bytes(f.bytes);
    s.u64(static_cast<std::uint64_t>(f.count));
  }
  for (int b = 0; b < static_cast<int>(procs_.size()); ++b) {
    const ResourceBroker& broker = leaf(b);
    const std::set<std::uint64_t> live = live_ids(b);
    s.u8(broker.up() ? 1 : 0);
    s.u8(static_cast<std::uint8_t>(procs_[b].crashes_left));
    s.f64(broker.reserved());
    for (const ClientSpec& cs : topo_->clients) {
      s.f64(broker.held_by(SessionId{cs.session}));
      s.rel_time(broker.lease_deadline(SessionId{cs.session}), now_);
    }
    // The journal is behaviorally inert once no crash can consume it (no
    // crash budget left and the process is up): recovery can never be
    // invoked again, and bit-identity — once established — is preserved
    // inductively by every append. Hashing it then would split states
    // that behave identically (absolute record times, interleaving
    // noise), exploding the visited set for nothing.
    if (procs_[b].journal &&
        (procs_[b].crashes_left > 0 || !broker.up())) {
      for (const JournalRecord& rec : procs_[b].journal->records()) {
        // Reply records for dead ids would be resurrected by a rebuild
        // but can never be hit again — inert, skip them.
        if (rec.op == JournalOp::kReplyCache && !live.contains(rec.request_id))
          continue;
        s.u8(static_cast<std::uint8_t>(rec.op));
        s.rel_time(rec.time, now_);
        s.u64(rec.session.value());
        s.f64(rec.amount);
        s.f64(rec.lease);
        s.u64(rec.request_id);
        s.u8(rec.grouped ? 1 : 0);
        if (rec.op == JournalOp::kReplyCache)
          canon_bytes(rec.reply);
        if (rec.op == JournalOp::kSnapshot) {
          s.f64(rec.reserved);
          for (const auto& [session, amount] : rec.holdings) {
            s.u64(session);
            s.f64(amount);
          }
          for (const auto& [session, deadline] : rec.lease_deadlines) {
            s.u64(session);
            s.rel_time(deadline, now_);
          }
        }
      }
    }
    const rpc::BrokerService::DedupState dedup =
        procs_[b].service->dedup_state();
    for (const auto& [id, entry] : dedup.entries) {
      if (!live.contains(id)) continue;
      s.u64(id);
      canon_bytes(entry.bytes);
    }
  }
  const std::uint64_t h1 =
      fnv1a(s.bytes.data(), s.bytes.size(), 14695981039346656037ull);
  const std::uint64_t h2 =
      fnv1a(s.bytes.data(), s.bytes.size(), 0x9e3779b97f4a7c15ull);
  return {h1, h2};
}

}  // namespace qres::mc
