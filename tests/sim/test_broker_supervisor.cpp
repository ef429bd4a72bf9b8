// BrokerSupervisor: journals the registry's leaf brokers and turns
// scripted FaultPlane broker windows into actual crash()/restart() calls
// — crash at the window start, journal recovery (with lease grace) at the
// window end, optionally losing an un-fsynced journal tail on the way
// down. The un-journaled baseline restarts blank (the lose-everything
// comparison arm of bench/ext_recovery).
#include "sim/broker_supervisor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "broker/journal.hpp"
#include "broker/registry.hpp"
#include "core/event_queue.hpp"
#include "signal/fault_plane.hpp"

namespace qres {
namespace {

const SessionId s1{1}, s2{2};

struct Fixture {
  EventQueue queue;
  BrokerRegistry registry;
  ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{0}, 100.0);
  ResourceId bw = registry.add_resource(
      "bw", ResourceKind::kNetworkBandwidth, HostId{}, 50.0);

  ResourceBroker& leaf(ResourceId id) { return *registry.leaf(id); }
};

TEST(BrokerSupervisor, AttachAllJournalsEveryLeaf) {
  Fixture f;
  BrokerSupervisor supervisor(&f.queue, &f.registry, 1);
  supervisor.attach_all(0.0);
  for (ResourceId id : {f.cpu, f.bw}) {
    MemoryJournal* journal = supervisor.journal_of(id);
    ASSERT_NE(journal, nullptr);
    EXPECT_EQ(f.leaf(id).journal(), journal);
    // Attaching appended the initial self-contained snapshot.
    ASSERT_EQ(journal->records().size(), 1u);
    EXPECT_EQ(journal->records()[0].op, JournalOp::kSnapshot);
  }
}

TEST(BrokerSupervisor, BaselineModeAttachesNoJournals) {
  Fixture f;
  SupervisorConfig config;
  config.journaled = false;
  BrokerSupervisor supervisor(&f.queue, &f.registry, 1, config);
  supervisor.attach_all(0.0);
  EXPECT_EQ(supervisor.journal_of(f.cpu), nullptr);
  EXPECT_EQ(f.leaf(f.cpu).journal(), nullptr);
}

TEST(BrokerSupervisor, ScheduledOutageCrashesThenRecovers) {
  Fixture f;
  SupervisorConfig config;
  config.lease_grace = 4.0;
  BrokerSupervisor supervisor(&f.queue, &f.registry, 1, config);
  supervisor.attach_all(0.0);
  supervisor.schedule_outage(f.cpu, 2.0, 5.0);
  f.queue.run_until(1.0);
  ASSERT_TRUE(f.leaf(f.cpu).reserve(1.0, s1, 30.0));
  ASSERT_TRUE(f.leaf(f.cpu).reserve_leased(1.0, s2, 10.0, 2.0));
  f.queue.run_until(3.0);
  EXPECT_FALSE(f.leaf(f.cpu).up());
  EXPECT_TRUE(f.leaf(f.bw).up());  // only the scheduled broker crashes
  f.queue.run_until(6.0);
  EXPECT_TRUE(f.leaf(f.cpu).up());
  EXPECT_EQ(f.leaf(f.cpu).held_by(s1), 30.0);
  EXPECT_EQ(f.leaf(f.cpu).held_by(s2), 10.0);
  // s2's deadline (3.0) passed during the outage; the restart grace runs
  // from the restart instant so the holder can still re-assert itself.
  EXPECT_EQ(f.leaf(f.cpu).lease_deadline(s2), 9.0);
  EXPECT_EQ(supervisor.totals().crashes, 1u);
  EXPECT_EQ(supervisor.totals().restarts, 1u);
  EXPECT_EQ(supervisor.totals().lost_records, 0u);
}

TEST(BrokerSupervisor, BaselineOutageLosesEverything) {
  Fixture f;
  SupervisorConfig config;
  config.journaled = false;
  BrokerSupervisor supervisor(&f.queue, &f.registry, 1, config);
  supervisor.attach_all(0.0);
  supervisor.schedule_outage(f.cpu, 2.0, 5.0);
  f.queue.run_until(1.0);
  ASSERT_TRUE(f.leaf(f.cpu).reserve(1.0, s1, 30.0));
  f.queue.run_until(6.0);
  EXPECT_TRUE(f.leaf(f.cpu).up());
  EXPECT_EQ(f.leaf(f.cpu).held_by(s1), 0.0);
  EXPECT_EQ(f.leaf(f.cpu).available(), 100.0);
  EXPECT_EQ(supervisor.totals().crashes, 1u);
  EXPECT_EQ(supervisor.totals().restarts, 1u);
}

TEST(BrokerSupervisor, AdoptScheduleMirrorsFaultPlaneWindows) {
  Fixture f;
  FaultPlane plane(99);
  plane.crash_broker(f.cpu, 2.0, 4.0);
  plane.crash_broker(f.bw, 3.0, 6.0);
  // The plane only keeps the schedule...
  EXPECT_FALSE(plane.broker_up(f.cpu, 2.0));  // [from, until)
  EXPECT_TRUE(plane.broker_up(f.cpu, 4.0));
  // ...the supervisor makes it happen on the broker objects.
  BrokerSupervisor supervisor(&f.queue, &f.registry, 1);
  supervisor.attach_all(0.0);
  supervisor.adopt_schedule(plane);
  f.queue.run_until(3.5);
  EXPECT_FALSE(f.leaf(f.cpu).up());
  EXPECT_FALSE(f.leaf(f.bw).up());
  f.queue.run_until(4.5);
  EXPECT_TRUE(f.leaf(f.cpu).up());
  EXPECT_FALSE(f.leaf(f.bw).up());
  f.queue.run_until(10.0);
  EXPECT_TRUE(f.leaf(f.bw).up());
  EXPECT_EQ(supervisor.totals().crashes, 2u);
  EXPECT_EQ(supervisor.totals().restarts, 2u);
}

TEST(BrokerSupervisor, RestartListenerFiresAfterRecovery) {
  Fixture f;
  BrokerSupervisor supervisor(&f.queue, &f.registry, 1);
  supervisor.attach_all(0.0);
  std::vector<std::pair<std::uint32_t, double>> restarts;
  supervisor.on_restart([&](ResourceId resource, double now) {
    // The hook fires with the broker already up and recovered — this is
    // where session reconciliation starts.
    EXPECT_TRUE(f.leaf(resource).up());
    restarts.push_back({resource.value(), now});
  });
  supervisor.schedule_outage(f.cpu, 2.0, 5.0);
  f.queue.run_until(1.0);
  ASSERT_TRUE(f.leaf(f.cpu).reserve(1.0, s1, 30.0));
  f.queue.run_all();
  ASSERT_EQ(restarts.size(), 1u);
  EXPECT_EQ(restarts[0].first, f.cpu.value());
  EXPECT_EQ(restarts[0].second, 5.0);
}

TEST(BrokerSupervisor, LostTailIsBoundedAndRecoveryMatchesTheJournal) {
  Fixture f;
  SupervisorConfig config;
  config.max_lost_tail = 4;
  config.snapshot_every = 64;  // keep the whole tail losable
  BrokerSupervisor supervisor(&f.queue, &f.registry, 7, config);
  supervisor.attach_all(0.0);
  supervisor.schedule_outage(f.cpu, 2.0, 5.0);
  f.queue.run_until(1.0);
  for (std::uint32_t i = 1; i <= 6; ++i)
    ASSERT_TRUE(f.leaf(f.cpu).reserve(
        1.0, SessionId{i}, 5.0));
  f.queue.run_until(6.0);
  EXPECT_TRUE(f.leaf(f.cpu).up());
  EXPECT_LE(supervisor.totals().lost_records, 4u);
  // Whatever tail was lost, the broker and its journal agree exactly: a
  // fresh recovery from the surviving records is bit-identical to the
  // restarted broker.
  MemoryJournal* journal = supervisor.journal_of(f.cpu);
  ASSERT_NE(journal, nullptr);
  const ResourceBroker recovered = ResourceBroker::recover(journal->records());
  EXPECT_EQ(to_line(recovered.snapshot(10.0)),
            to_line(f.leaf(f.cpu).snapshot(10.0)));
  // Only whole records disappear: the surviving reservation count matches
  // the reserved total.
  const double reserved = f.leaf(f.cpu).reserved();
  EXPECT_GE(reserved, 10.0);  // at least 6 - 4 grants survived
  EXPECT_EQ(reserved, 5.0 * static_cast<double>(6 - supervisor.totals().lost_records));
}

TEST(BrokerSupervisor, ZeroLostTailRestartsBitIdentically) {
  Fixture f;
  BrokerSupervisor supervisor(&f.queue, &f.registry, 7);
  supervisor.attach_all(0.0);
  supervisor.schedule_outage(f.cpu, 2.0, 5.0);
  f.queue.run_until(1.0);
  ASSERT_TRUE(f.leaf(f.cpu).reserve(1.0, s1, 30.0));
  ASSERT_TRUE(f.leaf(f.cpu).reserve(1.5, s2, 20.0));
  const std::string before = to_line(f.leaf(f.cpu).snapshot(10.0));
  f.queue.run_until(6.0);
  EXPECT_EQ(to_line(f.leaf(f.cpu).snapshot(10.0)), before);
  EXPECT_EQ(supervisor.totals().lost_records, 0u);
}

}  // namespace
}  // namespace qres
