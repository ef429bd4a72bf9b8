// Write-ahead journal and crash–restart durability of ResourceBroker
// (DESIGN.md §9): binary record round trips, the file journal's torn
// tail and mid-file corruption rules, snapshot compaction,
// lost-tail crash model, bit-identical recovery, restart lease grace,
// the bounded expiry log, and the lease boundary convention
// (deadline <= now expires — expiry wins the exact-deadline tie, and
// renew_lease sweeps due leases first, so a renewal racing expiry at the
// same tick fails).
#include "broker/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/resource_broker.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace qres {
namespace {

const ResourceId rid{0};
const SessionId s1{1}, s2{2}, s3{3}, s4{4};

ResourceBroker make(double capacity = 100.0) {
  return ResourceBroker(rid, "cpu", capacity);
}

// --- Record serialization -------------------------------------------------

std::vector<std::uint8_t> encode_record(const JournalRecord& record) {
  std::vector<std::uint8_t> bytes;
  codec::Writer w(&bytes);
  record_fields(w, record);
  return bytes;
}

/// Decodes one record that must fill `bytes` exactly.
bool decode_record(const std::vector<std::uint8_t>& bytes,
                   JournalRecord* record) {
  codec::Reader r(bytes.data(), bytes.size());
  record_fields(r, *record);
  return r.done();
}

TEST(Journal, RecordFieldsRoundTripMutations) {
  JournalRecord rec;
  rec.op = JournalOp::kReserveLeased;
  rec.time = 1.0 / 3.0;  // bit-pattern round trip must be exact
  rec.resource = ResourceId{7};
  rec.session = SessionId{42};
  rec.amount = 12.345678901234567;
  rec.lease = 6.25;
  JournalRecord parsed;
  ASSERT_TRUE(decode_record(encode_record(rec), &parsed));
  EXPECT_EQ(parsed, rec);
  EXPECT_EQ(to_line(parsed), to_line(rec));
}

TEST(Journal, RecordFieldsRoundTripSnapshots) {
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve(0.5, s1, 10.0 / 3.0));
  ASSERT_TRUE(broker.reserve_leased(1.0, s2, 20.0, 5.0));
  const JournalRecord snap = broker.snapshot(2.0);
  JournalRecord parsed;
  ASSERT_TRUE(decode_record(encode_record(snap), &parsed));
  EXPECT_EQ(parsed, snap);
  EXPECT_EQ(to_line(parsed), to_line(snap));
}

TEST(Journal, RecordFieldsRejectMalformedInput) {
  // The bytes of the text a parser once refused: 'n' is no JournalOp.
  const std::string text = "not a journal record";
  JournalRecord parsed;
  EXPECT_FALSE(decode_record({text.begin(), text.end()}, &parsed));
  EXPECT_FALSE(decode_record({}, &parsed));
  // A valid record cut short, or followed by a stray byte.
  std::vector<std::uint8_t> bytes = encode_record(make().snapshot(0.0));
  bytes.push_back(0);
  EXPECT_FALSE(decode_record(bytes, &parsed));
  bytes.pop_back();
  bytes.pop_back();
  EXPECT_FALSE(decode_record(bytes, &parsed));
}

// --- Sinks ----------------------------------------------------------------

TEST(Journal, AttachAppendsInitialSnapshot) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve(0.5, s1, 25.0));
  broker.attach_journal(&journal, 64, 1.0);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.records()[0].op, JournalOp::kSnapshot);
  // The initial snapshot alone must already be enough to recover.
  const ResourceBroker recovered = ResourceBroker::recover(journal.records());
  EXPECT_EQ(to_line(recovered.snapshot(1.0)), to_line(broker.snapshot(1.0)));
}

TEST(Journal, SnapshotCompactionEverySnapshotEveryMutations) {
  MemoryJournal journal;  // compacting (the default)
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 4, 0.0);
  for (int i = 1; i <= 8; ++i)
    ASSERT_TRUE(broker.reserve(static_cast<double>(i),
                               SessionId{static_cast<std::uint32_t>(i)}, 2.0));
  // attach snapshot + 8 mutations + a compacting snapshot after every 4th.
  EXPECT_EQ(journal.appended(), 11u);
  EXPECT_EQ(journal.snapshots(), 3u);
  // Each compaction drops everything before the new snapshot; the 8th
  // mutation triggered one, so exactly the last snapshot is retained.
  EXPECT_EQ(journal.compacted_away(), 10u);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.records()[0].op, JournalOp::kSnapshot);
  const ResourceBroker recovered = ResourceBroker::recover(journal.records());
  EXPECT_EQ(to_line(recovered.snapshot(8.0)), to_line(broker.snapshot(8.0)));
}

TEST(Journal, CompactionRetainsReplyCacheRecords) {
  // Regression for the double grant qres_mc found on `crashy`: restart()
  // appends a snapshot, and compaction used to wipe the kReplyCache
  // records before BrokerService::rebuild_dedup could read them — a
  // retried request then re-executed on top of the restored holding.
  // Compaction must carry the newest reply records across the barrier
  // (ungrouped: behind a snapshot they are fsynced state).
  MemoryJournal journal;  // compacting (the default)
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  JournalRecord reply;
  reply.op = JournalOp::kReplyCache;
  reply.resource = rid;
  reply.request_id = 77;
  reply.grouped = true;
  reply.reply = {0xde, 0xad};
  ASSERT_EQ(journal.append(reply), JournalStatus::kOk);
  // The compaction barrier.
  ASSERT_EQ(journal.append(broker.snapshot(2.0)), JournalStatus::kOk);

  int reply_records = 0;
  for (const JournalRecord& record : journal.records())
    if (record.op == JournalOp::kReplyCache) {
      ++reply_records;
      EXPECT_EQ(record.request_id, 77u);
      EXPECT_EQ(record.reply, (std::vector<std::uint8_t>{0xde, 0xad}));
      EXPECT_FALSE(record.grouped);  // no longer tied to a compacted mutation
    }
  EXPECT_EQ(reply_records, 1);
  EXPECT_EQ(journal.records().back().op, JournalOp::kSnapshot);
  // Retained replies sit ahead of the snapshot, and recovery (which only
  // reads broker state) is undisturbed by them.
  const ResourceBroker recovered = ResourceBroker::recover(journal.records());
  EXPECT_EQ(recovered.held_by(s1), 10.0);
}

TEST(Journal, CompactionBoundsRetainedReplyRecords) {
  MemoryJournal journal(/*compact_on_snapshot=*/true, /*reply_cache_keep=*/2);
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    JournalRecord reply;
    reply.op = JournalOp::kReplyCache;
    reply.resource = rid;
    reply.request_id = id;
    ASSERT_EQ(journal.append(reply), JournalStatus::kOk);
  }
  ASSERT_EQ(journal.append(broker.snapshot(1.0)), JournalStatus::kOk);
  // Only the newest two reply records survive the compaction.
  std::vector<std::uint64_t> kept;
  for (const JournalRecord& record : journal.records())
    if (record.op == JournalOp::kReplyCache)
      kept.push_back(record.request_id);
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{4, 5}));
}

TEST(Journal, DropTailKeepsGroupedReplyAtomicWithItsMutation) {
  MemoryJournal journal(/*compact_on_snapshot=*/false);
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  JournalRecord reply;
  reply.op = JournalOp::kReplyCache;
  reply.resource = rid;
  reply.request_id = 5;
  reply.grouped = true;
  // The journal now holds snapshot, kReserve, grouped kReplyCache.
  ASSERT_EQ(journal.append(reply), JournalStatus::kOk);

  // A tail budget of 1 would split the group: the whole pair is kept
  // (keeping more of the tail is always a legal crash outcome).
  EXPECT_EQ(journal.drop_tail(1), 0u);
  ASSERT_EQ(journal.records().size(), 3u);
  // A budget of 2 drops the pair atomically.
  EXPECT_EQ(journal.drop_tail(2), 2u);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.records()[0].op, JournalOp::kSnapshot);
}

TEST(Journal, DropTailStopsAtNewestSnapshot) {
  MemoryJournal journal(/*compact_on_snapshot=*/false);
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(broker.reserve(2.0, s2, 20.0));
  ASSERT_TRUE(broker.reserve(3.0, s3, 30.0));
  ASSERT_EQ(journal.records().size(), 4u);  // snapshot + 3 mutations
  // Asking for more than the un-fsynced tail drops only the mutations:
  // the snapshot is the fsync barrier and can never be lost.
  EXPECT_EQ(journal.drop_tail(100), 3u);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.records()[0].op, JournalOp::kSnapshot);
  EXPECT_EQ(journal.drop_tail(1), 0u);
}

TEST(Journal, DropTailDropsExactlyTheRequestedCount) {
  MemoryJournal journal(/*compact_on_snapshot=*/false);
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(broker.reserve(2.0, s2, 20.0));
  EXPECT_EQ(journal.drop_tail(1), 1u);
  // The surviving prefix replays to the state before the lost record.
  const ResourceBroker recovered = ResourceBroker::recover(journal.records());
  EXPECT_EQ(recovered.held_by(s1), 10.0);
  EXPECT_EQ(recovered.held_by(s2), 0.0);
}

TEST(Journal, FileJournalRoundTripsThroughDisk) {
  const std::string path = "test_journal_file_roundtrip.wal";
  ResourceBroker broker = make();
  {
    FileJournal journal(path);  // truncate
    broker.attach_journal(&journal, 64, 0.0);
    ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
    ASSERT_TRUE(broker.reserve_leased(2.0, s2, 20.0, 5.0));
    broker.release_amount(3.0, s1, 4.0);
  }
  const std::vector<JournalRecord> records = FileJournal::read_file(path);
  ASSERT_GE(records.size(), 4u);
  const ResourceBroker recovered = ResourceBroker::recover(records);
  EXPECT_EQ(to_line(recovered.snapshot(3.0)), to_line(broker.snapshot(3.0)));
  std::remove(path.c_str());
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(file), {}};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

/// A file journal of one broker's snapshot and three mutations; returns
/// the records as appended.
std::vector<JournalRecord> write_journal(const std::string& path) {
  {
    FileJournal journal(path);
    ResourceBroker broker = make();
    broker.attach_journal(&journal, 64, 0.0);
    EXPECT_TRUE(broker.reserve(1.0, s1, 10.0));
    EXPECT_TRUE(broker.reserve_leased(2.0, s2, 20.0, 5.0));
    broker.release_amount(3.0, s1, 4.0);
  }
  return FileJournal::read_file(path);
}

TEST(Journal, ReadFileDropsATornLastRecord) {
  const std::string path = "test_journal_torn.wal";
  const std::vector<JournalRecord> records = write_journal(path);
  ASSERT_EQ(records.size(), 4u);
  const std::vector<std::uint8_t> whole = file_bytes(path);
  // Where the last record starts: the size of a journal of the others.
  {
    FileJournal prefix(path);
    for (std::size_t i = 0; i + 1 < records.size(); ++i)
      ASSERT_EQ(prefix.append(records[i]), JournalStatus::kOk);
  }
  const std::size_t last_start = file_bytes(path).size();
  ASSERT_LT(last_start, whole.size());
  const std::vector<JournalRecord> survivors(records.begin(),
                                             records.end() - 1);
  // A crash may cut the last write at any byte: recovery keeps the
  // records before it and never throws.
  for (std::size_t cut = last_start; cut < whole.size(); ++cut) {
    write_bytes(path, {whole.begin(), whole.begin() + cut});
    EXPECT_EQ(FileJournal::read_file(path), survivors) << "cut at " << cut;
  }
  // A last record with a flipped payload byte fails its checksum: torn.
  std::vector<std::uint8_t> flipped = whole;
  flipped.back() ^= 0x01;
  write_bytes(path, flipped);
  EXPECT_EQ(FileJournal::read_file(path), survivors);
  std::remove(path.c_str());
}

TEST(Journal, AppendingOpenCutsATornLastRecord) {
  const std::string path = "test_journal_append_torn.wal";
  const std::vector<JournalRecord> records = write_journal(path);
  ASSERT_GE(records.size(), 2u);
  {
    FileJournal two(path);
    ASSERT_EQ(two.append(records[0]), JournalStatus::kOk);
    ASSERT_EQ(two.append(records[1]), JournalStatus::kOk);
  }
  // A crash tore the second record: three bytes short.
  const std::vector<std::uint8_t> whole = file_bytes(path);
  write_bytes(path, {whole.begin(), whole.end() - 3});
  {
    FileJournal reopened(path, /*truncate=*/false);
    ASSERT_EQ(reopened.append(records[2]), JournalStatus::kOk);
  }
  // The torn record is gone and the new one follows the intact first.
  EXPECT_EQ(FileJournal::read_file(path),
            (std::vector<JournalRecord>{records[0], records[2]}));
  std::remove(path.c_str());
}

TEST(Journal, ReadFileRejectsMidFileCorruption) {
  const std::string path = "test_journal_corrupt.wal";
  ASSERT_EQ(write_journal(path).size(), 4u);
  // A flipped byte inside the first record, with records after it, is
  // corruption rather than a torn write: read_file names its offset.
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes[14] ^= 0x01;
  write_bytes(path, bytes);
  try {
    (void)FileJournal::read_file(path);
    ADD_FAILURE() << "mid-file corruption was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("at byte 0"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(Journal, FileJournalConcurrentAppendsAllDecode) {
  const std::string path = "test_journal_concurrent.wal";
  constexpr std::size_t kRecords = 400;
  std::vector<JournalRecord> appended(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    appended[i].op = JournalOp::kReserve;
    appended[i].time = static_cast<double>(i) / 7.0;
    appended[i].resource = ResourceId{static_cast<std::uint32_t>(i % 4)};
    appended[i].session = SessionId{static_cast<std::uint32_t>(i)};
    appended[i].amount = 1.0 + static_cast<double>(i);
  }
  {
    FileJournal journal(path);
    ThreadPool pool(4);
    pool.parallel_for(
        kRecords,
        [&](std::size_t i) {
          EXPECT_EQ(journal.append(appended[i]), JournalStatus::kOk);
        },
        /*grain=*/1);
    EXPECT_EQ(journal.appended(), kRecords);
  }
  // Every record comes back intact (in some interleaving order).
  const std::vector<JournalRecord> loaded = FileJournal::read_file(path);
  ASSERT_EQ(loaded.size(), kRecords);
  std::vector<bool> seen(kRecords, false);
  for (const JournalRecord& record : loaded) {
    const std::uint32_t i = record.session.value();
    ASSERT_LT(i, kRecords);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
    EXPECT_EQ(record, appended[i]);
  }
  std::remove(path.c_str());
}

// --- Sink I/O failure injection --------------------------------------------

/// Sink that refuses appends on command: delegates to a MemoryJournal
/// until `fail_after` records have landed, then answers `status` for
/// every further append until `healed` — a disk that filled up (or a
/// file that vanished) partway through a broker's life.
struct FaultySink final : IJournalSink {
  MemoryJournal inner;
  std::uint64_t fail_after = 0;  ///< appends that land before failing
  JournalStatus status = JournalStatus::kWriteFailed;
  bool healed = false;
  std::uint64_t refused = 0;

  JournalStatus append(const JournalRecord& record) override {
    if (!healed && inner.appended() >= fail_after) {
      ++refused;
      return status;
    }
    return inner.append(record);
  }
  std::vector<JournalRecord> load() const override { return inner.load(); }
  std::uint64_t appended() const override { return inner.appended(); }
};

TEST(Journal, FileJournalOpenFailureThrows) {
  // The constructor's contract: a path that cannot be opened is fatal at
  // attach time, never a silent no-durability broker.
  EXPECT_THROW(FileJournal("no_such_dir/sub/journal.wal"),
               std::runtime_error);
  EXPECT_THROW(FileJournal::read_file("no_such_file.wal"),
               std::runtime_error);
}

TEST(Journal, AttachTimeSnapshotFailureIsFatal) {
  // A broker that cannot write its very first snapshot has no durability
  // story to degrade to: attach_journal refuses to start.
  FaultySink sink;  // fail_after 0: every append refused
  ResourceBroker broker = make();
  EXPECT_THROW(broker.attach_journal(&sink), ContractViolation);
}

TEST(Journal, RefusedAppendFailsTheMutationAndNeverDiverges) {
  FaultySink sink;
  sink.fail_after = 2;  // attach snapshot + one reserve land, then fail
  ResourceBroker broker = make();
  broker.attach_journal(&sink, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));

  // The sink now refuses: the mutation must fail WITHOUT applying — a
  // broker whose journal is missing an applied mutation would recover
  // into a different state than it died in.
  EXPECT_FALSE(broker.reserve(2.0, s2, 20.0));
  EXPECT_EQ(broker.held_by(s2), 0.0);
  EXPECT_EQ(broker.available(), 90.0);
  EXPECT_EQ(broker.journal_failures(), 1u);
  EXPECT_EQ(sink.refused, 1u);

  // Releases go through the same gate.
  broker.release_amount(3.0, s1, 4.0);
  EXPECT_EQ(broker.held_by(s1), 10.0);
  EXPECT_EQ(broker.journal_failures(), 2u);

  // After the sink heals, mutations land again and recovery from the
  // journal is bit-identical: the refused operations left no trace on
  // either side.
  sink.healed = true;
  ASSERT_TRUE(broker.reserve(4.0, s2, 20.0));
  const ResourceBroker recovered = ResourceBroker::recover(sink.load());
  EXPECT_EQ(to_line(recovered.snapshot(4.0)), to_line(broker.snapshot(4.0)));
}

TEST(Journal, RefusedCompactionSnapshotRetriesOnTheNextMutation) {
  FaultySink sink;
  sink.fail_after = 3;  // attach snapshot + two reserves land
  ResourceBroker broker = make();
  broker.attach_journal(&sink, /*snapshot_every=*/2, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(broker.reserve(2.0, s2, 20.0));

  // The second mutation crossed snapshot_every, so a compaction snapshot
  // was attempted and refused. That is an optimization loss, not a
  // correctness failure: the mutations themselves are durable.
  EXPECT_EQ(broker.journal_failures(), 1u);
  EXPECT_EQ(sink.refused, 1u);
  EXPECT_EQ(broker.journaled_mutations(), 2u);

  // Once the sink heals, the next mutation retries the snapshot: the
  // journal ends with a fresh self-contained snapshot again.
  sink.healed = true;
  ASSERT_TRUE(broker.reserve(3.0, s3, 5.0));
  const std::vector<JournalRecord> records = sink.load();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().op, JournalOp::kSnapshot);
  EXPECT_EQ(broker.journal_failures(), 1u);  // no new failures
  const ResourceBroker recovered = ResourceBroker::recover(records);
  EXPECT_EQ(to_line(recovered.snapshot(3.0)), to_line(broker.snapshot(3.0)));
}

TEST(Journal, JournalStatusNamesAreStable) {
  EXPECT_STREQ(to_string(JournalStatus::kOk), "ok");
  EXPECT_STREQ(to_string(JournalStatus::kWriteFailed), "write-failed");
}

// --- Recovery and crash–restart -------------------------------------------

TEST(Journal, RecoveryIsBitIdenticalAfterMixedOperations) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 5, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(broker.reserve_leased(2.0, s2, 20.0, 4.0));
  ASSERT_TRUE(broker.reserve_leased(2.5, s3, 5.0, 1.0));
  ASSERT_TRUE(broker.renew_lease(3.0, s2, 4.0));
  broker.release_amount(3.5, s1, 2.5);
  EXPECT_GT(broker.expire_due(4.0, nullptr), 0.0);  // s3 reclaimed
  broker.release(5.0, s1);
  const ResourceBroker recovered = ResourceBroker::recover(journal.records());
  EXPECT_EQ(to_line(recovered.snapshot(6.0)), to_line(broker.snapshot(6.0)));
  EXPECT_EQ(recovered.reserved(), broker.reserved());
  EXPECT_EQ(recovered.held_by(s2), 20.0);
  EXPECT_EQ(recovered.lease_deadline(s2), broker.lease_deadline(s2));
  EXPECT_EQ(recovered.history().size(), broker.history().size());
}

TEST(Journal, CrashLosesStateAndRefusesService) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 30.0));
  broker.crash(2.0);
  EXPECT_FALSE(broker.up());
  // A down broker refuses reservations — unavailable, not empty.
  EXPECT_FALSE(broker.reserve(2.5, s2, 1.0));
  EXPECT_EQ(broker.held_by(s1), 0.0);  // in-memory state is gone
}

TEST(Journal, RestartRecoversFromJournal) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 30.0));
  ASSERT_TRUE(broker.reserve_leased(1.5, s2, 10.0, 5.0));
  const std::string before = to_line(broker.snapshot(2.0));
  broker.crash(2.0);
  broker.restart(3.0, /*lease_grace=*/0.0);
  EXPECT_TRUE(broker.up());
  EXPECT_EQ(broker.held_by(s1), 30.0);
  EXPECT_EQ(broker.held_by(s2), 10.0);
  EXPECT_EQ(to_line(broker.snapshot(2.0)), before);
}

TEST(Journal, RestartGrantsLeaseGraceFromTheRestartInstant) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve_leased(0.0, s1, 10.0, 2.0));  // deadline 2.0
  broker.crash(1.0);
  // The outage outlives the lease; grace is measured from the restart, so
  // the holder still gets a full reconciliation window.
  broker.restart(10.0, /*lease_grace=*/4.0);
  EXPECT_EQ(broker.lease_deadline(s1), 14.0);
  EXPECT_EQ(broker.expire_due(10.0, nullptr), 0.0);
  EXPECT_EQ(broker.held_by(s1), 10.0);
  // A lease already past the grace horizon keeps its own (later) deadline.
  ASSERT_TRUE(broker.renew_lease(10.0, s1, 20.0));  // deadline 30.0
  broker.crash(11.0);
  broker.restart(12.0, 4.0);
  EXPECT_EQ(broker.lease_deadline(s1), 30.0);
}

TEST(Journal, RestartWithoutJournalIsBlank) {
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve(1.0, s1, 30.0));
  broker.crash(2.0);
  broker.restart(3.0, 4.0);  // lose-everything baseline
  EXPECT_TRUE(broker.up());
  EXPECT_EQ(broker.held_by(s1), 0.0);
  EXPECT_EQ(broker.available(), 100.0);
}

TEST(Journal, RestartAfterLostTailRecoversTheSurvivingPrefix) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(broker.reserve(2.0, s2, 20.0));
  ASSERT_EQ(journal.drop_tail(1), 1u);  // the un-fsynced s2 grant is lost
  broker.crash(3.0);
  broker.restart(4.0);
  EXPECT_EQ(broker.held_by(s1), 10.0);
  EXPECT_EQ(broker.held_by(s2), 0.0);  // divergence reconciliation heals
  EXPECT_EQ(broker.reserved(), 10.0);
}

TEST(Journal, RecoverIgnoresOtherResourcesRecords) {
  // Several brokers share one sink; recovery filters by resource id.
  MemoryJournal journal(/*compact_on_snapshot=*/false);
  ResourceBroker a(ResourceId{0}, "cpu", 100.0);
  ResourceBroker b(ResourceId{1}, "bw", 50.0);
  a.attach_journal(&journal, 64, 0.0);
  b.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(a.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(b.reserve(1.5, s1, 20.0));
  const ResourceBroker ra =
      ResourceBroker::recover(filter_journal(journal.records(), ResourceId{0}));
  const ResourceBroker rb =
      ResourceBroker::recover(filter_journal(journal.records(), ResourceId{1}));
  EXPECT_EQ(to_line(ra.snapshot(2.0)), to_line(a.snapshot(2.0)));
  EXPECT_EQ(to_line(rb.snapshot(2.0)), to_line(b.snapshot(2.0)));
  EXPECT_EQ(ra.held_by(s1), 10.0);
  EXPECT_EQ(rb.held_by(s1), 20.0);
}

// --- Bounded expiry log (the take_expired notification channel) -----------

TEST(JournalExpiryLog, CapDropsOldestAndCountsDrops) {
  ResourceBroker broker = make();
  broker.enable_expiry_log(/*capacity=*/2);
  ASSERT_TRUE(broker.reserve_leased(0.0, s1, 5.0, 1.0));
  ASSERT_TRUE(broker.reserve_leased(0.0, s2, 5.0, 1.0));
  ASSERT_TRUE(broker.reserve_leased(0.0, s3, 5.0, 1.0));
  ASSERT_TRUE(broker.reserve_leased(0.0, s4, 5.0, 1.0));
  std::vector<SessionId> expired_now;
  EXPECT_EQ(broker.expire_due(2.0, &expired_now), 20.0);
  EXPECT_EQ(expired_now.size(), 4u);
  // Nobody drained the log between expiries: the cap keeps only the two
  // newest entries and counts what it had to drop.
  std::vector<SessionId> delivered;
  broker.take_expired(&delivered);
  EXPECT_EQ(delivered.size(), 2u);
  EXPECT_EQ(broker.expiry_log_dropped(), 2u);
  // Draining resets the window; the next expiry is delivered again.
  ASSERT_TRUE(broker.reserve_leased(3.0, s1, 5.0, 1.0));
  EXPECT_GT(broker.expire_due(10.0, nullptr), 0.0);
  delivered.clear();
  broker.take_expired(&delivered);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], s1);
  EXPECT_EQ(broker.expiry_log_dropped(), 2u);  // no new drops
}

// --- Lease boundary semantics (the exact-deadline convention) -------------

TEST(LeaseBoundary, ExpiryWinsTheExactDeadlineTie) {
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve_leased(0.0, s1, 10.0, 5.0));  // deadline 5.0
  EXPECT_EQ(broker.expire_due(4.0, nullptr), 0.0);  // strictly before: keeps
  EXPECT_EQ(broker.held_by(s1), 10.0);
  // deadline <= now reclaims: at exactly t = 5.0 the lease is gone.
  std::vector<SessionId> expired;
  EXPECT_EQ(broker.expire_due(5.0, &expired), 10.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], s1);
  EXPECT_EQ(broker.held_by(s1), 0.0);
}

TEST(LeaseBoundary, RenewRacingExpiryAtTheSameTickFails) {
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve_leased(0.0, s1, 10.0, 5.0));  // deadline 5.0
  // renew_lease sweeps due leases first, so a renewal arriving exactly at
  // the deadline finds the holding already reclaimed.
  EXPECT_FALSE(broker.renew_lease(5.0, s1, 5.0));
  EXPECT_EQ(broker.held_by(s1), 0.0);
  // One tick earlier the renewal wins and pushes the deadline out.
  ASSERT_TRUE(broker.reserve_leased(6.0, s2, 10.0, 5.0));  // deadline 11.0
  EXPECT_TRUE(broker.renew_lease(10.0, s2, 5.0));
  EXPECT_EQ(broker.lease_deadline(s2), 15.0);
  EXPECT_EQ(broker.expire_due(11.0, nullptr), 0.0);
  EXPECT_EQ(broker.held_by(s2), 10.0);
}

TEST(LeaseBoundary, RenewNeverShortensTheDeadline) {
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve_leased(0.0, s1, 10.0, 20.0));  // deadline 20.0
  EXPECT_TRUE(broker.renew_lease(1.0, s1, 2.0));  // 3.0 < 20.0: keeps 20.0
  EXPECT_EQ(broker.lease_deadline(s1), 20.0);
}

}  // namespace
}  // namespace qres
