#include "broker/journal.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "broker/resource_broker.hpp"  // AlphaMode enumerators
#include "util/assert.hpp"

namespace qres {

const char* to_string(JournalOp op) noexcept {
  switch (op) {
    case JournalOp::kSnapshot: return "snapshot";
    case JournalOp::kReserve: return "reserve";
    case JournalOp::kReserveLeased: return "reserve-leased";
    case JournalOp::kRelease: return "release";
    case JournalOp::kReleaseAmount: return "release-amount";
    case JournalOp::kRenewLease: return "renew-lease";
    case JournalOp::kExpire: return "expire";
    case JournalOp::kRestart: return "restart";
    case JournalOp::kReplyCache: return "reply-cache";
  }
  return "?";
}

const char* to_string(JournalStatus status) noexcept {
  switch (status) {
    case JournalStatus::kOk: return "ok";
    case JournalStatus::kWriteFailed: return "write-failed";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// MemoryJournal

JournalStatus MemoryJournal::append(const JournalRecord& record) {
  ++appended_;
  if (record.op == JournalOp::kSnapshot) {
    ++snapshots_;
    if (compact_) {
      // Compaction must not lose the exactly-once replay cache: the
      // snapshot captures broker state but not the dedup cache, which is
      // rebuilt from kReplyCache records after a restart
      // (BrokerService::rebuild_dedup). Dropping them with the prefix
      // means a retried request re-executes against restored holdings — a
      // double grant (found by qres_mc on the `crashy` topology). Retain
      // the newest reply_cache_keep_ of them ahead of the snapshot
      // barrier. Compaction runs in place: the vector keeps its capacity,
      // so a journal that snapshots every few records does not churn
      // large allocations.
      std::size_t replies = 0;
      for (const JournalRecord& kept : records_)
        if (kept.op == JournalOp::kReplyCache) ++replies;
      std::size_t too_old =
          replies > reply_cache_keep_ ? replies - reply_cache_keep_ : 0;
      auto out = records_.begin();
      for (auto it = records_.begin(); it != records_.end(); ++it) {
        if (it->op != JournalOp::kReplyCache) continue;
        if (too_old > 0) {
          --too_old;
          continue;
        }
        // Behind the snapshot barrier the replies are fsynced state;
        // grouping with their (now compacted) mutation records no longer
        // applies.
        it->grouped = false;
        if (out != it) *out = std::move(*it);
        ++out;
      }
      compacted_away_ += static_cast<std::uint64_t>(records_.end() - out);
      records_.erase(out, records_.end());
    }
  }
  records_.push_back(record);
  return JournalStatus::kOk;
}

std::size_t MemoryJournal::drop_tail(std::size_t count) {
  std::size_t dropped = 0;
  while (dropped < count && !records_.empty() &&
         records_.back().op != JournalOp::kSnapshot) {
    if (records_.back().grouped) {
      // A grouped reply is fsynced together with the mutation record(s)
      // of its execution: drop the whole pair or keep it. Stopping early
      // (keeping more) is always a legal crash outcome; splitting the
      // pair is not — a kept mutation with a lost reply is the state
      // where a retried request re-executes and double-grants.
      if (count - dropped < 2 || records_.size() < 2 ||
          records_[records_.size() - 2].op == JournalOp::kSnapshot)
        break;
      records_.pop_back();
      records_.pop_back();
      dropped += 2;
      continue;
    }
    records_.pop_back();
    ++dropped;
  }
  return dropped;
}

// ---------------------------------------------------------------------------
// Binary layout (see record_fields in journal.hpp).

namespace {

void fields(auto& io, codec::Is<JournalRecord> auto& r) {
  io.enumeration(r.op, JournalOp::kReplyCache);
  io.f64(r.time);
  io.id(r.resource);
  if (r.op == JournalOp::kSnapshot) {
    const auto session_value = [&io](auto& p) {
      io.u32(p.first);
      io.f64(p.second);
    };
    io.bytes(r.name);
    io.f64(r.capacity);
    io.f64(r.alpha_window);
    io.f64(r.history_keep);
    io.enumeration(r.alpha_mode, AlphaMode::kReportBased);
    io.flag(r.expiry_log_enabled);
    io.u64(r.expiry_log_capacity);
    io.f64(r.reserved);
    io.list(r.holdings, session_value);
    io.list(r.lease_deadlines, session_value);
    io.list(r.history, [&io](auto& p) {
      io.f64(p.first);
      io.f64(p.second);
    });
  } else if (r.op == JournalOp::kReplyCache) {
    io.u64(r.request_id);
    io.flag(r.grouped);
    io.bytes(r.reply);
  } else {
    io.id(r.session);
    io.f64(r.amount);
    io.f64(r.lease);
  }
}

/// FileJournal record framing: u32 payload length + u64 payload checksum.
constexpr std::size_t kRecordHeaderBytes = 12;

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

}  // namespace

void record_fields(codec::Writer& io, const JournalRecord& record) {
  fields(io, record);
}

void record_fields(codec::Reader& io, JournalRecord& record) {
  fields(io, record);
}

// ---------------------------------------------------------------------------
// Text form, one record per line:
//
//   <op> <time> <resource> [<session> <amount> <lease>]
//
// and for snapshots and reply-cache entries their payload as counted
// lists. Doubles use %.17g, so equal lines mean bit-identical values.

std::string to_line(const JournalRecord& record) {
  std::ostringstream out;
  out << to_string(record.op) << ' ' << num(record.time) << ' '
      << (record.resource.valid() ? record.resource.value()
                                  : ResourceId::kInvalid);
  if (record.op == JournalOp::kSnapshot) {
    out << ' ' << record.name << ' ' << num(record.capacity) << ' '
        << num(record.alpha_window) << ' ' << num(record.history_keep) << ' '
        << static_cast<unsigned>(record.alpha_mode) << ' '
        << (record.expiry_log_enabled ? 1 : 0) << ' '
        << record.expiry_log_capacity << ' ' << num(record.reserved);
    out << ' ' << record.holdings.size();
    for (const auto& [session, amount] : record.holdings)
      out << ' ' << session << ' ' << num(amount);
    out << ' ' << record.lease_deadlines.size();
    for (const auto& [session, deadline] : record.lease_deadlines)
      out << ' ' << session << ' ' << num(deadline);
    out << ' ' << record.history.size();
    for (const auto& [time, value] : record.history)
      out << ' ' << num(time) << ' ' << num(value);
    return out.str();
  }
  if (record.op == JournalOp::kReplyCache) {
    static const char* digits = "0123456789abcdef";
    out << ' ' << record.request_id << ' ' << (record.grouped ? 1 : 0) << ' '
        << record.reply.size() << ' ';
    for (const std::uint8_t byte : record.reply)
      out << digits[byte >> 4] << digits[byte & 0xf];
    return out.str();
  }
  out << ' ' << record.session.value() << ' ' << num(record.amount) << ' '
      << num(record.lease);
  return out.str();
}

// ---------------------------------------------------------------------------
// FileJournal

namespace {

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file)
    throw std::runtime_error("FileJournal: cannot open " + path);
  return {std::istreambuf_iterator<char>(file), {}};
}

/// Decodes the records of a journal file's bytes into `records` and
/// returns where the last intact record ends. A final record that is
/// short or fails its checksum is torn and ends the scan; a bad record
/// with bytes after it throws, naming its offset.
std::size_t scan_records(const std::vector<std::uint8_t>& bytes,
                         const std::string& path,
                         std::vector<JournalRecord>* records) {
  std::size_t pos = 0;
  while (bytes.size() - pos >= kRecordHeaderBytes) {
    const auto length = codec::load_le<std::uint32_t>(&bytes[pos]);
    const std::size_t end = pos + kRecordHeaderBytes + length;
    if (end > bytes.size()) break;  // torn: the record runs past the end
    const std::uint8_t* payload = &bytes[pos + kRecordHeaderBytes];
    const bool intact = codec::fnv1a64(payload, length) ==
                        codec::load_le<std::uint64_t>(&bytes[pos + 4]);
    if (!intact && end == bytes.size()) break;  // torn last record
    JournalRecord record;
    codec::Reader r(payload, length);
    if (intact) record_fields(r, record);
    if (!intact || !r.done())
      throw std::runtime_error(path + ": corrupt journal record at byte " +
                               std::to_string(pos));
    records->push_back(std::move(record));
    pos = end;
  }
  return pos;
}

}  // namespace

FileJournal::FileJournal(std::string path, bool truncate)
    : path_(std::move(path)) {
  if (truncate) {
    // Truncate through a handle of its own: on ext4 (auto_da_alloc),
    // closing the handle that truncated a file flushes what was written
    // through it, and the next truncate of the path waits for that flush,
    // which made re-creating a journal about three times slower.
    std::FILE* fresh = std::fopen(path_.c_str(), "wb");
    if (fresh == nullptr)
      throw std::runtime_error("FileJournal: cannot open " + path_);
    std::fclose(fresh);
  } else if (std::filesystem::exists(path_)) {
    // A record appended after a torn one would leave the torn bytes
    // mid-file, where read_file takes them for corruption: cut the file
    // back to its last intact record first.
    const std::vector<std::uint8_t> bytes = file_bytes(path_);
    std::vector<JournalRecord> records;
    const std::size_t intact = scan_records(bytes, path_, &records);
    if (intact < bytes.size()) std::filesystem::resize_file(path_, intact);
  }
  file_.reset(std::fopen(path_.c_str(), "ab"));
  if (!file_) throw std::runtime_error("FileJournal: cannot open " + path_);
}

JournalStatus FileJournal::append(const JournalRecord& record) {
  MutexLock lock(mutex_);
  buffer_.assign(kRecordHeaderBytes, 0);
  codec::Writer w(&buffer_);
  record_fields(w, record);
  const std::size_t length = buffer_.size() - kRecordHeaderBytes;
  QRES_REQUIRE(length <= UINT32_MAX, "FileJournal: record exceeds 4 GiB");
  codec::store_le(buffer_.data(), static_cast<std::uint32_t>(length));
  codec::store_le(buffer_.data() + 4,
                  codec::fnv1a64(buffer_.data() + kRecordHeaderBytes, length));
  // A short write or a failed flush means the record may be torn or
  // absent in the file: it is not written and the counter must not claim
  // it is. The caller (ResourceBroker::journal_append) fails the
  // operation.
  if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_.get()) !=
          buffer_.size() ||
      std::fflush(file_.get()) != 0)
    return JournalStatus::kWriteFailed;
  ++appended_;
  return JournalStatus::kOk;
}

std::uint64_t FileJournal::appended() const {
  MutexLock lock(mutex_);
  return appended_;
}

std::vector<JournalRecord> FileJournal::load() const {
  MutexLock lock(mutex_);
  return read_file(path_);
}

std::vector<JournalRecord> FileJournal::read_file(const std::string& path) {
  std::vector<JournalRecord> records;
  scan_records(file_bytes(path), path, &records);
  return records;
}

std::vector<JournalRecord> filter_journal(
    const std::vector<JournalRecord>& records, ResourceId resource) {
  std::vector<JournalRecord> filtered;
  for (const JournalRecord& record : records)
    if (record.resource == resource) filtered.push_back(record);
  return filtered;
}

}  // namespace qres
