#include "broker/journal.hpp"

#include <cstdio>
#include <fstream>
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
    case JournalStatus::kOpenFailed: return "open-failed";
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
// Text serialization. Format, one record per line:
//
//   <op> t=<time> r=<resource> [s=<session>] [a=<amount>] [l=<lease>]
//
// and for snapshots, the full payload appended as counted lists. Doubles
// use %.17g so parsing reproduces them bit-exactly.

namespace {

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

double parse_double(std::istringstream& in, const char* what) {
  double x = 0.0;
  if (!(in >> x))
    throw std::runtime_error(std::string("journal: bad ") + what);
  return x;
}

std::uint64_t parse_u64(std::istringstream& in, const char* what) {
  std::uint64_t x = 0;
  if (!(in >> x))
    throw std::runtime_error(std::string("journal: bad ") + what);
  return x;
}

}  // namespace

std::string to_line(const JournalRecord& record) {
  std::ostringstream out;
  out << to_string(record.op) << ' ' << num(record.time) << ' '
      << (record.resource.valid() ? record.resource.value()
                                  : ResourceId::kInvalid);
  if (record.op == JournalOp::kSnapshot) {
    QRES_REQUIRE(!record.name.empty() &&
                     record.name.find_first_of(" \t\n") == std::string::npos,
                 "journal: snapshot name must be non-empty, no whitespace");
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

JournalRecord parse_line(const std::string& line) {
  std::istringstream in(line);
  std::string op_name;
  if (!(in >> op_name)) throw std::runtime_error("journal: empty record");
  JournalRecord record;
  bool known = false;
  for (const JournalOp op :
       {JournalOp::kSnapshot, JournalOp::kReserve, JournalOp::kReserveLeased,
        JournalOp::kRelease, JournalOp::kReleaseAmount,
        JournalOp::kRenewLease, JournalOp::kExpire, JournalOp::kRestart,
        JournalOp::kReplyCache}) {
    if (op_name == to_string(op)) {
      record.op = op;
      known = true;
      break;
    }
  }
  if (!known) throw std::runtime_error("journal: unknown op '" + op_name + "'");
  record.time = parse_double(in, "time");
  record.resource =
      ResourceId{static_cast<std::uint32_t>(parse_u64(in, "resource"))};
  if (record.op == JournalOp::kSnapshot) {
    if (!(in >> record.name))
      throw std::runtime_error("journal: bad snapshot name");
    record.capacity = parse_double(in, "capacity");
    record.alpha_window = parse_double(in, "alpha_window");
    record.history_keep = parse_double(in, "history_keep");
    record.alpha_mode =
        static_cast<AlphaMode>(parse_u64(in, "alpha_mode"));
    record.expiry_log_enabled = parse_u64(in, "expiry_log_enabled") != 0;
    record.expiry_log_capacity = parse_u64(in, "expiry_log_capacity");
    record.reserved = parse_double(in, "reserved");
    const std::uint64_t holdings = parse_u64(in, "holdings count");
    for (std::uint64_t i = 0; i < holdings; ++i) {
      const auto session =
          static_cast<std::uint32_t>(parse_u64(in, "holding session"));
      record.holdings.push_back(
          {session, parse_double(in, "holding amount")});
    }
    const std::uint64_t leases = parse_u64(in, "lease count");
    for (std::uint64_t i = 0; i < leases; ++i) {
      const auto session =
          static_cast<std::uint32_t>(parse_u64(in, "lease session"));
      record.lease_deadlines.push_back(
          {session, parse_double(in, "lease deadline")});
    }
    const std::uint64_t history = parse_u64(in, "history count");
    for (std::uint64_t i = 0; i < history; ++i) {
      const double time = parse_double(in, "history time");
      record.history.push_back({time, parse_double(in, "history value")});
    }
    return record;
  }
  if (record.op == JournalOp::kReplyCache) {
    record.request_id = parse_u64(in, "request id");
    record.grouped = parse_u64(in, "grouped flag") != 0;
    const std::uint64_t bytes = parse_u64(in, "reply byte count");
    std::string hex;
    if (bytes > 0 && !(in >> hex))
      throw std::runtime_error("journal: bad reply bytes");
    if (hex.size() != bytes * 2)
      throw std::runtime_error("journal: reply hex length mismatch");
    record.reply.reserve(bytes);
    const auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      throw std::runtime_error("journal: bad reply hex digit");
    };
    for (std::uint64_t i = 0; i < bytes; ++i)
      record.reply.push_back(static_cast<std::uint8_t>(
          (nibble(hex[2 * i]) << 4) | nibble(hex[2 * i + 1])));
    return record;
  }
  record.session =
      SessionId{static_cast<std::uint32_t>(parse_u64(in, "session"))};
  record.amount = parse_double(in, "amount");
  record.lease = parse_double(in, "lease");
  return record;
}

// ---------------------------------------------------------------------------
// FileJournal

FileJournal::FileJournal(std::string path, bool truncate)
    : path_(std::move(path)) {
  std::ofstream file(path_, truncate ? std::ios::trunc : std::ios::app);
  if (!file)
    throw std::runtime_error("FileJournal: cannot open " + path_);
}

JournalStatus FileJournal::append(const JournalRecord& record) {
  MutexLock lock(mutex_);
  std::ofstream file(path_, std::ios::app);
  if (!file) return JournalStatus::kOpenFailed;
  file << to_line(record) << '\n';
  // qres-lint: allow(unchecked-status): ofstream::flush (name-collides with
  // ReplicatedBroker::flush) returns the stream; durability is checked via
  // the stream state on the next line
  file.flush();
  // A failed flush means the line may be torn or absent on disk: the
  // record is not durable and the counter must not claim it is. The
  // caller (ResourceBroker::journal_append) fails the operation.
  if (!file) return JournalStatus::kWriteFailed;
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
  std::ifstream file(path);
  if (!file)
    throw std::runtime_error("FileJournal: cannot open " + path);
  std::vector<JournalRecord> records;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    try {
      records.push_back(parse_line(line));
    } catch (const std::exception& error) {
      throw std::runtime_error(path + ":" + std::to_string(line_number) +
                               ": " + error.what());
    }
  }
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
