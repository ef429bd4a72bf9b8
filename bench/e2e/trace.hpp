// Span tracing and heap-allocation counting for qres_bench.
//
// A span records one call into a layer: its name, wall-clock start and
// end, the span that caused it, the session it ran for, and how many heap
// allocations the calling thread made while it was open. Spans go into
// per-thread buffers (no locking on the hot path) and are drained by the
// benchmark's main thread between phases of a round, when no other thread
// is recording.
//
// Allocation counting replaces the global operator new of the bench
// binary. It is off except in traced rounds; while off, every allocation
// pays one relaxed atomic load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qres::e2e {

enum class SpanName : std::uint8_t {
  kEstablish,      ///< one closed-loop establishment (root)
  kBatch,          ///< one establish batch (root, flash_100x)
  kSnapshot,       ///< SessionCoordinator::snapshot_for_planning
  kPlan,           ///< SessionCoordinator::plan_on_snapshot (QRG + planner)
  kCorePlan,       ///< IPlanner::plan
  kCommit,         ///< SessionCoordinator::commit_planned
  kTeardown,       ///< SessionCoordinator::teardown
  kServerQuery,    ///< BrokerService turnaround of a QueryRequest frame
  kServerReserve,  ///< ... of a ReserveRequest frame
  kServerRelease,  ///< ... of a ReleaseRequest frame
  kJournalAppend,  ///< IJournalSink::append on a link broker's FileJournal
  kShip,           ///< IShipTransport::ship of one replication batch
};
inline constexpr std::size_t kSpanNameCount =
    static_cast<std::size_t>(SpanName::kShip) + 1;

const char* to_string(SpanName name) noexcept;

inline constexpr std::uint64_t kNoSpan = ~std::uint64_t{0};

struct SpanRecord {
  std::uint64_t id = kNoSpan;      ///< (thread << 32) | index in its buffer
  std::uint64_t parent = kNoSpan;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t session = 0;
  /// Work count of the call: QRG edges for core.plan, bytes for a
  /// journal append; 0 elsewhere.
  std::uint32_t count = 0;
  std::uint32_t allocs = 0;  ///< heap allocations while open, this thread
  SpanName name = SpanName::kEstablish;

  double duration_us() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-3;
  }
};

/// Turns heap-allocation counting on or off for every thread.
void set_alloc_counting(bool on) noexcept;

/// Opens a span on the calling thread. Without an explicit parent the
/// span nests under the innermost span open on this thread and inherits
/// its session.
std::uint64_t begin_span(SpanName name);
std::uint64_t begin_span(SpanName name, std::uint32_t session,
                         std::uint64_t parent);
/// Closes the innermost span open on the calling thread.
void end_span(std::uint32_t count = 0);

/// RAII form of begin_span/end_span.
class Span {
 public:
  explicit Span(SpanName name) { begin_span(name); }
  Span(SpanName name, std::uint32_t session, std::uint64_t parent) {
    begin_span(name, session, parent);
  }
  ~Span() { end_span(count_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_count(std::size_t count) noexcept {
    count_ = static_cast<std::uint32_t>(count);
  }

 private:
  std::uint32_t count_ = 0;
};

/// Moves every closed span out of every thread's buffer. Callers must
/// ensure no other thread is recording (between batches, or after the
/// round's thread pool has been joined).
std::vector<SpanRecord> take_spans();

/// Writes spans as JSON lines (times in microseconds from the first
/// span's start). Returns false when the file cannot be written.
bool write_spans(const std::vector<SpanRecord>& spans,
                 const std::string& path);

}  // namespace qres::e2e
