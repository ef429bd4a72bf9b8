#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>

namespace {

std::atomic<bool> g_count_allocs{false};
thread_local std::uint64_t t_allocs = 0;

}  // namespace

// Global replacements: every heap allocation in the bench binary (library
// code included) passes through here. new[] and the nothrow forms forward
// to these in libstdc++.
void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC reports free() inside a replacement operator delete as a mismatch;
// here it pairs with the malloc() above by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace qres::e2e {

namespace {

struct ThreadTrace {
  std::uint64_t thread = 0;
  std::uint64_t taken = 0;          ///< spans already drained (id offset)
  std::vector<SpanRecord> spans;    ///< begin order; open ones included
  std::vector<std::uint32_t> open;  ///< indices of open spans, innermost last
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;  // guarded by g_mutex

ThreadTrace& local_trace() {
  thread_local ThreadTrace* trace = nullptr;
  if (trace == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_threads.push_back(std::make_unique<ThreadTrace>());
    trace = g_threads.back().get();
    trace->thread = g_threads.size() - 1;
  }
  return *trace;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t open_span(ThreadTrace& trace, SpanName name,
                        std::uint32_t session, std::uint64_t parent) {
  const auto index = static_cast<std::uint32_t>(trace.spans.size());
  SpanRecord record;
  record.id = (trace.thread << 32) | (trace.taken + index);
  record.parent = parent;
  record.session = session;
  record.name = name;
  record.allocs = static_cast<std::uint32_t>(t_allocs);
  trace.open.push_back(index);
  record.start_ns = now_ns();
  trace.spans.push_back(record);
  return record.id;
}

}  // namespace

const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::kEstablish: return "establish";
    case SpanName::kBatch: return "sim.batch";
    case SpanName::kSnapshot: return "proxy.snapshot";
    case SpanName::kPlan: return "proxy.plan";
    case SpanName::kCorePlan: return "core.plan";
    case SpanName::kCommit: return "proxy.commit";
    case SpanName::kTeardown: return "proxy.teardown";
    case SpanName::kServerQuery: return "rpc.server.query";
    case SpanName::kServerReserve: return "rpc.server.reserve";
    case SpanName::kServerRelease: return "rpc.server.release";
    case SpanName::kJournalAppend: return "broker.journal_append";
    case SpanName::kShip: return "broker.ship";
  }
  return "?";
}

void set_alloc_counting(bool on) noexcept {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t begin_span(SpanName name) {
  ThreadTrace& trace = local_trace();
  if (trace.open.empty()) return open_span(trace, name, 0, kNoSpan);
  const SpanRecord& outer = trace.spans[trace.open.back()];
  return open_span(trace, name, outer.session, outer.id);
}

std::uint64_t begin_span(SpanName name, std::uint32_t session,
                         std::uint64_t parent) {
  return open_span(local_trace(), name, session, parent);
}

void end_span(std::uint32_t count) {
  const std::int64_t end = now_ns();
  ThreadTrace& trace = local_trace();
  if (trace.open.empty()) throw std::logic_error("end_span: no open span");
  SpanRecord& record = trace.spans[trace.open.back()];
  trace.open.pop_back();
  record.end_ns = end;
  record.count = count;
  record.allocs = static_cast<std::uint32_t>(t_allocs) - record.allocs;
}

std::vector<SpanRecord> take_spans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<SpanRecord> out;
  for (const auto& trace : g_threads) {
    if (!trace->open.empty())
      throw std::logic_error("take_spans: a span is still open");
    out.insert(out.end(), trace->spans.begin(), trace->spans.end());
    trace->taken += trace->spans.size();
    trace->spans.clear();
  }
  return out;
}

bool write_spans(const std::vector<SpanRecord>& spans,
                 const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::int64_t origin = 0;
  if (!spans.empty())
    origin = std::min_element(spans.begin(), spans.end(),
                              [](const SpanRecord& a, const SpanRecord& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  for (const SpanRecord& s : spans) {
    std::fprintf(file, "{\"id\":%llu,\"parent\":",
                 static_cast<unsigned long long>(s.id));
    if (s.parent == kNoSpan)
      std::fputs("null", file);
    else
      std::fprintf(file, "%llu", static_cast<unsigned long long>(s.parent));
    std::fprintf(file,
                 ",\"name\":\"%s\",\"thread\":%llu,\"session\":%u,"
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"allocs\":%u,"
                 "\"count\":%u}\n",
                 to_string(s.name),
                 static_cast<unsigned long long>(s.id >> 32), s.session,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - origin) * 1e-3, s.allocs,
                 s.count);
  }
  return std::fclose(file) == 0;
}

}  // namespace qres::e2e
