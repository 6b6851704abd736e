// Scoped-span tracer with Chrome trace-event JSON export.
//
// The tracer is the opt-in half of the telemetry layer. Disabled (the
// default) it costs one relaxed atomic load per DMIS_TRACE_SPAN — the
// same disarmed-fast-path pattern as common::FaultInjector — so spans
// are safe to leave in hot paths. Enabled, each span records a
// begin-timestamp + duration event into a per-thread ring buffer:
// recording takes no locks (the owning thread is the only writer; a
// release store on the buffer's count publishes each event).
//
//   void Communicator::all_reduce_impl(std::span<float> data, float scale) {
//     DMIS_TRACE_SPAN("comm.allreduce",
//                     {{"bytes", static_cast<int64_t>(4 * data.size())}});
//     ...
//   }
//
// write_chrome_trace() emits the standard trace-event JSON object
// ({"traceEvents":[...]}) loadable in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing. Setting DMIS_TRACE=<path> enables tracing at
// startup and writes the trace there at process exit. Buffers hold
// 65536 events per thread (set_buffer_capacity() changes it); when one
// fills, further events from that thread are dropped (and counted)
// rather than overwriting history, which keeps export race-free.
//
// Span names and arg keys must be string literals (or otherwise outlive
// the process): events store the pointers, not copies.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dmis::obs {

/// One span/instant argument. Values are integral (bytes, counts, ids);
/// keys must point at storage that outlives the tracer (literals).
struct TraceArg {
  const char* key;
  int64_t value;
};

struct TraceEvent {
  static constexpr int kMaxArgs = 4;

  const char* name = nullptr;  ///< static-lifetime span name
  int64_t ts_us = 0;           ///< begin, microseconds since process start
  int64_t dur_us = 0;          ///< duration; 0-length spans allowed
  int32_t tid = 0;             ///< dmis::thread_tag() of the recording thread
  bool instant = false;        ///< true -> "i" phase (no duration)
  int n_args = 0;
  TraceArg args[kMaxArgs] = {};
};

namespace detail {
/// Global armed flag. Constant-initialized so the disarmed check never
/// races static construction.
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True while the tracer records. Single relaxed load.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

class Tracer {
 public:
  /// Per-thread event storage (opaque; public only so the thread-local
  /// recycling handle in trace.cpp can hold a pointer).
  struct ThreadBuffer;

  /// Process-wide tracer (never destroyed; see MetricsRegistry).
  static Tracer& instance();

  /// Microseconds since process start (steady clock).
  static int64_t now_us();

  void enable();
  void disable();

  /// Caps future per-thread buffers at `events` entries (existing
  /// buffers keep their size).
  void set_buffer_capacity(size_t events);

  /// Records a complete span with an explicit begin/duration — for
  /// spans whose begin and end happen on different threads (queue
  /// wait). RAII spans use DMIS_TRACE_SPAN instead. No-op when disabled.
  void record_span(const char* name, int64_t ts_us, int64_t dur_us,
                   std::initializer_list<TraceArg> args = {});

  /// Records a zero-duration instant event. No-op when disabled.
  void record_instant(const char* name,
                      std::initializer_list<TraceArg> args = {});

  /// Copies out every recorded event (all threads), in recording order
  /// per thread. Exact only when recording threads have quiesced.
  std::vector<TraceEvent> events() const;

  /// Events discarded because a thread's buffer was full.
  int64_t dropped() const;

  /// Forgets all recorded events and the dropped count, and frees
  /// buffers whose owning thread has exited. Call only while no other
  /// thread is recording (test isolation).
  void clear();

  /// Chrome trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}.
  void write_chrome_trace(std::ostream& os) const;
  void write_chrome_trace(const std::string& path) const;

  /// Writes the trace to the DMIS_TRACE path, at most once per process
  /// (shared guard between the atexit hook and the SIGINT/SIGTERM
  /// handlers). Returns true if this call wrote the file, false if it
  /// already happened or DMIS_TRACE is unset. Not async-signal-safe.
  static bool write_trace_to_env_path_once();

 private:
  Tracer();
  ThreadBuffer* buffer_for_this_thread();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // never shrinks
  std::vector<ThreadBuffer*> free_;  // buffers whose owner thread exited
  std::atomic<int64_t> dropped_{0};
  size_t capacity_ = 65536;  // events per new thread buffer
};

/// RAII span: stamps the begin time at construction, records the event
/// at destruction. Captures the enabled flag once, so a span that began
/// disarmed stays free even if tracing flips on mid-scope.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) : name_(name) {
    if (trace_enabled()) begin_us_ = Tracer::now_us();
  }
  SpanGuard(const char* name, std::initializer_list<TraceArg> args)
      : name_(name) {
    if (trace_enabled()) {
      begin_us_ = Tracer::now_us();
      for (const TraceArg& a : args) {
        if (n_args_ == TraceEvent::kMaxArgs) break;
        args_[n_args_++] = a;
      }
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard();

 private:
  const char* name_;
  int64_t begin_us_ = -1;  ///< -1 -> disarmed at construction
  int n_args_ = 0;
  TraceArg args_[TraceEvent::kMaxArgs] = {};
};

}  // namespace dmis::obs

#define DMIS_OBS_CONCAT_INNER(a, b) a##b
#define DMIS_OBS_CONCAT(a, b) DMIS_OBS_CONCAT_INNER(a, b)

/// DMIS_TRACE_SPAN("name") or
/// DMIS_TRACE_SPAN("name", {{"key", int64_value}, ...}) — opens a span
/// covering the rest of the enclosing scope.
#define DMIS_TRACE_SPAN(...)                                    \
  ::dmis::obs::SpanGuard DMIS_OBS_CONCAT(dmis_trace_span_,      \
                                         __LINE__)(__VA_ARGS__)
