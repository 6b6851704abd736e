#include "obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace dmis::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

/// Per-thread event storage. The owning thread is the only writer; it
/// publishes each slot with a release store on `count`, so a concurrent
/// exporter reading `count` with acquire sees fully written events.
/// Buffers never wrap — a full buffer drops (and counts) new events —
/// so a published slot is immutable and export needs no lock.
struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(size_t capacity) : slots(capacity) {}

  std::vector<TraceEvent> slots;
  std::atomic<size_t> count{0};
};

namespace {

/// Recycles buffers across short-lived threads (prefetch restarts every
/// epoch): on thread exit the buffer goes back to the tracer's free
/// list and the next new thread appends to it instead of allocating
/// another multi-MB ring.
struct TlsBufferHandle {
  Tracer::ThreadBuffer* buffer = nullptr;
  std::vector<Tracer::ThreadBuffer*>* free_list = nullptr;
  std::mutex* mutex = nullptr;

  ~TlsBufferHandle() {
    if (buffer == nullptr) return;
    const std::lock_guard<std::mutex> lock(*mutex);
    free_list->push_back(buffer);
  }
};

thread_local TlsBufferHandle tls_handle;

void fill_event(TraceEvent& ev, const char* name, int64_t ts_us,
                int64_t dur_us, bool instant,
                std::initializer_list<TraceArg> args) {
  ev.name = name;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.tid = thread_tag();
  ev.instant = instant;
  ev.n_args = 0;
  for (const TraceArg& a : args) {
    if (ev.n_args == TraceEvent::kMaxArgs) break;
    ev.args[ev.n_args++] = a;
  }
}

void json_escape(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    switch (*s) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << *s;
    }
  }
}

}  // namespace

Tracer::Tracer() = default;

bool Tracer::write_trace_to_env_path_once() {
  const char* path = std::getenv("DMIS_TRACE");
  if (path == nullptr || *path == '\0') return false;
  static std::atomic<bool> written{false};
  if (written.exchange(true, std::memory_order_acq_rel)) return false;
  Tracer::instance().write_chrome_trace(std::string(path));
  return true;
}

Tracer& Tracer::instance() {
  // Leaked on purpose so the DMIS_TRACE atexit dump (and TLS buffer
  // handles of late-exiting threads) never touch a destroyed tracer.
  static Tracer* tracer = [] {
    auto* t = new Tracer();
    if (const char* path = std::getenv("DMIS_TRACE");
        path != nullptr && *path != '\0') {
      t->enable();
      std::atexit([] { Tracer::write_trace_to_env_path_once(); });
    }
    return t;
  }();
  return *tracer;
}

int64_t Tracer::now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               t0)
      .count();
}

void Tracer::enable() {
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::set_buffer_capacity(size_t events) {
  DMIS_CHECK(events > 0, "trace buffer capacity must be > 0");
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = events;
}

Tracer::ThreadBuffer* Tracer::buffer_for_this_thread() {
  if (tls_handle.buffer != nullptr) return tls_handle.buffer;
  const std::lock_guard<std::mutex> lock(mutex_);
  ThreadBuffer* buf;
  if (!free_.empty()) {
    buf = free_.back();
    free_.pop_back();
  } else {
    buffers_.push_back(std::make_unique<ThreadBuffer>(capacity_));
    buf = buffers_.back().get();
  }
  tls_handle.buffer = buf;
  tls_handle.free_list = &free_;
  tls_handle.mutex = &mutex_;
  return buf;
}

void Tracer::record_span(const char* name, int64_t ts_us, int64_t dur_us,
                         std::initializer_list<TraceArg> args) {
  if (!trace_enabled()) return;
  ThreadBuffer& buf = *buffer_for_this_thread();
  const size_t idx = buf.count.load(std::memory_order_relaxed);
  if (idx >= buf.slots.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  fill_event(buf.slots[idx], name, ts_us, dur_us, /*instant=*/false, args);
  buf.count.store(idx + 1, std::memory_order_release);
}

void Tracer::record_instant(const char* name,
                            std::initializer_list<TraceArg> args) {
  if (!trace_enabled()) return;
  ThreadBuffer& buf = *buffer_for_this_thread();
  const size_t idx = buf.count.load(std::memory_order_relaxed);
  if (idx >= buf.slots.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  fill_event(buf.slots[idx], name, now_us(), 0, /*instant=*/true, args);
  buf.count.store(idx + 1, std::memory_order_release);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : buffers_) {
    const size_t n = buf->count.load(std::memory_order_acquire);
    out.insert(out.end(), buf->slots.begin(),
               buf->slots.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

int64_t Tracer::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Ownerless (free-listed) buffers are deallocated outright so a
  // follow-up set_buffer_capacity() actually applies to new threads;
  // buffers still owned by a live thread just rewind.
  for (ThreadBuffer* dead : free_) {
    std::erase_if(buffers_, [dead](const std::unique_ptr<ThreadBuffer>& b) {
      return b.get() == dead;
    });
  }
  free_.clear();
  for (const auto& buf : buffers_) {
    buf->count.store(0, std::memory_order_relaxed);
  }
  dropped_.store(0, std::memory_order_relaxed);
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> evs = events();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : evs) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"";
    json_escape(os, ev.name);
    os << "\",\"cat\":\"dmis\",\"ph\":\"" << (ev.instant ? 'i' : 'X')
       << "\",\"pid\":1,\"tid\":" << ev.tid << ",\"ts\":" << ev.ts_us;
    if (ev.instant) {
      os << ",\"s\":\"t\"";
    } else {
      os << ",\"dur\":" << ev.dur_us;
    }
    if (ev.n_args > 0) {
      os << ",\"args\":{";
      for (int i = 0; i < ev.n_args; ++i) {
        if (i > 0) os << ',';
        os << '"';
        json_escape(os, ev.args[i].key);
        os << "\":" << ev.args[i].value;
      }
      os << '}';
    }
    os << '}';
  }
  os << "]}\n";
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  DMIS_CHECK_IO(os.good(), "cannot open '" << path << "' for writing");
  write_chrome_trace(os);
  DMIS_CHECK_IO(os.good(), "write failed for '" << path << "'");
}

namespace {
// Force the singleton (and with it the DMIS_TRACE env handling —
// enable + atexit export) to construct at program start. Span guards
// check only the global armed flag and would otherwise never touch
// the instance in a process that records no events explicitly.
const bool g_tracer_bootstrapped = (Tracer::instance(), true);
}  // namespace

SpanGuard::~SpanGuard() {
  if (begin_us_ < 0) return;
  // Re-check: if tracing was disabled mid-span, drop the event.
  if (!trace_enabled()) return;
  const int64_t end_us = Tracer::now_us();
  Tracer& tracer = Tracer::instance();
  // Rebuild the arg list; initializer_list cannot be stored.
  switch (n_args_) {
    case 0:
      tracer.record_span(name_, begin_us_, end_us - begin_us_);
      break;
    case 1:
      tracer.record_span(name_, begin_us_, end_us - begin_us_, {args_[0]});
      break;
    case 2:
      tracer.record_span(name_, begin_us_, end_us - begin_us_,
                         {args_[0], args_[1]});
      break;
    case 3:
      tracer.record_span(name_, begin_us_, end_us - begin_us_,
                         {args_[0], args_[1], args_[2]});
      break;
    default:
      tracer.record_span(name_, begin_us_, end_us - begin_us_,
                         {args_[0], args_[1], args_[2], args_[3]});
      break;
  }
}

}  // namespace dmis::obs
