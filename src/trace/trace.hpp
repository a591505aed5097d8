#pragma once

/// \file trace.hpp
/// Structured observability for the whole platform: RAII spans collected
/// into per-thread ring buffers plus a named counter/gauge registry
/// (docs/OBSERVABILITY.md). Tracing is compiled in everywhere and
/// enabled at runtime (`--trace` / `--metrics` on the CLIs); while
/// disabled every instrumentation point costs one relaxed atomic load
/// and a predictable branch, so the hot paths stay within noise of an
/// uninstrumented build.
///
/// Collection model: each thread owns a fixed-capacity ring buffer of
/// completed span events, allocated as events arrive (a thread that
/// records nothing holds none). A full ring overwrites its oldest
/// events (the drop count is reported in snapshots), so long
/// simulations keep the most recent window instead of growing without
/// bound. Buffers outlive their threads: a ThreadPool's worker lanes are
/// still present in a snapshot taken after the pool was destroyed.
///
/// Exporters (export.hpp) turn a Snapshot into Chrome trace-event /
/// Perfetto JSON and flat metrics JSON/CSV.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sscl::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True while span/counter recording is active. Instrumentation sites
/// call this (inlined relaxed load) before doing any work.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Start recording. The first enable() sets the trace epoch; timestamps
/// are nanoseconds since it.
void enable();

/// Stop recording (buffers and metric values are kept for export).
void disable();

/// Drop every recorded event, zero all counters/gauges and restart the
/// epoch. Thread registrations and names survive.
void reset();

/// Nanoseconds since the trace epoch (monotonic).
std::uint64_t now_ns();

/// Resize every thread's ring buffer (existing events are discarded)
/// and set the capacity used by threads that register later. Intended
/// for tests and long-run tuning; the default keeps the most recent
/// 32768 events per thread.
void set_ring_capacity(std::size_t events_per_thread);

/// Name this thread's lane in exported traces ("worker-3", "main").
/// Cheap and callable while tracing is disabled (names persist).
void set_thread_name(const std::string& name);

/// One completed span. `name`/`category`/`arg_name` must be string
/// literals (or otherwise outlive the registry) -- events store the
/// pointers, which is what keeps recording allocation-free.
struct Event {
  const char* name = nullptr;
  const char* category = nullptr;
  const char* arg_name = nullptr;  ///< nullptr = no argument
  long long arg = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// RAII scope: records one Event covering its lifetime into the calling
/// thread's ring buffer. Constructing while tracing is disabled is a
/// single branch and records nothing.
class Span {
 public:
  Span(const char* name, const char* category) {
    if (enabled()) begin(name, category, nullptr, 0);
  }
  /// Span with one integer argument (exported under `args` in the
  /// Chrome trace), e.g. the sweep-point index of a runner task.
  Span(const char* name, const char* category, const char* arg_name,
       long long arg) {
    if (enabled()) begin(name, category, arg_name, arg);
  }
  ~Span() {
    if (active_) end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name, const char* category, const char* arg_name,
             long long arg);
  void end();

  const char* name_ = nullptr;
  const char* category_ = nullptr;
  const char* arg_name_ = nullptr;
  long long arg_ = 0;
  std::uint64_t start_ = 0;
  bool active_ = false;
};

/// Monotonically increasing named metric. Construction registers the
/// name (or finds the existing cell) under a lock; keep Counter objects
/// long-lived (members / function-local statics) so add() stays a
/// lock-free atomic increment.
class Counter {
 public:
  explicit Counter(const char* name);
  void add(long long delta = 1) {
    if (enabled()) cell_->fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  std::atomic<long long>* cell_;
};

/// Named last-value metric (doubles), same registration contract as
/// Counter.
class Gauge {
 public:
  explicit Gauge(const char* name);
  void set(double value) {
    if (enabled()) cell_->store(value, std::memory_order_relaxed);
  }

 private:
  std::atomic<double>* cell_;
};

/// Set a counter to an absolute value by name (registers it on first
/// use). For publishing externally accumulated statistics such as
/// spice::EngineStats; no-op while tracing is disabled.
void set_counter(const char* name, long long value);

/// Gauge analogue of set_counter().
void set_gauge(const char* name, double value);

/// Events of one thread, oldest first.
struct ThreadSnapshot {
  int tid = 0;                ///< registration-order lane id
  std::string name;           ///< from set_thread_name(); may be empty
  std::vector<Event> events;  ///< chronological (ring unrolled)
  std::uint64_t dropped = 0;  ///< events overwritten by ring overflow
};

/// A consistent copy of everything recorded so far. Taking a snapshot
/// does not drain the buffers; exporters may be called repeatedly.
struct Snapshot {
  std::vector<ThreadSnapshot> threads;
  std::vector<std::pair<std::string, long long>> counters;  ///< name-sorted
  std::vector<std::pair<std::string, double>> gauges;       ///< name-sorted
  std::uint64_t total_events() const {
    std::uint64_t n = 0;
    for (const ThreadSnapshot& t : threads) n += t.events.size();
    return n;
  }
  std::uint64_t total_dropped() const {
    std::uint64_t n = 0;
    for (const ThreadSnapshot& t : threads) n += t.dropped;
    return n;
  }
};

/// Copy out all per-thread events and metric values.
Snapshot snapshot();

}  // namespace sscl::trace
