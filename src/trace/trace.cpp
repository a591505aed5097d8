#include "trace/trace.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>

namespace sscl::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

using steady = std::chrono::steady_clock;

constexpr std::size_t kDefaultRingCapacity = 32768;

/// Per-thread event storage. Each buffer is written by exactly one
/// thread; the mutex exists for the (rare) concurrent snapshot/resize,
/// so the owner's push path locks an uncontended mutex. The ring grows
/// with the events pushed, up to `capacity`: registration reserves
/// nothing, since every pool thread registers (to name its lane) and
/// buffers are never freed, tracing or not.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<Event> ring;
  std::size_t capacity = kDefaultRingCapacity;
  std::size_t head = 0;       // oldest element once the ring is full
  std::uint64_t total = 0;    // events ever pushed
  int tid = 0;
  std::string name;

  void push(const Event& e) {
    std::lock_guard<std::mutex> lock(mutex);
    if (ring.size() < capacity) {
      ring.push_back(e);
    } else if (capacity > 0) {
      ring[head] = e;
      head = (head + 1) % capacity;
    }
    ++total;
  }
};

/// Global trace state: thread buffers (kept alive for the whole process
/// so lanes survive their threads) and the metric registry.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::size_t ring_capacity = kDefaultRingCapacity;
  steady::time_point epoch = steady::now();
  // node-based maps: cell addresses stay valid across insertions
  std::map<std::string, std::atomic<long long>> counters;
  std::map<std::string, std::atomic<double>> gauges;

  static Registry& instance() {
    // Intentionally leaked: the registry must stay valid inside
    // std::atexit handlers (write_at_exit snapshots there) regardless
    // of when the first span or counter lazily constructed it, so it
    // must never be torn down by static-destruction ordering.
    static Registry* r = new Registry;
    return *r;
  }

  ThreadBuffer* register_thread() {
    std::lock_guard<std::mutex> lock(mutex);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<int>(buffers.size());
    buffer->capacity = ring_capacity;
    buffers.push_back(std::move(buffer));
    return buffers.back().get();
  }
};

ThreadBuffer& this_thread_buffer() {
  thread_local ThreadBuffer* buffer = Registry::instance().register_thread();
  return *buffer;
}

}  // namespace

void enable() {
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void disable() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void reset() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& buffer : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buffer->mutex);
    buffer->ring.clear();
    buffer->head = 0;
    buffer->total = 0;
  }
  for (auto& [name, cell] : r.counters) cell.store(0, std::memory_order_relaxed);
  for (auto& [name, cell] : r.gauges) cell.store(0.0, std::memory_order_relaxed);
  r.epoch = steady::now();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          steady::now() - Registry::instance().epoch)
          .count());
}

void set_ring_capacity(std::size_t events_per_thread) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.ring_capacity = events_per_thread;
  for (auto& buffer : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buffer->mutex);
    buffer->capacity = events_per_thread;
    buffer->ring.clear();
    buffer->head = 0;
    buffer->total = 0;
  }
}

void set_thread_name(const std::string& name) {
  ThreadBuffer& buffer = this_thread_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.name = name;
}

void Span::begin(const char* name, const char* category, const char* arg_name,
                 long long arg) {
  name_ = name;
  category_ = category;
  arg_name_ = arg_name;
  arg_ = arg;
  start_ = now_ns();
  active_ = true;
}

void Span::end() {
  Event e;
  e.name = name_;
  e.category = category_;
  e.arg_name = arg_name_;
  e.arg = arg_;
  e.start_ns = start_;
  const std::uint64_t now = now_ns();
  e.dur_ns = now > start_ ? now - start_ : 0;
  this_thread_buffer().push(e);
}

namespace {

std::atomic<long long>* counter_cell(const char* name) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  return &r.counters[name];  // value-initialised to 0 on first use
}

std::atomic<double>* gauge_cell(const char* name) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  return &r.gauges[name];
}

}  // namespace

Counter::Counter(const char* name) : cell_(counter_cell(name)) {}

Gauge::Gauge(const char* name) : cell_(gauge_cell(name)) {}

void set_counter(const char* name, long long value) {
  if (!enabled()) return;
  counter_cell(name)->store(value, std::memory_order_relaxed);
}

void set_gauge(const char* name, double value) {
  if (!enabled()) return;
  gauge_cell(name)->store(value, std::memory_order_relaxed);
}

Snapshot snapshot() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lock(r.mutex);
  Snapshot out;
  out.threads.reserve(r.buffers.size());
  for (auto& buffer : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buffer->mutex);
    ThreadSnapshot t;
    t.tid = buffer->tid;
    t.name = buffer->name;
    t.dropped = buffer->total > buffer->ring.size()
                    ? buffer->total - buffer->ring.size()
                    : 0;
    t.events.reserve(buffer->ring.size());
    // Unroll the ring: oldest element sits at head once it wrapped.
    for (std::size_t i = 0; i < buffer->ring.size(); ++i) {
      t.events.push_back(
          buffer->ring[(buffer->head + i) % buffer->ring.size()]);
    }
    out.threads.push_back(std::move(t));
  }
  out.counters.reserve(r.counters.size());
  for (const auto& [name, cell] : r.counters) {
    out.counters.emplace_back(name, cell.load(std::memory_order_relaxed));
  }
  out.gauges.reserve(r.gauges.size());
  for (const auto& [name, cell] : r.gauges) {
    out.gauges.emplace_back(name, cell.load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace sscl::trace
