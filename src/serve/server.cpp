#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "serve/protocol.hpp"
#include "serve/runner.hpp"
#include "trace/trace.hpp"
#include "util/units.hpp"

namespace sscl::serve {

namespace {

constexpr std::size_t kLatencyWindow = 512;

/// Nearest-rank percentile over an unsorted window copy.
double percentile(std::vector<double> window, double p) {
  if (window.empty()) return 0.0;
  std::sort(window.begin(), window.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(window.size())));
  return window[std::min(window.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_([&] {
        ElabCache::Options c;
        c.capacity = options_.cache_entries;
        c.adopt = options_.adopt_pattern;
        c.parse = options_.parse;
        c.solver = options_.solver;
        return c;
      }()),
      scheduler_([&] {
        Scheduler::Options s;
        s.jobs = options_.jobs;
        s.queue_depth = options_.queue_depth;
        return s;
      }()) {}

Server::~Server() { stop(); }

Scheduler::Admit Server::submit(JobRequest request, Sink sink) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.requests;
  }
  auto shared_request = std::make_shared<JobRequest>(std::move(request));
  auto shared_sink = std::make_shared<Sink>(std::move(sink));
  Scheduler::Admit admit = scheduler_.submit(
      shared_request->client,
      [this, shared_request, shared_sink](long long id,
                                          run::CancelToken& token) {
        run_one(id, *shared_request, *shared_sink, token);
      },
      // Runs under the scheduler's admission lock, so QUEUED is on the
      // wire before any worker can emit the job's BEGIN line.
      [&shared_sink](long long id) {
        (*shared_sink)("QUEUED " + std::to_string(id));
      });
  if (!admit.accepted) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.admission_rejects;
    }
    (*shared_sink)("BUSY retry-after-ms=" +
                   std::to_string(admit.retry_after_ms));
    (*shared_sink)("END busy");
  }
  publish_metrics();
  return admit;
}

bool Server::cancel(long long job_id) { return scheduler_.cancel(job_id); }

void Server::run_one(long long id, const JobRequest& request, const Sink& sink,
                     run::CancelToken& token) {
  trace::Span span("serve.job", "serve", "job", id);
  const auto t0 = std::chrono::steady_clock::now();
  const int timeout_ms =
      request.timeout_ms > 0 ? request.timeout_ms : options_.default_timeout_ms;
  if (timeout_ms > 0) {
    token.set_deadline_after(std::chrono::milliseconds(timeout_ms));
  }

  sink("BEGIN " + std::to_string(id));
  JobStatus status = JobStatus::kOk;
  if (token.stop_requested()) {
    // Cancelled (or stop()ed) while queued: answer without touching the
    // cache at all.
    status = token.expired() ? JobStatus::kTimeout : JobStatus::kCancelled;
  } else {
    try {
      ElabCache::Lookup lookup = cache_.acquire(request.deck_text);
      sink(std::string("CACHE ") + cache_tier_name(lookup.tier));
      status = run_job(*lookup.entry, request, sink, token);
    } catch (const std::exception& e) {
      // Front-end rejection (lex/parse/elaborate/lint): nothing was
      // cached, the deck itself is bad.
      sink(std::string("ERROR ") + e.what());
      status = JobStatus::kError;
    }
  }
  // Account BEFORE emitting END: the END line is the client's signal
  // that the job is finished, so STATS/METRICS issued right after it
  // must already see this job's terminal status and latency.
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    switch (status) {
      case JobStatus::kOk:
        ++counters_.jobs_ok;
        break;
      case JobStatus::kError:
        ++counters_.jobs_error;
        break;
      case JobStatus::kCancelled:
        ++counters_.jobs_cancelled;
        break;
      case JobStatus::kTimeout:
        ++counters_.jobs_timeout;
        break;
    }
  }
  record_latency(ms);
  sink(std::string("END ") + job_status_name(status));
  publish_metrics();
}

void Server::record_latency(double ms) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (latency_ring_.size() < kLatencyWindow) {
    latency_ring_.push_back(ms);
  } else {
    latency_ring_[latency_next_ % kLatencyWindow] = ms;
  }
  ++latency_next_;
}

ServeStats Server::stats() const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = counters_;
    s.latency_p50_ms = percentile(latency_ring_, 0.50);
    s.latency_p95_ms = percentile(latency_ring_, 0.95);
  }
  s.cache = cache_.stats();
  s.queue_depth = scheduler_.queue_depth();
  return s;
}

std::string Server::metrics_json() const {
  const ServeStats s = stats();
  std::ostringstream os;
  os << '{';
  auto count = [&os, first = true](const char* name,
                                   long long value) mutable {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":" << value;
  };
  count("serve.requests", s.requests);
  count("serve.admission.rejects", s.admission_rejects);
  count("serve.cache.hit.elab", s.cache.hits_elab);
  count("serve.cache.hit.pattern", s.cache.hits_pattern);
  count("serve.cache.miss", s.cache.misses);
  count("serve.cache.evictions", s.cache.evictions);
  count("serve.cache.entries", s.cache.entries);
  count("serve.queue.depth", s.queue_depth);
  count("serve.jobs.ok", s.jobs_ok);
  count("serve.jobs.error", s.jobs_error);
  count("serve.jobs.cancelled", s.jobs_cancelled);
  count("serve.jobs.timeout", s.jobs_timeout);
  os << ",\"serve.latency.p50_ms\":" << util::format_g17(s.latency_p50_ms);
  os << ",\"serve.latency.p95_ms\":" << util::format_g17(s.latency_p95_ms);
  os << '}';
  return os.str();
}

void Server::publish_metrics() const {
  if (!trace::enabled()) return;
  const ServeStats s = stats();
  trace::set_counter("serve.requests", s.requests);
  trace::set_counter("serve.admission.rejects", s.admission_rejects);
  trace::set_counter("serve.cache.hit.elab", s.cache.hits_elab);
  trace::set_counter("serve.cache.hit.pattern", s.cache.hits_pattern);
  trace::set_counter("serve.cache.miss", s.cache.misses);
  trace::set_counter("serve.cache.evictions", s.cache.evictions);
  trace::set_counter("serve.jobs.ok", s.jobs_ok);
  trace::set_counter("serve.jobs.error", s.jobs_error);
  trace::set_counter("serve.jobs.cancelled", s.jobs_cancelled);
  trace::set_counter("serve.jobs.timeout", s.jobs_timeout);
  trace::set_gauge("serve.queue.depth", s.queue_depth);
  trace::set_gauge("serve.cache.entries",
                   static_cast<double>(s.cache.entries));
  trace::set_gauge("serve.latency.p50_ms", s.latency_p50_ms);
  trace::set_gauge("serve.latency.p95_ms", s.latency_p95_ms);
}

void Server::stop() { scheduler_.stop(); }

}  // namespace sscl::serve
