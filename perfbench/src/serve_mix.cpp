/// serve_mix: a closed loop of two clients, each on its own loopback
/// connection to an in-process daemon (serve::SocketServer over
/// serve::Server, default options with two worker jobs). The clients
/// take turns, one job in flight at a time: with both in flight, every
/// latency depended on how many cores the host granted at the moment.
/// Each client sends a seeded stream of submissions drawn from two deck
/// families (perfbench/README.md):
///  * warm (about half): exact resubmissions of the client's working set;
///  * edit (about a third): `.param`-value-only edits of a working-set deck;
///  * cold (the rest): topologies the daemon has never seen.
/// Latency is grouped by the kind the client sent, never by the cache
/// tier the daemon reports, so a tier-policy change cannot relabel jobs.

#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "generators.hpp"
#include "netlist/lexer.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kClients = 2;
constexpr int kWorkingSet = 4;        ///< warm decks per client
constexpr int kBlock = 24;            ///< jobs per fixed-mix block
constexpr int kDrainJobs = 16;        ///< traced: jobs between trace drains
constexpr int kCheckedDecks = 96;     ///< distinct decks checked per client
/// The cache-tier counters cover the first kCountedBlocks blocks of both
/// clients, which every window runs: a prefix replays the same jobs on
/// the same cache state each run, so its counts repeat exactly.
constexpr long long kCountedJobs = 4LL * kBlock * kClients;
/// Untraced windows time one more full set-up after this many jobs.
constexpr long long kSetupEveryJobs = 4LL * kBlock * kClients;
constexpr double kPatternRelTol = 1e-4;  ///< SolverOptions::reltol
constexpr double kPatternAbsTol = 1e-6;  ///< 10 x SolverOptions::vntol

enum class Kind { kWarm, kEdit, kCold };
enum class Family { kParam, kSubvt };

struct Job {
  Kind kind = Kind::kWarm;
  Family family = Family::kParam;
  std::string text;
  std::vector<std::string> nodes;
};

/// The seeded submission stream of one client: job i is a pure function
/// of (seed, client, i).
class Stream {
 public:
  Stream(std::uint64_t seed, int client, std::string card_file)
      : seed_(derive_seed(seed, 1000 + static_cast<std::uint64_t>(client))),
        card_file_(std::move(card_file)) {}

  /// Working-set deck k (k < kWorkingSet): the last one is a sub-Vt
  /// bench, the others `.param` networks. Every kind is three quarters
  /// one family, so each per-kind median sits inside one family's mode
  /// instead of in the gap between two.
  static Family family_of(int k) {
    return k == kWorkingSet - 1 ? Family::kSubvt : Family::kParam;
  }
  Job base(int k) const {
    return make(family_of(k), topo_seed(k), value_seed(k, 0));
  }

  /// Job i. Every block of kBlock jobs holds exactly 13 warm, 7 edit and
  /// 4 cold jobs in a shuffled order that does not depend on the seed,
  /// so the mix (and with it ops_per_s and the cache's resident set)
  /// does not drift with the seed, which moves only the decks' content;
  /// the all-jobs median sits inside the warm mode rather than on the
  /// warm/edit boundary.
  Job job(long long i) const {
    const long long block = i / kBlock;
    const int slot = static_cast<int>(i % kBlock);
    std::array<Kind, kBlock> kinds;
    for (int k = 0; k < kBlock; ++k) {
      kinds[k] = k < 13 ? Kind::kWarm : k < 20 ? Kind::kEdit : Kind::kCold;
    }
    SplitMix shuffle(derive_seed(0, static_cast<std::uint64_t>(block)));
    for (int k = kBlock - 1; k > 0; --k) {
      std::swap(kinds[k], kinds[shuffle.range(0, k)]);
    }
    // Rank of this job among the block's jobs of its kind: it picks the
    // working-set deck, so each kind is three quarters `.param` networks.
    int rank = 0;
    for (int k = 0; k < slot; ++k) rank += kinds[k] == kinds[slot];
    const int base_k = rank % kWorkingSet;
    Job j;
    switch (kinds[slot]) {
      case Kind::kWarm:
        j = base(base_k);
        break;
      case Kind::kEdit:
        j = make(family_of(base_k), topo_seed(base_k),
                 value_seed(base_k, 1 + static_cast<std::uint64_t>(i)));
        break;
      case Kind::kCold:
        j = make(family_of(base_k),
                 derive_seed(seed_, 1u << 20 | static_cast<std::uint64_t>(i)),
                 value_seed(base_k, 0));
        break;
    }
    j.kind = kinds[slot];
    return j;
  }

 private:
  std::uint64_t topo_seed(int k) const {
    return derive_seed(seed_, 100 + static_cast<std::uint64_t>(k));
  }
  std::uint64_t value_seed(int k, std::uint64_t edit) const {
    return derive_seed(seed_, (static_cast<std::uint64_t>(k) << 32) | edit);
  }
  Job make(Family f, std::uint64_t topo, std::uint64_t values) const {
    Job j;
    j.family = f;
    if (f == Family::kParam) {
      j.text = param_network_deck(topo, values);
      j.nodes = param_network_nodes();
    } else {
      j.text = subvt_bench_deck(topo, values, card_file_);
      j.nodes = subvt_bench_nodes();
    }
    return j;
  }

  std::uint64_t seed_;
  std::string card_file_;
};

/// Blocking line client that timestamps the envelope lines (the
/// platform's serve::Client returns lines without times). It ACKs every
/// segment at once (TCP_QUICKACK, re-armed after each read): the daemon
/// writes each response line with its own send() on a socket without
/// TCP_NODELAY, so a client that delays its ACKs stalls every job for
/// one delayed-ACK timeout (~40 ms on Linux), which would hide every
/// other layer (perfbench/README.md, "Seed-code baseline").
class TimedClient {
 public:
  explicit TimedClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to the daemon");
    }
  }
  ~TimedClient() { ::close(fd_); }
  TimedClient(const TimedClient&) = delete;
  TimedClient& operator=(const TimedClient&) = delete;

  struct Reply {
    std::vector<std::string> lines;
    Clock::time_point sent, queued, begun, ended;
  };

  Reply submit(const sscl::serve::JobRequest& request) {
    Reply r;
    const std::string bytes =
        sscl::serve::format_submit(request) + "\n" + request.deck_text;
    r.sent = Clock::now();
    for (std::size_t sent = 0; sent < bytes.size();) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("connection lost");
      sent += static_cast<std::size_t>(n);
    }
    r.queued = r.begun = r.sent;
    for (;;) {
      const auto nl = rx_.find('\n');
      if (nl == std::string::npos) {
        char chunk[8192];
        const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
        if (got <= 0) throw std::runtime_error("connection closed mid-reply");
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
        rx_.append(chunk, static_cast<std::size_t>(got));
        continue;
      }
      std::string line = rx_.substr(0, nl);
      rx_.erase(0, nl + 1);
      const auto now = Clock::now();
      if (line.rfind("QUEUED ", 0) == 0) r.queued = now;
      if (line.rfind("BEGIN ", 0) == 0) r.begun = now;
      const bool end = line.rfind("END ", 0) == 0;
      r.lines.push_back(std::move(line));
      if (end) {
        r.ended = now;
        return r;
      }
    }
  }

 private:
  int fd_ = -1;
  std::string rx_;
};

}  // namespace

bool reply_succeeded(const std::vector<std::string>& lines) {
  return !lines.empty() && lines.back() == "END ok";
}

namespace {

bool is_envelope(const std::string& line) {
  for (const char* tag : {"QUEUED ", "BEGIN ", "CACHE ", "END ", "BUSY "}) {
    if (line.rfind(tag, 0) == 0) return true;
  }
  return false;
}

/// What one finished job looked like from the client.
struct Record {
  int client = 0;
  long long index = 0;
  Kind kind = Kind::kWarm;
  Family family = Family::kParam;
  long long job_id = -1;
  bool ok = false;     ///< reply_succeeded()
  std::string tier;    ///< CACHE argument
  double latency_ms = 0.0;
  double queue_wait_ms = 0.0;
  Clock::time_point ended;
  std::string payload;
};

Record to_record(int client, long long index, const Job& job,
                 const TimedClient::Reply& reply) {
  Record rec;
  rec.client = client;
  rec.index = index;
  rec.kind = job.kind;
  rec.family = job.family;
  for (const std::string& line : reply.lines) {
    if (line.rfind("QUEUED ", 0) == 0) rec.job_id = std::stoll(line.substr(7));
    if (line.rfind("CACHE ", 0) == 0) rec.tier = line.substr(6);
    if (!is_envelope(line)) rec.payload += line + "\n";
  }
  rec.ok = reply_succeeded(reply.lines);
  rec.ended = reply.ended;
  rec.latency_ms =
      std::chrono::duration<double, std::milli>(reply.ended - reply.sent).count();
  rec.queue_wait_ms =
      std::chrono::duration<double, std::milli>(reply.begun - reply.queued)
          .count();
  return rec;
}

/// A payload line's fields: split at spaces and at the commas of
/// MEASURE rows (`name,value,error`).
std::vector<std::string> fields(const std::string& line) {
  std::vector<std::string> out(1);
  for (char ch : line) {
    if (ch == ' ' || ch == ',') {
      out.emplace_back();
    } else {
      out.back() += ch;
    }
  }
  return out;
}

/// Rows whose numbers are node voltages (AC: gain and bandwidth of a
/// node), which the absolute Newton tolerance applies to.
bool voltage_row(const std::string& line) {
  for (const char* tag : {"OP v(", "TRAN v(", "AC v(", "DC ", "WAVE "}) {
    if (line.rfind(tag, 0) == 0) return true;
  }
  return false;
}

bool number(const std::string& field, double& value) {
  char* end = nullptr;
  value = std::strtod(field.c_str(), &end);
  return !field.empty() && *end == '\0';
}

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The negative self-test's corruption: the last number of the payload
/// (a sub-Vt bench's tpavg, a network's last node voltage) scaled by 1%,
/// so the reference keeps its lines and fields and only a value check
/// can tell.
std::string corrupted(std::string payload) {
  for (std::size_t end = payload.size(); end > 0;) {
    const std::size_t cut = payload.find_last_of(" ,\n", end - 1);
    const std::size_t begin = cut == std::string::npos ? 0 : cut + 1;
    double v = 0.0;
    if (number(payload.substr(begin, end - begin), v)) {
      return payload.replace(begin, end - begin, g17(v * 1.01));
    }
    end = begin == 0 ? 0 : begin - 1;
  }
  return payload;
}

/// A daemon plus its connected clients, all released in reverse order.
struct Daemon {
  std::unique_ptr<sscl::serve::Server> server;
  std::unique_ptr<sscl::serve::SocketServer> socket;
  std::vector<std::unique_ptr<TimedClient>> clients;

  ~Daemon() {
    clients.clear();
    if (socket) socket->stop();
    socket.reset();
    server.reset();
  }
};

sscl::serve::ServerOptions server_options(const std::string& work_dir,
                                          bool adopt, int jobs) {
  sscl::serve::ServerOptions opts;
  opts.jobs = jobs;
  opts.adopt_pattern = adopt;
  opts.parse.include_loader = sscl::netlist::file_include_loader(work_dir);
  return opts;
}

sscl::serve::JobRequest request_for(const Job& job, int client) {
  sscl::serve::JobRequest req;
  req.deck_text = job.text;
  // "c<n>", spelled so GCC 12 raises no false -Wrestrict warning.
  req.client = std::to_string(client).insert(0, 1, 'c');
  req.nodes = job.nodes;
  return req;
}

/// Set-up: card file, generated decks linted, daemon started, clients
/// connected, and the untimed first pass over each working set.
std::unique_ptr<Daemon> make_daemon(const RunConfig& config,
                                    const std::vector<Stream>& streams) {
  {
    std::ofstream cards(config.work_dir + "/cards.inc");
    cards << subvt_card_file();
    if (!cards) throw std::runtime_error("cannot write the card file");
  }
  sscl::netlist::ParseOptions parse;
  parse.include_loader = sscl::netlist::file_include_loader(config.work_dir);
  for (const Stream& s : streams) {
    for (int k = 0; k < kWorkingSet; ++k) {
      if (lint_findings(s.base(k).text, parse) != 0) {
        throw std::runtime_error("a generated serve deck does not lint clean");
      }
    }
  }
  auto d = std::make_unique<Daemon>();
  d->server = std::make_unique<sscl::serve::Server>(
      server_options(config.work_dir, /*adopt=*/true, /*jobs=*/2));
  d->socket = std::make_unique<sscl::serve::SocketServer>(*d->server, 0);
  d->socket->start();
  for (int c = 0; c < kClients; ++c) {
    d->clients.push_back(std::make_unique<TimedClient>(d->socket->port()));
    for (int k = 0; k < kWorkingSet; ++k) {
      const auto reply = d->clients.back()->submit(
          request_for(streams[static_cast<std::size_t>(c)].base(k), c));
      if (!reply_succeeded(reply.lines)) {
        throw std::runtime_error("working-set deck failed during set-up");
      }
    }
  }
  return d;
}

struct Window {
  std::vector<Record> records;
  Clock::time_point start;
  double seconds = 0.0;
  double drain_seconds = 0.0;
  long long failed = 0;  ///< transport exceptions (records carry the rest)
  sscl::serve::ServeStats counted;  ///< daemon stats after kCountedJobs jobs
  RootUsage usage;
  std::map<long long, RootUsage> by_job;  ///< traced: per job id
};

/// Number of serve.job spans recorded so far.
std::size_t job_spans() {
  std::size_t n = 0;
  for (const auto& thread : sscl::trace::snapshot().threads) {
    for (const auto& e : thread.events) {
      n += std::strcmp(e.name, kSpanServeJob) == 0;
    }
  }
  return n;
}

/// Both clients run until the deadline, but not before \p min_jobs jobs
/// have finished (the daemon's stats are snapshot right then), taking
/// turns: each waits for the other's reply before it sends, so exactly
/// one job is in flight. \p between (if set) runs between jobs every
/// kSetupEveryJobs jobs, and its time is taken out of the window's.
/// Traced windows drain the trace every kDrainJobs jobs, between jobs,
/// once every finished job's serve.job span has landed (a worker closes
/// it just after sending END).
Window run_window(Daemon& d, const std::vector<Stream>& streams,
                  long long& next_index, double seconds, long long min_jobs,
                  TraceCapture* capture,
                  const std::function<void()>& between = {}) {
  Window w;
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  bool finished = false;
  long long since_drain = 0;
  long long next_between = kSetupEveryJobs;
  Clock::duration paused{};  // inside between()
  const auto t0 = Clock::now();
  w.start = t0;
  auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  auto drain = [&] {
    const auto d0 = Clock::now();
    while (job_spans() < static_cast<std::size_t>(since_drain) &&
           since(d0) < 1.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    for (RootUsage& u : attribute(capture->drain(), kSpanServeJob)) {
      w.usage.merge(u);
      w.by_job[u.arg] = std::move(u);
    }
    since_drain = 0;
    w.drain_seconds += since(d0);
  };
  const long long first = next_index;
  auto client_loop = [&](int c) {
    TimedClient& client = *d.clients[static_cast<std::size_t>(c)];
    const Stream& stream = streams[static_cast<std::size_t>(c)];
    for (long long i = first;; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return turn == c || finished; });
      const auto done = static_cast<long long>(w.records.size());
      if (finished || (since(t0) >= seconds && done >= min_jobs)) {
        finished = true;
        cv.notify_all();
        break;
      }
      if (capture && since_drain >= kDrainJobs) drain();
      if (between && done >= next_between) {
        const auto p0 = Clock::now();
        try {
          between();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "serve_mix: set-up: %s\n", e.what());
          ++w.failed;
          finished = true;
          cv.notify_all();
          break;
        }
        paused += Clock::now() - p0;
        next_between += kSetupEveryJobs;
      }
      lock.unlock();
      const Job job = stream.job(i);
      Record rec;
      bool ok = true;
      try {
        rec = to_record(c, i, job, client.submit(request_for(job, c)));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_mix: client %d: %s\n", c, e.what());
        ok = false;
      }
      lock.lock();
      if (ok) {
        rec.ended -= paused;  // block times leave the set-ups out
        w.records.push_back(std::move(rec));
        ++since_drain;
        if (static_cast<long long>(w.records.size()) == min_jobs) {
          w.counted = d.server->stats();
        }
      } else {
        ++w.failed;
        finished = true;
      }
      turn = (c + 1) % kClients;
      cv.notify_all();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  for (auto& t : threads) t.join();
  if (capture) drain();
  w.seconds = since(t0) - std::chrono::duration<double>(paused).count();
  long long most = 0;
  for (const Record& r : w.records) most = std::max(most, r.index + 1);
  next_index = most;
  return w;
}

/// Check every job whose deck is among the first kCheckedDecks distinct
/// decks of its client against a fresh daemon's cold reply: byte-equal,
/// or within Newton tolerance for pattern-tier hits. Returns mismatches.
long long check_payloads(const RunConfig& config,
                         const std::vector<Stream>& streams,
                         const std::vector<Record>& records) {
  sscl::serve::Server reference(
      server_options(config.work_dir, /*adopt=*/false, /*jobs=*/1));
  std::map<std::string, std::string> cold;  // deck text -> payload
  std::vector<std::set<std::string>> seen(kClients);
  long long mismatches = 0;
  for (const Record& rec : records) {
    if (!rec.ok) continue;  // already counted as failed
    const Job job = streams[static_cast<std::size_t>(rec.client)].job(rec.index);
    auto& mine = seen[static_cast<std::size_t>(rec.client)];
    if (!mine.count(job.text)) {
      if (static_cast<int>(mine.size()) >= kCheckedDecks) continue;
      mine.insert(job.text);
    }
    auto it = cold.find(job.text);
    if (it == cold.end()) {
      std::mutex m;
      std::condition_variable cv;
      bool done = false;
      std::string payload;
      reference.submit(request_for(job, rec.client),
                       [&](const std::string& line) {
                         std::lock_guard<std::mutex> lock(m);
                         if (!is_envelope(line)) payload += line + "\n";
                         if (line.rfind("END ", 0) == 0) {
                           done = true;
                           cv.notify_all();
                         }
                       });
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return done; });
      if (config.corrupt_reference) payload = corrupted(payload);
      it = cold.emplace(job.text, payload).first;
    }
    if (!payload_matches(rec.payload, it->second, rec.tier == "pattern")) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Seconds each block of both clients' kBlock jobs took, in completion
/// order: every such block has the same mix of kinds and families.
std::vector<double> block_seconds(const Window& w) {
  std::vector<Clock::time_point> ends;
  for (const Record& r : w.records) ends.push_back(r.ended);
  std::sort(ends.begin(), ends.end());
  std::vector<double> out;
  const std::size_t block = static_cast<std::size_t>(kClients * kBlock);
  Clock::time_point prev = w.start;
  for (std::size_t k = block; k <= ends.size(); k += block) {
    out.push_back(std::chrono::duration<double>(ends[k - 1] - prev).count());
    prev = ends[k - 1];
  }
  return out;
}

std::vector<double> latencies(const std::vector<Record>& rs,
                              bool (*keep)(const Record&)) {
  std::vector<double> v;
  for (const Record& r : rs) {
    if (keep(r)) v.push_back(r.latency_ms);
  }
  return v;
}

/// Latencies of one kind of submission, one group per deck family.
std::vector<std::vector<double>> by_family(const std::vector<Record>& rs,
                                           Kind kind) {
  std::vector<std::vector<double>> groups(2);
  for (const Record& r : rs) {
    if (r.kind == kind) {
      groups[r.family == Family::kParam ? 0 : 1].push_back(r.latency_ms);
    }
  }
  return groups;
}

}  // namespace

bool payload_matches(const std::string& payload, const std::string& reference,
                     bool pattern_tier) {
  if (payload == reference) return true;
  if (!pattern_tier) return false;
  std::istringstream got(payload), ref(reference);
  std::string a, b;
  for (;;) {
    const bool ha = static_cast<bool>(std::getline(got, a));
    const bool hb = static_cast<bool>(std::getline(ref, b));
    if (ha != hb) return false;
    if (!ha) return true;
    const std::vector<std::string> fa = fields(a), fb = fields(b);
    if (fa.size() != fb.size()) return false;
    const double abs_tol = voltage_row(b) ? kPatternAbsTol : 0.0;
    for (std::size_t k = 0; k < fa.size(); ++k) {
      if (fa[k] == fb[k]) continue;
      double va = 0.0, vb = 0.0;
      if (!number(fa[k], va) || !number(fb[k], vb)) return false;
      if (!(std::fabs(va - vb) <= kPatternRelTol * std::fabs(vb) + abs_tol)) {
        return false;
      }
    }
  }
}

WorkloadResult run_serve_mix(const RunConfig& config) {
  WorkloadResult r;
  const std::string card_file = "cards.inc";
  std::vector<Stream> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.emplace_back(config.seed, c, card_file);
  }

  // setup_s: the median of the first set-up, counted from process
  // start, and of one more daemon (started, fed both working sets, torn
  // down) every kSetupEveryJobs jobs of the untraced window, as on
  // tran_stscl. Each is torn down outside the timing and its freed heap
  // handed back to the system: the worker arenas of extra set-ups had
  // raised peak_rss_mb from 34 to as much as 56 MB at random.
  const std::unique_ptr<Daemon> daemon = make_daemon(config, streams);
  std::vector<double> setups = {process_seconds()};
  auto resetup = [&] {
    const double s0 = process_seconds();
    std::unique_ptr<Daemon> extra = make_daemon(config, streams);
    setups.push_back(process_seconds() - s0);
    extra.reset();
    malloc_trim(0);
  };
  long long next_index = 0;
  auto failures = [](const Window& w) {
    long long n = w.failed;
    for (const Record& rec : w.records) n += !rec.ok;
    return n;
  };

  const sscl::serve::ServeStats before = daemon->server->stats();
  const double window = config.trace ? config.seconds / 2 : config.seconds;
  const Window plain = run_window(*daemon, streams, next_index, window,
                                  kCountedJobs, nullptr, resetup);
  r.attempted = static_cast<long long>(plain.records.size()) + plain.failed;
  r.failed = failures(plain);
  const double rate =
      static_cast<double>(plain.records.size()) / plain.seconds;
  r.end_to_end = {
      timing("setup_s", setups, "s"),
      timing("ops_per_s",
             cycle_rates(block_seconds(plain), kClients * kBlock), "1/s"),
      grouped_p50("kind1_p50_ms", by_family(plain.records, Kind::kCold)),
      grouped_p50("kind2_p50_ms", by_family(plain.records, Kind::kWarm)),
      {"peak_rss_mb", peak_rss_mb(), "MB", 0, {}},
  };
  if (!config.trace) {
    r.failed += check_payloads(config, streams, plain.records);
    return r;
  }

  Window traced;
  unsigned long long dropped = 0;
  {
    TraceCapture capture;
    traced = run_window(*daemon, streams, next_index, window, 0, &capture);
    dropped = capture.dropped();
  }
  r.attempted += static_cast<long long>(traced.records.size()) + traced.failed;
  r.failed += failures(traced);
  std::vector<Record> checked = plain.records;
  checked.insert(checked.end(), traced.records.begin(), traced.records.end());
  r.failed += check_payloads(config, streams, checked);

  LayerTable t;
  const double jobs = static_cast<double>(
      std::max<std::size_t>(1, traced.records.size()));
  const double traced_rate =
      traced.records.size() / (traced.seconds - traced.drain_seconds);
  t.set("trace.dropped", static_cast<double>(dropped));
  t.set("trace.overhead", 1.0 - traced_rate / rate);
  t.set("fail_ratio", r.fail_ratio());
  // Covered: client latency outside the job's own self time. A job
  // whose serve.job span is missing counts as wholly uncovered.
  double latency_sum = 0.0, covered = 0.0, transport = 0.0, payload = 0.0;
  double cold_param_ms = 0.0, cold_param_elab = 0.0, cold_param_n = 0.0;
  for (const Record& rec : traced.records) {
    latency_sum += rec.latency_ms;
    payload += static_cast<double>(rec.payload.size());
    auto it = traced.by_job.find(rec.job_id);
    if (it == traced.by_job.end()) continue;
    transport += rec.latency_ms - it->second.dur_ms;
    covered += rec.latency_ms - it->second.self(kSpanServeJob);
    if (rec.kind == Kind::kCold && rec.family == Family::kParam) {
      cold_param_ms += rec.latency_ms;
      cold_param_elab += it->second.self("serve.elaborate");
      cold_param_n += 1.0;
    }
  }
  const RootUsage& u = traced.usage;
  t.set("trace.coverage", latency_sum > 0 ? covered / latency_sum : 0.0);
  t.set("serve.transport_ms", transport / jobs);
  t.set("serve.lex_hash_ms", u.self("serve.lex+hash") / jobs);
  t.set("serve.elaborate_ms", u.self("serve.elaborate") / jobs);
  double analysis = 0.0;
  for (const auto& [name, ms] : u.total_ms) {
    if (name.rfind("serve.analysis.", 0) == 0) analysis += ms;
  }
  t.set("serve.analysis_ms", analysis / jobs);
  t.set("serve.measures_ms", u.total("serve.measures") / jobs);
  t.set("lint.ms", u.total("lint.run") / jobs);
  for (const char* span :
       {"newton", "baseline", "assemble", "factor", "timestep"}) {
    t.set(std::string("spice.") + span + "_ms", u.self(span) / jobs);
  }
  t.set("serve.payload_bytes", payload / jobs);
  std::vector<double> waits;
  for (const Record& rec : plain.records) waits.push_back(rec.queue_wait_ms);
  t.set("serve.queue_wait_p50_ms", median(waits));
  t.set("serve.queue_wait_p99_ms", percentile(waits, 99).value_or(0.0));
  t.set("serve.cold_param_ms",
        cold_param_n > 0 ? cold_param_ms / cold_param_n : 0.0);
  t.set("serve.cold_param_elaborate_ms",
        cold_param_n > 0 ? cold_param_elab / cold_param_n : 0.0);
  const auto all =
      latencies(plain.records, [](const Record&) { return true; });
  t.set("serve.op_p50_ms", median(all));
  t.set("serve.op_p99_ms", percentile(all, 99).value_or(0.0));
  t.set("serve.edit_p50_ms",
        grouped_p50("", by_family(plain.records, Kind::kEdit)).value);
  const sscl::serve::ServeStats& after = plain.counted;
  const double elab =
      static_cast<double>(after.cache.hits_elab - before.cache.hits_elab);
  const double pattern =
      static_cast<double>(after.cache.hits_pattern - before.cache.hits_pattern);
  const double miss =
      static_cast<double>(after.cache.misses - before.cache.misses);
  t.set("serve.cache.hit.elab", elab);
  t.set("serve.cache.hit.pattern", pattern);
  t.set("serve.cache.miss", miss);
  t.set("serve.cache.evictions",
        static_cast<double>(after.cache.evictions - before.cache.evictions));
  const double lookups = elab + pattern + miss;
  t.set("serve.hit_ratio", lookups > 0 ? (elab + pattern) / lookups : 0.0);
  t.set("serve.admission.rejects",
        static_cast<double>(after.admission_rejects - before.admission_rejects));
  r.per_layer = t.metrics();
  return r;
}

}  // namespace perfbench
