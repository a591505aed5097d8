#include "trace/export.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/units.hpp"

namespace sscl::trace {

namespace {

/// Chrome trace timestamps are microseconds; keep nanosecond resolution
/// as three decimals.
void print_us(std::ostream& os, std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  os << buf;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Snapshot& snap) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  sep();
  os << R"({"ph":"M","name":"process_name","pid":1,"tid":0,)"
     << R"("args":{"name":"sscl"}})";
  for (const ThreadSnapshot& t : snap.threads) {
    if (t.name.empty()) continue;
    sep();
    os << R"({"ph":"M","name":"thread_name","pid":1,"tid":)" << t.tid
       << R"(,"args":{"name":")" << util::json_escape(t.name) << "\"}}";
  }
  for (const ThreadSnapshot& t : snap.threads) {
    for (const Event& e : t.events) {
      sep();
      os << R"({"ph":"X","name":")" << util::json_escape(e.name ? e.name : "")
         << R"(","cat":")" << util::json_escape(e.category ? e.category : "")
         << R"(","pid":1,"tid":)" << t.tid << R"(,"ts":)";
      print_us(os, e.start_ns);
      os << R"(,"dur":)";
      print_us(os, e.dur_ns);
      if (e.arg_name) {
        os << R"(,"args":{")" << util::json_escape(e.arg_name) << "\":"
           << e.arg << "}";
      }
      os << "}";
    }
  }
  os << "\n]}\n";
}

void write_metrics_json(std::ostream& os, const Snapshot& snap) {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    os << (first ? "\n" : ",\n") << "    \"" << util::json_escape(name)
       << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << util::json_escape(name)
       << "\": " << util::format_g17(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"trace\": {\n"
     << "    \"threads\": " << snap.threads.size() << ",\n"
     << "    \"events\": " << snap.total_events() << ",\n"
     << "    \"dropped\": " << snap.total_dropped() << "\n  }\n}\n";
}

void write_metrics_csv(std::ostream& os, const Snapshot& snap) {
  os << "metric,kind,value\n";
  for (const auto& [name, value] : snap.counters) {
    os << name << ",counter," << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    os << name << ",gauge," << util::format_g17(value) << "\n";
  }
  os << "trace.threads,counter," << snap.threads.size() << "\n";
  os << "trace.events,counter," << snap.total_events() << "\n";
  os << "trace.dropped,counter," << snap.total_dropped() << "\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    util::log_error("trace: cannot open trace output '", path, "'");
    return false;
  }
  write_chrome_trace(out, snapshot());
  return true;
}

bool write_metrics_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    util::log_error("trace: cannot open metrics output '", path, "'");
    return false;
  }
  const Snapshot snap = snapshot();
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    write_metrics_csv(out, snap);
  } else {
    write_metrics_json(out, snap);
  }
  return true;
}

namespace {
// at-exit output paths; function-local statics so a captureless lambda
// handed to std::atexit can reach them.
std::string& exit_trace_path() {
  static std::string path;
  return path;
}
std::string& exit_metrics_path() {
  static std::string path;
  return path;
}
}  // namespace

void write_at_exit(const std::string& trace_path,
                   const std::string& metrics_path) {
  // Merge rather than assign: CLIs call this once per flag, and the
  // second call must not clobber the first call's path with "".
  if (!trace_path.empty()) exit_trace_path() = trace_path;
  if (!metrics_path.empty()) exit_metrics_path() = metrics_path;
  static bool installed = false;
  if (installed) return;
  installed = true;
  std::atexit([] {
    if (!exit_trace_path().empty()) write_chrome_trace_file(exit_trace_path());
    if (!exit_metrics_path().empty()) write_metrics_file(exit_metrics_path());
  });
}

}  // namespace sscl::trace
