#include "serve/protocol.hpp"

#include <climits>
#include <cstdint>
#include <optional>
#include <sstream>

#include "util/units.hpp"

namespace sscl::serve {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string word;
  while (is >> word) out.push_back(std::move(word));
  return out;
}

Command bad(const std::string& why) {
  Command c;
  c.kind = Command::Kind::kBad;
  c.error = why;
  return c;
}

Command bad_value(const std::string& key) {
  return bad("SUBMIT: bad value for '" + key + "'");
}

/// Parses a whole word of decimal digits into \p out (no sign).
bool parse_int(const std::string& text, int& out) {
  const std::optional<std::uint64_t> n = util::parse_decimal(text, INT_MAX);
  if (n) out = static_cast<int>(*n);
  return n.has_value();
}

}  // namespace

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kError:
      return "error";
    case JobStatus::kCancelled:
      return "cancelled";
    case JobStatus::kTimeout:
      return "timeout";
  }
  return "error";
}

Command parse_command(const std::string& line) {
  const std::vector<std::string> words = split_ws(line);
  if (words.empty()) return bad("empty command");
  const std::string& verb = words[0];
  Command c;
  if (verb == "SUBMIT") {
    if (words.size() < 2) return bad("SUBMIT needs a byte count");
    const std::optional<std::uint64_t> nbytes =
        util::parse_decimal(words[1], SIZE_MAX);
    if (!nbytes) return bad("SUBMIT: bad byte count '" + words[1] + "'");
    c.nbytes = static_cast<std::size_t>(*nbytes);
    for (std::size_t i = 2; i < words.size(); ++i) {
      const std::string& opt = words[i];
      const auto eq = opt.find('=');
      if (eq == std::string::npos) return bad("SUBMIT: bad option '" + opt + "'");
      const std::string key = opt.substr(0, eq);
      const std::string val = opt.substr(eq + 1);
      if (key == "client") {
        c.request.client = val;
      } else if (key == "nodes") {
        std::istringstream is(val);
        std::string node;
        while (std::getline(is, node, ',')) {
          if (!node.empty()) c.request.nodes.push_back(node);
        }
      } else if (key == "stream") {
        if (!parse_int(val, c.request.stream_every)) return bad_value(key);
      } else if (key == "timeout") {
        if (!parse_int(val, c.request.timeout_ms)) return bad_value(key);
      } else {
        return bad("SUBMIT: unknown option '" + key + "'");
      }
    }
    c.kind = Command::Kind::kSubmit;
    return c;
  }
  if (verb == "CANCEL") {
    if (words.size() != 2) return bad("CANCEL needs a job id");
    const std::optional<std::uint64_t> id =
        util::parse_decimal(words[1], LLONG_MAX);
    if (!id) return bad("CANCEL: bad job id '" + words[1] + "'");
    c.job_id = static_cast<long long>(*id);
    c.kind = Command::Kind::kCancel;
    return c;
  }
  if (words.size() != 1) return bad(verb + " takes no arguments");
  if (verb == "METRICS") {
    c.kind = Command::Kind::kMetrics;
  } else if (verb == "STATS") {
    c.kind = Command::Kind::kStats;
  } else if (verb == "PING") {
    c.kind = Command::Kind::kPing;
  } else if (verb == "SHUTDOWN") {
    c.kind = Command::Kind::kShutdown;
  } else {
    return bad("unknown command '" + verb + "'");
  }
  return c;
}

std::string format_submit(const JobRequest& request) {
  std::ostringstream os;
  os << "SUBMIT " << request.deck_text.size();
  if (!request.client.empty() && request.client != "default") {
    os << " client=" << request.client;
  }
  if (!request.nodes.empty()) {
    os << " nodes=";
    for (std::size_t i = 0; i < request.nodes.size(); ++i) {
      if (i) os << ',';
      os << request.nodes[i];
    }
  }
  if (request.stream_every > 0) os << " stream=" << request.stream_every;
  if (request.timeout_ms > 0) os << " timeout=" << request.timeout_ms;
  return os.str();
}

}  // namespace sscl::serve
