#pragma once

/// \file protocol.hpp
/// The sscl-serve wire protocol: newline-delimited text, one command or
/// response per line (docs/SERVE.md has the full reference). Requests:
///
///   SUBMIT <nbytes> [client=NAME] [nodes=a,b,c] [stream=K] [timeout=MS]
///   <nbytes bytes of deck text>
///   CANCEL <job-id>
///   METRICS | STATS | PING | SHUTDOWN
///
/// Responses stream back as tagged lines and always finish with
/// `END <status>` (status: ok, error, cancelled, timeout, busy). Result
/// payload lines (OP/DC/TRAN/AC/WAVE/MEASURE) format every number with
/// %.17g (util::format_g17) and carry no job ids or timing, so they are
/// byte-comparable across runs, job counts and client interleavings;
/// ids and tier labels ride on the QUEUED/BEGIN/CACHE envelope lines
/// instead.
///
/// This header is shared by the in-process Server, the socket transport
/// and the blocking Client, so the parser and the formatter cannot
/// drift apart.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/job.hpp"

namespace sscl::serve {

/// One parsed request line.
struct Command {
  enum class Kind {
    kSubmit,
    kCancel,
    kMetrics,
    kStats,
    kPing,
    kShutdown,
    kBad,
  };
  Kind kind = Kind::kBad;
  std::string error;        ///< kBad: what was wrong
  std::size_t nbytes = 0;   ///< kSubmit: deck payload size
  JobRequest request;       ///< kSubmit: options (deck_text filled later)
  long long job_id = 0;     ///< kCancel
};

/// Parse one request line (without the trailing newline).
Command parse_command(const std::string& line);

/// Format the SUBMIT header line for \p request (payload sent
/// separately by the transport).
std::string format_submit(const JobRequest& request);

}  // namespace sscl::serve
