#pragma once

/// \file runner.hpp
/// Executes one admitted job against a cache entry: resets the shared
/// engine to its just-elaborated condition, runs the deck's cards
/// through netlist::run_deck and streams the results as protocol
/// payload lines (docs/SERVE.md). Cooperative cancellation/timeout is
/// checked between analyses, at every DC sweep point and at every
/// accepted transient step.

#include "run/cancel.hpp"
#include "serve/cache.hpp"
#include "serve/job.hpp"

namespace sscl::serve {

/// Run \p request on \p entry (the caller already holds no locks; this
/// takes entry.run_mutex() for the duration). Emits TITLE/WARN and the
/// OP/DC/TRAN/AC/WAVE/MEASURE payload lines to \p sink — but not the
/// QUEUED/BEGIN/CACHE/END envelope, which belongs to the Server.
/// Returns the terminal status; on kError an ERROR line has been
/// emitted.
JobStatus run_job(CacheEntry& entry, const JobRequest& request,
                  const Sink& sink, run::CancelToken& token);

}  // namespace sscl::serve
