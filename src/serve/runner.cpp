#include "serve/runner.hpp"

#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/run.hpp"
#include "serve/protocol.hpp"
#include "trace/trace.hpp"
#include "util/units.hpp"

namespace sscl::serve {

using util::format_g17;

namespace {

const char* analysis_span(netlist::AnalysisCard::Kind kind) {
  switch (kind) {
    case netlist::AnalysisCard::Kind::kOp: return "serve.analysis.op";
    case netlist::AnalysisCard::Kind::kDc: return "serve.analysis.dc";
    case netlist::AnalysisCard::Kind::kTran: return "serve.analysis.tran";
    case netlist::AnalysisCard::Kind::kAc: return "serve.analysis.ac";
  }
  return "serve.analysis";
}

double node_of(const std::vector<double>& x, spice::NodeId n) {
  return n == spice::kGround ? 0.0 : x[static_cast<std::size_t>(n)];
}

}  // namespace

JobStatus run_job(CacheEntry& entry, const JobRequest& request,
                  const Sink& sink, run::CancelToken& token) {
  // Same-deck jobs share one Deck/Engine; this lock is the cache's
  // concurrency contract.
  std::lock_guard<std::mutex> run_lock(entry.run_mutex());
  netlist::Deck& deck = entry.deck();
  spice::Engine& engine = entry.engine();
  const spice::Circuit& circuit = *deck.circuit;

  sink("TITLE " + deck.title);
  // Warnings live on the cached Deck, so warm replies repeat them and
  // stay byte-identical to the cold reply.
  for (const auto& w : deck.warnings) {
    sink("WARN " + w.location + ": " + w.message);
  }

  // Restore the just-elaborated condition (bypass caches, integrator
  // state, nodesets) so a warm rerun is bit-identical to a cold one;
  // the symbolic factorisation survives on purpose (engine.hpp).
  engine.reset_runtime();
  const netlist::Warn warn = [&](const std::string& m) { sink("WARN " + m); };
  netlist::seed_nodesets(deck, engine, warn);
  const std::vector<spice::NodeId> nodes =
      netlist::pick_nodes(circuit, request.nodes, warn);

  // One "prefix v v v" payload line over the reported nodes.
  auto row = [&](std::string line, auto&& value_of) {
    for (auto n : nodes) {
      line += ' ';
      line += format_g17(value_of(n));
    }
    sink(line);
  };

  std::optional<trace::Span> span;
  long long accepted = 0;  // WAVE points count from each .tran's t = 0
  netlist::DeckHooks hooks;
  hooks.warn = warn;
  hooks.stop = [&] { return token.stop_requested(); };
  hooks.begin = [&](const netlist::AnalysisCard* card) {
    span.reset();
    span.emplace(card ? analysis_span(card->kind) : "serve.measures",
                 "serve");
    accepted = 0;
  };
  hooks.op = [&](const spice::Solution& op) {
    for (auto n : nodes) {
      sink("OP v(" + circuit.node_name(n) + ") " + format_g17(op.v(n)));
    }
  };
  hooks.dc = [&](const netlist::AnalysisCard&,
                 const spice::DcSweepResult& dc) {
    for (std::size_t i = 0; i < dc.values.size(); ++i) {
      row("DC " + format_g17(dc.values[i]),
          [&](spice::NodeId n) { return dc.solutions[i].v(n); });
    }
  };
  hooks.tran_step = [&](double t, const std::vector<double>& x) {
    if (request.stream_every > 0 && accepted % request.stream_every == 0) {
      row("WAVE " + format_g17(t),
          [&](spice::NodeId n) { return node_of(x, n); });
    }
    ++accepted;
  };
  hooks.tran = [&](const netlist::AnalysisCard&, const spice::Waveform& w) {
    sink("TRAN points " + std::to_string(w.size()));
    for (auto n : nodes) {
      sink("TRAN v(" + circuit.node_name(n) + ") " +
           format_g17(w.value(n, 0)) + ' ' + format_g17(w.minimum(n)) + ' ' +
           format_g17(w.maximum(n)) + ' ' + format_g17(w.final_value(n)));
    }
  };
  hooks.ac = [&](const netlist::AnalysisCard&, const spice::AcResult& ac) {
    sink("AC points " + std::to_string(ac.size()));
    for (auto n : nodes) {
      sink("AC v(" + circuit.node_name(n) + ") " +
           format_g17(ac.low_frequency_gain(n)) + ' ' +
           format_g17(ac.bandwidth_3db(n)));
    }
  };
  hooks.measures = [&](const std::vector<netlist::MeasureResult>& results) {
    // Reuse the deterministic CSV rows (name,value,error; %.17g) so
    // serve output diffs cleanly against deck_runner --measure-csv.
    std::istringstream csv(netlist::measures_to_csv(results));
    std::string line;
    std::getline(csv, line);  // drop the header
    while (std::getline(csv, line)) {
      if (!line.empty()) sink("MEASURE " + line);
    }
  };

  try {
    netlist::run_deck(deck, engine, hooks);
  } catch (const netlist::DeckStopped&) {
    return token.expired() ? JobStatus::kTimeout : JobStatus::kCancelled;
  } catch (const std::exception& e) {
    sink(std::string("ERROR ") + e.what());
    return JobStatus::kError;
  }
  return JobStatus::kOk;
}

}  // namespace sscl::serve
