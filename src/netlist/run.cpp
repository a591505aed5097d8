#include "netlist/run.hpp"

#include "spice/dcsweep.hpp"
#include "spice/elements.hpp"
#include "spice/transient.hpp"

namespace sscl::netlist {

namespace {

void poll(const DeckHooks& hooks) {
  if (hooks.stop && hooks.stop()) throw DeckStopped();
}

/// Sweep the source a .dc card names into \p out. The sweep mutates the
/// source's spec; restore it so later analyses (and a cached circuit's
/// next run) see the source as written. Returns false, sweeping
/// nothing, when the card names no V or I source.
bool sweep_source(const AnalysisCard& card, const spice::Circuit& circuit,
                  spice::Engine& engine, const DeckHooks& hooks,
                  spice::DcSweepResult& out) {
  spice::Device* device = circuit.find_device(card.sweep_source);
  auto* vsrc = dynamic_cast<spice::VoltageSource*>(device);
  auto* isrc = dynamic_cast<spice::CurrentSource*>(device);
  if (!vsrc && !isrc) return false;
  const spice::SourceSpec saved = vsrc ? vsrc->spec() : isrc->spec();
  auto set_source = [&](const spice::SourceSpec& spec) {
    if (vsrc) vsrc->set_spec(spec);
    if (isrc) isrc->set_spec(spec);
  };
  std::vector<double> values;
  for (double v = card.sweep_start; v <= card.sweep_stop + 1e-15;
       v += card.sweep_step) {
    values.push_back(v);
  }
  try {
    out = spice::run_dc_sweep(engine, values, [&](double v) {
      poll(hooks);
      set_source(spice::SourceSpec::dc(v));
    });
  } catch (...) {
    set_source(saved);
    throw;
  }
  set_source(saved);
  return true;
}

}  // namespace

void seed_nodesets(const Deck& deck, spice::Engine& engine, const Warn& warn) {
  for (const auto* list : {&deck.ics, &deck.nodesets}) {
    for (const IcSpec& ic : *list) {
      if (auto n = deck.circuit->find_node(ic.node)) {
        engine.set_nodeset(*n, ic.volts);
      } else {
        warn(".ic/.nodeset on unknown node '" + ic.node + "'");
      }
    }
  }
}

std::vector<spice::NodeId> pick_nodes(const spice::Circuit& circuit,
                                      const std::vector<std::string>& wanted,
                                      const Warn& warn) {
  std::vector<spice::NodeId> nodes;
  if (wanted.empty()) {
    for (int n = 0; n < circuit.node_count(); ++n) nodes.push_back(n);
    return nodes;
  }
  for (const std::string& name : wanted) {
    if (auto n = circuit.find_node(name)) {
      nodes.push_back(*n);
    } else {
      warn("no node named '" + name + "'");
    }
  }
  return nodes;
}

void run_deck(Deck& deck, spice::Engine& engine, const DeckHooks& hooks) {
  spice::Waveform tran;
  spice::DcSweepResult dc;
  for (const AnalysisCard& card : deck.analyses) {
    poll(hooks);
    if (hooks.begin) hooks.begin(&card);
    switch (card.kind) {
      case AnalysisCard::Kind::kOp: {
        const spice::Solution op = engine.solve_op();
        if (hooks.op) hooks.op(op);
        break;
      }
      case AnalysisCard::Kind::kDc: {
        if (!sweep_source(card, *deck.circuit, engine, hooks, dc)) {
          if (hooks.warn) {
            hooks.warn(".dc: unknown source " + card.sweep_source);
          }
          break;
        }
        if (hooks.dc) hooks.dc(card, dc);
        break;
      }
      case AnalysisCard::Kind::kTran: {
        spice::TransientOptions opts;
        opts.tstop = card.tstop;
        opts.on_accept = [&](double t, const std::vector<double>& x) {
          if (hooks.stop && hooks.stop()) return false;
          if (hooks.tran_step) hooks.tran_step(t, x);
          return true;
        };
        try {
          tran = spice::run_transient(engine, opts);
        } catch (const spice::TransientAborted&) {
          throw DeckStopped();
        }
        if (hooks.tran) hooks.tran(card, tran);
        break;
      }
      case AnalysisCard::Kind::kAc: {
        const spice::AcResult ac = spice::run_ac_decade(
            engine, card.f_start, card.f_stop, card.points_per_decade);
        if (hooks.ac) hooks.ac(card, ac);
        break;
      }
    }
  }

  if (deck.measures.empty()) return;
  poll(hooks);
  if (hooks.begin) hooks.begin(nullptr);
  MeasureInput input;
  input.circuit = deck.circuit.get();
  input.tran = tran.empty() ? nullptr : &tran;
  input.dc = dc.values.empty() ? nullptr : &dc;
  input.params = &deck.params;
  const std::vector<MeasureResult> results = run_measures(deck.measures, input);
  if (hooks.measures) hooks.measures(results);
}

}  // namespace sscl::netlist
