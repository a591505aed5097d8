#pragma once

/// \file run.hpp
/// Stage 6 of the netlist front-end: the deck executor. run_deck runs a
/// Deck's analysis cards in deck order on one Engine, then evaluates
/// its .measure cards against the last .tran and the last successful
/// .dc. Callers (deck_runner, sscl-serve) format the results through
/// DeckHooks; everything about running the cards lives here.

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/measure.hpp"
#include "netlist/netlist.hpp"
#include "spice/ac.hpp"

namespace sscl::netlist {

/// Receives one warning message (no prefix, no newline).
using Warn = std::function<void(const std::string& message)>;

/// Seed the Newton start of the operating point from the deck's .ic and
/// .nodeset entries. The engine has no transient-UIC path, so .ic is a
/// strong hint, not a constraint (docs/NETLIST.md). An entry on an
/// unknown node is reported through \p warn and skipped.
void seed_nodesets(const Deck& deck, spice::Engine& engine, const Warn& warn);

/// The nodes named in \p wanted, or every node when it is empty. An
/// unknown name is reported through \p warn and skipped.
std::vector<spice::NodeId> pick_nodes(const spice::Circuit& circuit,
                                      const std::vector<std::string>& wanted,
                                      const Warn& warn);

/// Thrown by run_deck when DeckHooks::stop asked the run to end.
class DeckStopped : public std::runtime_error {
 public:
  DeckStopped() : std::runtime_error("deck run stopped by caller") {}
};

/// What a caller sees of a run. Every member is optional.
struct DeckHooks {
  /// A .dc on an unknown source; the run skips the card and continues.
  Warn warn;
  /// Polled before each card, before the .measure cards, at every DC
  /// point and at every accepted transient step; true ends the run with
  /// DeckStopped.
  std::function<bool()> stop;
  /// Called before each card, and with nullptr before the .measure
  /// cards.
  std::function<void(const AnalysisCard* card)> begin;

  std::function<void(const spice::Solution& op)> op;
  std::function<void(const AnalysisCard& card,
                     const spice::DcSweepResult& sweep)>
      dc;
  /// Every accepted transient point, t = 0 included; must not touch the
  /// engine.
  std::function<void(double t, const std::vector<double>& x)> tran_step;
  std::function<void(const AnalysisCard& card, const spice::Waveform& w)> tran;
  std::function<void(const AnalysisCard& card, const spice::AcResult& ac)> ac;
  std::function<void(const std::vector<MeasureResult>& results)> measures;
};

/// Run every analysis card of \p deck on \p engine, then its .measure
/// cards. A swept .dc source gets its deck value back afterwards, also
/// when the sweep throws or is stopped. Errors propagate as exceptions.
void run_deck(Deck& deck, spice::Engine& engine, const DeckHooks& hooks);

}  // namespace sscl::netlist
