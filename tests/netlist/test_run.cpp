/// The deck executor's stop contract: DeckHooks::stop ends a run with
/// DeckStopped wherever it fires, and a stopped .dc sweep still hands
/// the swept source back as the deck wrote it.

#include "netlist/run.hpp"

#include <gtest/gtest.h>

#include "spice/elements.hpp"

namespace sscl::netlist {
namespace {

const char* kDeck =
    "stop\n"
    "V1 in 0 pulse(0 1 0 1n 1n 50n 100n)\n"
    "R1 in out 10k\n"
    "C1 out 0 1p\n"
    ".dc V1 0 1 0.25\n"
    ".tran 1n 100n\n"
    ".end\n";

/// A stop hook that fires on its \p n-th poll.
DeckHooks stop_at(int n, int& polls) {
  DeckHooks hooks;
  hooks.stop = [n, &polls] { return ++polls >= n; };
  return hooks;
}

TEST(RunDeck, StopDuringDcSweepRestoresTheSource) {
  Deck deck = parse_netlist(kDeck);
  spice::Engine engine(*deck.circuit);
  const auto* v1 =
      dynamic_cast<spice::VoltageSource*>(deck.circuit->find_device("V1"));
  ASSERT_NE(v1, nullptr);
  // Poll 1 precedes the .dc card, polls 2.. precede its sweep points:
  // stop at the third point, while the source holds the second's 0.25 V.
  int polls = 0;
  EXPECT_THROW(run_deck(deck, engine, stop_at(4, polls)), DeckStopped);
  EXPECT_EQ(polls, 4);
  EXPECT_EQ(v1->spec().value(10e-9), 1.0);  // the pulse, not dc(0.5)
}

TEST(RunDeck, StopDuringTransientThrowsDeckStopped) {
  Deck deck = parse_netlist(kDeck);
  spice::Engine engine(*deck.circuit);
  int polls = 0;
  int sweeps = 0, steps = 0;
  DeckHooks hooks = stop_at(20, polls);
  hooks.dc = [&](const AnalysisCard&, const spice::DcSweepResult&) {
    ++sweeps;
  };
  hooks.tran_step = [&](double, const std::vector<double>&) { ++steps; };
  EXPECT_THROW(run_deck(deck, engine, hooks), DeckStopped);
  EXPECT_EQ(sweeps, 1);
  // 1 + 5 polls for the .dc card, 1 before the .tran card, then one per
  // accepted step until the 20th poll stops the run.
  EXPECT_EQ(steps, 20 - 7 - 1);
}

}  // namespace
}  // namespace sscl::netlist
