/// \file test_lint_gate_alloc.cpp
/// The structural lint gate every Engine construction runs
/// (lint::enforce_circuit, op-region off) allocates a bounded number of
/// times, not per element: the view and its analysis IR live in flat
/// arrays. This executable counts operator new calls
/// (support/counting_new.hpp).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "lint/check.hpp"
#include "netlist/netlist.hpp"
#include "support/counting_new.hpp"

namespace sscl::lint {
namespace {

/// Allocations one gate run may make: the pass objects, the report,
/// and a fixed number of flat arrays for the view, the IR and the
/// dataflow passes (each grown geometrically). Each bound is the
/// count when it was set plus about 15%: room for a container growth
/// policy, not for a map or list per pass, node or device. Five
/// allocations per element, as a per-device DeviceInfo and per-node
/// incidence lists cost, would be over 10,000 on serve_bench.sp.
constexpr long long kServeBenchGateAllocations = 82;  // 71 when set
constexpr long long kFabricGateAllocations = 123;     // 107 when set

netlist::Deck read_deck(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return netlist::parse_netlist(text.str());
}

long long count_gate_allocations(const spice::Circuit& circuit) {
  test_support::start_counting_allocations();
  enforce_circuit(circuit);
  return test_support::stop_counting_allocations().calls;
}

// A deck of resistors and sources: no MOSFET, so the source-coupled and
// bias passes find nothing to do.
TEST(LintGateAllocations, ServeBenchGateIsNotPerElement) {
  const netlist::Deck deck =
      read_deck(std::string(SSCL_EXAMPLE_DECK_DIR) + "/serve_bench.sp");
  const std::size_t elements = deck.circuit->devices().size();
  ASSERT_GT(elements, 2000u);

  const long long allocations = count_gate_allocations(*deck.circuit);
  std::printf("allocations %lld for %zu elements\n", allocations, elements);
  EXPECT_LE(allocations, kServeBenchGateAllocations);
}

// The 50-gate STSCL fabric: 50 source-coupled pairs on one replica-bias
// generator, so the tail rules and the bias-provenance dataflow run too.
TEST(LintGateAllocations, StsclFabricGateIsNotPerDeviceOrPair) {
  const netlist::Deck deck = read_deck(std::string(SSCL_LINT_GOLDEN_DIR) +
                                       "/decks/stscl_fabric_50.sp");
  const std::size_t elements = deck.circuit->devices().size();
  ASSERT_GT(elements, 300u);

  const long long allocations = count_gate_allocations(*deck.circuit);
  std::printf("allocations %lld for %zu elements\n", allocations, elements);
  EXPECT_LE(allocations, kFabricGateAllocations);
}

}  // namespace
}  // namespace sscl::lint
