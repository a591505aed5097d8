/// \file test_lint_gate_alloc.cpp
/// The structural lint gate every Engine construction runs
/// (lint::enforce_circuit, op-region off) allocates a bounded number of
/// times, not per element: the view and its analysis IR live in flat
/// arrays. This executable replaces the global operator new to count
/// its calls.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "lint/check.hpp"
#include "netlist/netlist.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<long long> g_allocations{0};
}  // namespace

// The replacements pair operator new with std::malloc and operator
// delete with std::free, which GCC's mismatch check cannot see.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace sscl::lint {
namespace {

/// Allocations one gate run may make: the pass objects and their
/// schedule, the per-pass reports, and a fixed number of flat arrays for
/// the view, the IR and the dataflow passes (each grown geometrically).
/// Five per element, as a per-device DeviceInfo and per-node incidence
/// lists cost, would be over 10,000 on serve_bench.sp.
constexpr long long kGateAllocations = 256;

netlist::Deck read_deck(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return netlist::parse_netlist(text.str());
}

long long count_gate_allocations(const spice::Circuit& circuit) {
  g_allocations = 0;
  g_counting = true;
  enforce_circuit(circuit);
  g_counting = false;
  return g_allocations.load();
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
  EXPECT_LE(allocations, kGateAllocations);
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
  EXPECT_LE(allocations, kGateAllocations);
}

}  // namespace
}  // namespace sscl::lint
