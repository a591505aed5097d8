#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "device/mosfet.hpp"
#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "spice/ensemble.hpp"
#include "util/rng.hpp"

namespace sscl::spice {
namespace {

using device::MosGeometry;
using device::Mosfet;
using device::Process;

const Process kProc = Process::c180();

/// Subthreshold NMOS current mirror driving a resistive load: three
/// nodes, two channel devices whose mismatch moves the output voltage,
/// plus static elements covered by the block baseline.
struct MirrorNodes {
  NodeId g = kGround;
  NodeId d2 = kGround;
  NodeId vdd = kGround;
};

Topology::Builder mirror_builder(double as = 0.0, double ad = 0.0) {
  return [as, ad]() {
    auto c = std::make_unique<Circuit>();
    const NodeId g = c->node("g");
    const NodeId d2 = c->node("d2");
    const NodeId vdd = c->node("vdd");
    c->add<VoltageSource>("Vdd", vdd, kGround, SourceSpec::dc(1.2));
    c->add<CurrentSource>("Iref", vdd, g, SourceSpec::dc(1e-9));
    const MosGeometry geo{2e-6, 1e-6, as, ad};
    c->add<Mosfet>("M1", g, g, kGround, kGround, kProc.nmos, geo);
    c->add<Mosfet>("M2", d2, g, kGround, kGround, kProc.nmos, geo);
    c->add<Resistor>("RL", vdd, d2, 2e8);
    return c;
  };
}

MirrorNodes mirror_nodes(const Circuit& c) {
  MirrorNodes n;
  n.g = c.find_node("g").value();
  n.d2 = c.find_node("d2").value();
  n.vdd = c.find_node("vdd").value();
  return n;
}

EnsembleEngine::Measure mirror_measure(const MirrorNodes& n) {
  return [n](std::uint64_t, const Solution& op) {
    return std::vector<double>{op.v(n.g), op.v(n.d2), op.v(n.vdd)};
  };
}

std::vector<std::vector<double>> run_mirror(std::uint64_t samples,
                                            std::uint64_t seed,
                                            EnsembleOptions opts,
                                            EnsembleStats* stats = nullptr) {
  Topology topo(mirror_builder());
  const MirrorNodes n = mirror_nodes(topo.circuit());
  EnsembleEngine engine(topo, opts);
  auto rows = engine.run(samples, seed, mirror_measure(n));
  if (stats) *stats = engine.stats();
  return rows;
}

/// Reference per-sample solve under the documented mismatch contract:
/// a fresh replica, perturbed from Rng(seed).fork(s) with the ordinal
/// advancing over the devices that consume a draw, in circuit order.
Solution per_sample_op(const Topology::Builder& builder, std::uint64_t seed,
                       std::uint64_t s) {
  auto circuit = builder();
  const util::Rng stream = util::Rng(seed).fork(s);
  std::uint64_t ordinal = 0;
  for (const auto& device : circuit->devices()) {
    if (device->perturb_sample(stream, ordinal)) ++ordinal;
  }
  EXPECT_EQ(ordinal, 2u);  // exactly the two MOSFETs draw mismatch
  SolverOptions o;
  o.lint = false;
  Engine engine(*circuit, o);
  return engine.solve_op();
}

TEST(Ensemble, TopologyIsBatchableAndNominalOpMatchesEngine) {
  Topology topo(mirror_builder());
  EXPECT_TRUE(topo.batchable());

  auto circuit = topo.make_circuit();
  Engine engine(*circuit);
  const Solution op = engine.solve_op();
  const MirrorNodes n = mirror_nodes(topo.circuit());
  EXPECT_EQ(topo.nominal_op().v(n.g), op.v(n.g));
  EXPECT_EQ(topo.nominal_op().v(n.d2), op.v(n.d2));
  EXPECT_TRUE(topo.master_system().has_symbolic_factorization() ||
              topo.circuit().unknown_count() < 80);
}

/// The batched lockstep path must reproduce per-sample Engine solves
/// within Newton tolerance (they differ only by the absence of the
/// residual line search; both converge to vntol/reltol).
TEST(Ensemble, BatchedMatchesLegacyPerSampleWithinNewtonTolerance) {
  const std::uint64_t samples = 96;  // > one block, non-multiple tail
  EnsembleOptions batched;
  batched.block = 64;

  EnsembleStats bs;
  const auto rb = run_mirror(samples, 7, batched, &bs);
  ASSERT_EQ(rb.size(), samples);
  EXPECT_EQ(bs.samples, static_cast<long long>(samples));
  EXPECT_EQ(bs.batched_samples + bs.fallback_samples,
            static_cast<long long>(samples));
  EXPECT_GT(bs.batched_samples, 0);

  const MirrorNodes n = mirror_nodes(*mirror_builder()());
  double spread = 0.0;
  double first_d2 = 0.0;
  for (std::uint64_t s = 0; s < samples; ++s) {
    const Solution op = per_sample_op(mirror_builder(), 7, s);
    const std::vector<double> ref = mirror_measure(n)(s, op);
    ASSERT_EQ(rb[s].size(), ref.size());
    for (std::size_t i = 0; i < rb[s].size(); ++i) {
      EXPECT_NEAR(rb[s][i], ref[i], 1e-5) << "sample " << s << " col " << i;
    }
    if (s == 0) first_d2 = ref[1];
    spread = std::max(spread, std::fabs(ref[1] - first_d2));
  }
  // Sanity: the mismatch draws actually moved the output node, so the
  // comparison above is not vacuous.
  EXPECT_GT(spread, 1e-6);
}

/// Bit-identity across job counts: blocks have a fixed size and every
/// lane adopts the shared nominal pivot sequence, so the arithmetic
/// never depends on worker assignment.
TEST(Ensemble, ResultsAreBitIdenticalAcrossJobCounts) {
  const std::uint64_t samples = 150;  // odd block tail
  EnsembleOptions o1;
  o1.block = 32;
  o1.jobs = 1;
  EnsembleOptions o8 = o1;
  o8.jobs = 8;
  const auto r1 = run_mirror(samples, 11, o1);
  const auto r8 = run_mirror(samples, 11, o8);
  ASSERT_EQ(r1.size(), r8.size());
  for (std::uint64_t s = 0; s < samples; ++s) {
    ASSERT_EQ(r1[s].size(), r8[s].size());
    for (std::size_t i = 0; i < r1[s].size(); ++i) {
      EXPECT_EQ(r1[s][i], r8[s][i]) << "sample " << s;
    }
  }
}

/// The per-sample fallback inside the ensemble must equal a hand-rolled
/// per-sample solve using the documented mismatch contract. The
/// junction-bearing mirror is not batchable, so every sample takes the
/// fallback.
TEST(Ensemble, LegacyPathFollowsDocumentedMismatchContract) {
  const std::uint64_t seed = 23;
  const Topology::Builder builder = mirror_builder(1e-12, 1e-12);
  Topology topo(builder);
  ASSERT_FALSE(topo.batchable());
  const MirrorNodes n = mirror_nodes(topo.circuit());
  EnsembleEngine engine(topo);
  const auto rows = engine.run(5, seed, mirror_measure(n));
  EXPECT_EQ(engine.stats().fallback_samples, 5);

  for (std::uint64_t s = 0; s < 5; ++s) {
    const Solution op = per_sample_op(builder, seed, s);
    EXPECT_EQ(rows[s][0], op.v(n.g)) << s;
    EXPECT_EQ(rows[s][1], op.v(n.d2)) << s;
  }
}

/// A topology with junction-bearing MOSFETs cannot stage its state in
/// lanes: it must report non-batchable and route every sample through
/// the per-sample fallback, still bit-identical across job counts.
TEST(Ensemble, JunctionDevicesForceLegacyFallback) {
  Topology topo(mirror_builder(1e-12, 1e-12));
  EXPECT_FALSE(topo.batchable());
  const MirrorNodes n = mirror_nodes(topo.circuit());

  EnsembleOptions o1;
  o1.jobs = 1;
  EnsembleOptions o8 = o1;
  o8.jobs = 8;
  EnsembleEngine e1(topo, o1);
  const auto r1 = e1.run(24, 3, mirror_measure(n));
  EXPECT_EQ(e1.stats().fallback_samples, 24);
  EXPECT_EQ(e1.stats().batched_samples, 0);
  EnsembleEngine e8(topo, o8);
  const auto r8 = e8.run(24, 3, mirror_measure(n));
  for (std::size_t s = 0; s < r1.size(); ++s) {
    for (std::size_t i = 0; i < r1[s].size(); ++i) {
      EXPECT_EQ(r1[s][i], r8[s][i]) << s;
    }
  }
}

/// Lanes must adopt the master pivot sequence and replay it numerically
/// (numeric refactor, not a fresh pivot search), and stay bit-identical
/// across job counts.
TEST(Ensemble, SparseLanesReplayTheNominalPivotSequence) {
  Topology topo(mirror_builder());
  ASSERT_TRUE(topo.batchable());
  ASSERT_TRUE(topo.master_system().has_symbolic_factorization());
  const MirrorNodes n = mirror_nodes(topo.circuit());

  EnsembleOptions o1;
  o1.jobs = 1;
  o1.block = 16;
  EnsembleOptions o8 = o1;
  o8.jobs = 8;

  EnsembleEngine e1(topo, o1);
  const auto r1 = e1.run(64, 5, mirror_measure(n));
  const EnsembleStats st = e1.stats();
  EXPECT_GT(st.factor_adoptions, 0);
  EXPECT_GT(st.numeric_refactors, 0);
  EXPECT_GT(st.adoption_hit_rate(), 0.9);
  EXPECT_GT(st.soa_batches, 0);
  EXPECT_GT(st.newton_iterations, 0);

  EnsembleEngine e8(topo, o8);
  const auto r8 = e8.run(64, 5, mirror_measure(n));
  for (std::size_t s = 0; s < r1.size(); ++s) {
    for (std::size_t i = 0; i < r1[s].size(); ++i) {
      EXPECT_EQ(r1[s][i], r8[s][i]) << s;
    }
  }

  // And the sparse solutions agree with the default (dense, n < 80)
  // configuration within solver tolerance.
  EnsembleOptions dense;
  dense.block = 16;
  const auto rd = run_mirror(64, 5, dense);
  for (std::size_t s = 0; s < r1.size(); ++s) {
    for (std::size_t i = 0; i < r1[s].size(); ++i) {
      EXPECT_NEAR(r1[s][i], rd[s][i], 1e-5) << s;
    }
  }
}

}  // namespace
}  // namespace sscl::spice
