#pragma once

/// \file ac_golden_cases.hpp
/// The analyses tests/spice/golden/ac_dense.csv pins: every circuit of
/// test_ac.cpp and test_noise.cpp, the preamp's AC sweep, and one
/// circuit in which all twelve load_ac overrides stamp (R, C, L, V and I
/// with AC, E/F/G/H, SoftOpamp, Diode, and NMOS and PMOS with and
/// without junction areas). The golden was written by the dense complex
/// LU that AC and noise used to solve on.
///
/// Golden rows are `case,quantity,frequency,index,re,im`:
///  - `x`: unknown `index` of the AC solution at `frequency`;
///  - `s_out`: the output noise PSD at `frequency` (index 0, im 0);
///  - `source_contribution`: the integrated contribution of noise
///    source `index` (frequency 0, im 0).

#include <cmath>
#include <complex>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analog/preamp.hpp"
#include "device/diode.hpp"
#include "device/ekv.hpp"
#include "device/mosfet.hpp"
#include "spice/ac.hpp"
#include "spice/elements.hpp"
#include "spice/noise.hpp"
#include "util/numeric.hpp"

namespace sscl::spice {

/// One pinned analysis. build() fills the circuit and returns the output
/// pair of a noise run (an AC run ignores it).
struct AcGoldenCase {
  std::string name;
  bool noise = false;
  std::vector<double> frequencies;
  std::function<std::pair<NodeId, NodeId>(Circuit&)> build;
};

struct AcGoldenRow {
  std::string quantity;
  double frequency = 0.0;
  int index = 0;
  std::complex<double> value;
};

inline std::pair<NodeId, NodeId> build_rc_low_pass(Circuit& c) {
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(0.0).with_ac(1.0));
  c.add<Resistor>("R1", in, out, 1e3);
  c.add<Capacitor>("C1", out, kGround, 1e-9);
  return {out, kGround};
}

inline std::pair<NodeId, NodeId> build_rc_noise(Circuit& c, double r,
                                                double cap) {
  const NodeId out = c.node("out");
  c.add<Resistor>("R1", out, kGround, r);
  c.add<Capacitor>("C1", out, kGround, cap);
  return {out, kGround};
}

inline std::pair<NodeId, NodeId> build_preamp_1n(Circuit& c) {
  analog::PreampParams p;
  p.iss = 1e-9;
  p.r_decouple = 10.0 * p.vsw / p.iss;
  const analog::PreampInstance inst =
      analog::build_preamp(c, device::Process::c180(), p);
  return {inst.out_p, inst.out_n};
}

/// Every device kind with a load_ac override, each with its terminals
/// off ground where that puts its stamps into real slots.
inline std::pair<NodeId, NodeId> build_every_load_ac(Circuit& c) {
  const device::Process proc = device::Process::c180();
  const NodeId vdd = c.node("vdd");
  const NodeId ni = c.node("ni");
  const NodeId n1 = c.node("n1");
  const NodeId n2 = c.node("n2");
  const NodeId n3 = c.node("n3");
  c.add<VoltageSource>("Vdd", vdd, kGround,
                       SourceSpec::dc(1.2).with_ac(1.0, 10.0));
  c.add<CurrentSource>("I1", kGround, ni,
                       SourceSpec::dc(1e-6).with_ac(1e-6, 30.0));
  device::DiodeParams dp;
  dp.cj0 = 1e-13;
  c.add<device::Diode>("D1", ni, kGround, dp);
  c.add<Resistor>("R1", vdd, n1, 1e5);
  c.add<Capacitor>("C1", n1, kGround, 1e-12);
  c.add<Inductor>("L1", n1, n2, 1e-3);
  auto* vsense =
      c.add<VoltageSource>("Vsense", n2, n3, SourceSpec::dc(0.0));
  c.add<Resistor>("R2", n3, kGround, 1e5);

  const NodeId ne = c.node("ne");
  c.add<Vcvs>("E1", ne, kGround, n1, ni, 2.0);
  c.add<Resistor>("Re", ne, kGround, 1e5);
  const NodeId ng = c.node("ng");
  c.add<Vccs>("G1", ng, kGround, n1, kGround, 1e-6);
  c.add<Resistor>("Rg", ng, kGround, 1e5);
  const NodeId nf = c.node("nf");
  c.add<Cccs>("F1", nf, kGround, vsense, 2.0);
  c.add<Resistor>("Rf", nf, kGround, 1e4);
  const NodeId nh = c.node("nh");
  c.add<Ccvs>("H1", nh, kGround, vsense, 1e4);
  c.add<Resistor>("Rh", nh, kGround, 1e5);
  const NodeId no = c.node("no");
  c.add<SoftOpamp>("U1", no, n1, no, 1e3, 0.0, 1.2, 1e3);
  c.add<Resistor>("Ro", no, kGround, 1e6);

  const device::MosGeometry bare{1e-6, 1e-6, 0, 0};
  const device::MosGeometry junctions{1e-6, 1e-6, 1e-12, 1e-12};
  const NodeId nm1 = c.node("nm1");
  c.add<device::Mosfet>("M1", nm1, n1, kGround, kGround, proc.nmos, bare);
  c.add<Resistor>("Rm1", vdd, nm1, 1e7);
  const NodeId nm2 = c.node("nm2");
  const NodeId nm2s = c.node("nm2s");
  c.add<device::Mosfet>("M2", nm2, n1, nm2s, kGround, proc.nmos, junctions);
  c.add<Resistor>("Rm2", vdd, nm2, 1e7);
  c.add<Resistor>("Rm2s", nm2s, kGround, 1e5);
  const NodeId np3 = c.node("np3");
  c.add<device::Mosfet>("M3", np3, n1, vdd, vdd, proc.pmos, bare);
  c.add<Resistor>("Rp3", np3, kGround, 1e7);
  const NodeId np4 = c.node("np4");
  const NodeId np4s = c.node("np4s");
  c.add<device::Mosfet>("M4", np4, n1, np4s, vdd, proc.pmos, junctions);
  c.add<Resistor>("Rp4s", vdd, np4s, 1e5);
  c.add<Resistor>("Rp4", np4, kGround, 1e7);
  return {nm2, np4};
}

inline std::vector<AcGoldenCase> ac_golden_cases() {
  std::vector<AcGoldenCase> cases;
  auto ac = [&](std::string name, std::vector<double> f,
                std::function<std::pair<NodeId, NodeId>(Circuit&)> build) {
    cases.push_back({std::move(name), false, std::move(f), std::move(build)});
  };
  auto noise = [&](std::string name, std::vector<double> f,
                   std::function<std::pair<NodeId, NodeId>(Circuit&)> build) {
    cases.push_back({std::move(name), true, std::move(f), std::move(build)});
  };
  auto decade = [](double f_start, double f_stop, int per_decade) {
    const double decades = std::log10(f_stop / f_start);
    const auto n =
        static_cast<std::size_t>(std::ceil(decades * per_decade)) + 1;
    return util::logspace(f_start, f_stop, n);
  };

  // test_ac.cpp
  const double f_rc = 1.0 / (2 * M_PI * 1e3 * 1e-9);
  ac("rc_low_pass", decade(f_rc / 1000, f_rc * 1000, 20), build_rc_low_pass);
  ac("rc_phase_at_pole", {1.0 / (2 * M_PI * 1e-6)}, build_rc_low_pass);
  const double f_lc = 1.0 / (2 * M_PI * std::sqrt(1e-3 * 1e-9));
  ac("rlc_resonance", decade(f_lc / 100, f_lc * 100, 40), [](Circuit& c) {
    const NodeId in = c.node("in");
    const NodeId n1 = c.node("n1");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(0.0).with_ac(1.0));
    c.add<Inductor>("L1", in, n1, 1e-3);
    c.add<Capacitor>("C1", n1, out, 1e-9);
    c.add<Resistor>("R1", out, kGround, 50.0);
    return std::make_pair(out, kGround);
  });
  ac("vcvs_amplifier", decade(1.0, 1e6, 5), [](Circuit& c) {
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(0.0).with_ac(1.0));
    c.add<Vcvs>("E1", out, kGround, in, kGround, 42.0);
    c.add<Resistor>("RL", out, kGround, 1e3);
    return std::make_pair(out, kGround);
  });
  ac("magnitude_db", {1e3}, [](Circuit& c) {
    const NodeId in = c.node("in");
    c.add<VoltageSource>("V1", in, kGround,
                         SourceSpec::dc(0.0).with_ac(10.0));
    c.add<Resistor>("R1", in, kGround, 1e3);
    return std::make_pair(in, kGround);
  });

  // test_noise.cpp
  for (double r : {1e3, 1e5, 1e7}) {
    const double f_pole = 1.0 / (2 * M_PI * r * 1e-12);
    noise("kt_over_c_r" + std::to_string(static_cast<int>(std::log10(r))),
          decade(f_pole / 1e3, f_pole * 1e3, 40),
          [r](Circuit& c) { return build_rc_noise(c, r, 1e-12); });
  }
  noise("white_below_pole", {1.0, 10.0, 100.0},
        [](Circuit& c) { return build_rc_noise(c, 1e6, 1e-12); });
  noise("two_resistors", {100.0}, [](Circuit& c) {
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("V1", in, kGround, SourceSpec::dc(1.0));
    c.add<Resistor>("R1", in, out, 2e3);
    c.add<Resistor>("R2", out, kGround, 2e3);
    return std::make_pair(out, kGround);
  });
  noise("mos_channel_shot", {1.0, 2.0}, [](Circuit& c) {
    const device::Process proc = device::Process::c180();
    const NodeId vdd = c.node("vdd");
    const NodeId out = c.node("out");
    const NodeId in = c.node("in");
    c.add<VoltageSource>("Vdd", vdd, kGround, SourceSpec::dc(1.2));
    c.add<Resistor>("RL", vdd, out, 1e8);
    const device::MosGeometry geo{2e-6, 1e-6, 0, 0};
    const double vbias =
        device::ekv_vgs_for_current(proc.nmos, geo, 6e-9, 0.6, 300.15);
    c.add<VoltageSource>("Vin", in, kGround, SourceSpec::dc(vbias));
    c.add<device::Mosfet>("M1", out, in, kGround, kGround, proc.nmos, geo,
                          300.15);
    return std::make_pair(out, kGround);
  });
  noise("preamp_floor", decade(1.0, 1e3, 10), build_preamp_1n);
  noise("preamp_wide", decade(1.0, 10e6, 10), build_preamp_1n);

  // The preamp's AC sweep as measure_preamp_response runs it at 1 nA.
  const double gm = 1e-9 / (device::Process::c180().nmos.n * 0.0259);
  ac("preamp_ac", decade(1e-2, 100.0 * gm / (2 * M_PI * 1e-15), 10),
     build_preamp_1n);

  ac("every_load_ac", decade(1.0, 1e9, 2), build_every_load_ac);
  noise("every_load_ac_noise", decade(1.0, 1e9, 2), build_every_load_ac);
  return cases;
}

/// Run one case on a fresh circuit and engine.
inline std::vector<AcGoldenRow> run_ac_golden_case(const AcGoldenCase& gc) {
  Circuit c;
  const auto [out_p, out_n] = gc.build(c);
  Engine engine(c);
  std::vector<AcGoldenRow> rows;
  if (!gc.noise) {
    const AcResult res = run_ac(engine, gc.frequencies);
    for (std::size_t i = 0; i < res.size(); ++i) {
      for (std::size_t k = 0; k < res[i].x.size(); ++k) {
        rows.push_back({"x", res[i].frequency, static_cast<int>(k),
                        res[i].x[k]});
      }
    }
    return rows;
  }
  const NoiseResult nr = run_noise(engine, out_p, out_n, gc.frequencies);
  for (std::size_t i = 0; i < nr.frequencies.size(); ++i) {
    rows.push_back({"s_out", nr.frequencies[i], 0, nr.s_out[i]});
  }
  for (std::size_t k = 0; k < nr.source_contribution.size(); ++k) {
    rows.push_back({"source_contribution", 0.0, static_cast<int>(k),
                    nr.source_contribution[k]});
  }
  return rows;
}

}  // namespace sscl::spice
