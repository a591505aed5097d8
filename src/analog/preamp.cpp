#include "analog/preamp.hpp"

#include "device/diode.hpp"
#include "device/mosfet.hpp"
#include "spice/ac.hpp"
#include "spice/engine.hpp"

namespace sscl::analog {

using spice::Circuit;
using spice::CurrentSource;
using spice::kGround;
using spice::NodeId;
using spice::SoftOpamp;
using spice::SourceSpec;
using spice::VoltageSource;

PreampInstance build_preamp(Circuit& c, const device::Process& process,
                            const PreampParams& params) {
  PreampInstance inst{};
  const NodeId vdd = c.node("pa_vdd");
  c.add<VoltageSource>("Vdd_pa", vdd, kGround, SourceSpec::dc(params.vdd));

  // ---- bias: VBN mirror and VBP replica (same scheme as the fabric).
  const NodeId vbn = c.node("pa_vbn");
  c.add<CurrentSource>("Ibn_pa", vdd, vbn, SourceSpec::dc(params.iss));
  c.add<device::Mosfet>("Mbn_pa", vbn, vbn, kGround, kGround,
                        process.nmos_hvt, params.tail, process.temperature);
  const NodeId vbp = c.node("pa_vbp");
  const NodeId rep = c.node("pa_rep");
  c.add<device::Mosfet>("Mbp_pa", rep, vbp, vdd, rep, process.pmos,
                        params.load, process.temperature);
  c.add<CurrentSource>("Ibp_pa", rep, kGround, SourceSpec::dc(params.iss));
  const NodeId vref_b = c.node("pa_vref");
  c.add<VoltageSource>("Vsw_pa", vdd, vref_b, SourceSpec::dc(params.vsw));
  c.add<SoftOpamp>("Abias_pa", vbp, rep, vref_b, 500.0, -0.8, 2.4, 1e3);
  c.add<spice::Capacitor>("Crep_pa", rep, kGround, 10e-12);
  c.add<spice::Capacitor>("Cvbp_pa", vbp, kGround, 100e-15);

  // ---- inputs.
  inst.in_p = c.node("pa_inp");
  inst.in_n = c.node("pa_inn");
  inst.ref_p = c.node("pa_refp");
  inst.ref_n = c.node("pa_refn");
  inst.vin_src = c.add<VoltageSource>(
      "Vin_pa", inst.in_p, kGround,
      SourceSpec::dc(params.v_cm).with_ac(0.5));
  c.add<VoltageSource>("Vin_pa_n", inst.in_n, kGround,
                       SourceSpec::dc(params.v_cm).with_ac(0.5, 180.0));
  c.add<VoltageSource>("Vref_pa_p", inst.ref_p, kGround,
                       SourceSpec::dc(params.v_cm));
  c.add<VoltageSource>("Vref_pa_n", inst.ref_n, kGround,
                       SourceSpec::dc(params.v_cm));

  inst.out_p = c.node("pa_outp");
  inst.out_n = c.node("pa_outn");

  // ---- two differential pairs (double difference).
  auto add_pair = [&](const std::string& n, NodeId gp, NodeId gn, NodeId dp,
                      NodeId dn) {
    const NodeId tail = c.internal_node(n + "_tail");
    c.add<device::Mosfet>(n + "_Mt", tail, vbn, kGround, kGround,
                          process.nmos_hvt, params.tail, process.temperature);
    c.add<device::Mosfet>(n + "_M1", dn, gp, tail, kGround, process.nmos,
                          params.pair, process.temperature);
    c.add<device::Mosfet>(n + "_M2", dp, gn, tail, kGround, process.nmos,
                          params.pair, process.temperature);
  };
  // Signal pair steers out_n low for +vin; reference pair opposes.
  add_pair("pa_sig", inst.in_p, inst.in_n, inst.out_p, inst.out_n);
  add_pair("pa_ref", inst.ref_n, inst.ref_p, inst.out_p, inst.out_n);

  // ---- loads with DWell parasitics (Fig. 6(a)/(b)).
  device::DiodeParams dwell;
  dwell.is = 1e-6;        // per m^2 via area scaling below
  dwell.cj0 = 1.0e-3;     // F/m^2
  dwell.mj = 0.4;
  dwell.pb = 0.7;
  auto add_load = [&](const std::string& n, NodeId out) {
    NodeId nwell = out;
    if (params.decouple_bulk) {
      nwell = c.node(n + "_nw");
      c.add<spice::Resistor>(n + "_MC", out, nwell, params.r_decouple);
    }
    c.add<device::Mosfet>(n, out, vbp, vdd, nwell, process.pmos, params.load,
                          process.temperature);
    // DWell: psub (anode, ground) to nwell (cathode) junction.
    c.add<device::Diode>(n + "_DWell", kGround, nwell, dwell,
                         params.dwell_area, process.temperature);
  };
  add_load("pa_MLp", inst.out_p);
  add_load("pa_MLn", inst.out_n);

  return inst;
}

PreampResponse measure_preamp_response(const device::Process& process,
                                       const PreampParams& params) {
  PreampParams p = params;
  if (p.r_decouple <= 0) {
    // Track the load resistance: MC is an MR-style device whose value is
    // tuned with the bias current (Fig. 7(c)); keep it 10x the load.
    p.r_decouple = 10.0 * p.vsw / p.iss;
  }
  Circuit c;
  PreampInstance inst = build_preamp(c, process, p);
  spice::Engine engine(c);

  // Sweep from well below to well above the expected bandwidth.
  const double gm = p.iss / (process.nmos.n * 0.0259);
  const double f_hi = 100.0 * gm / (2 * M_PI * 1e-15);
  spice::AcResult ac = run_ac_decade(engine, 1e-2, f_hi, 10);

  PreampResponse r;
  // Differential output: |v(out_p) - v(out_n)| with 1 V differential in.
  std::vector<double> mag(ac.size());
  for (std::size_t i = 0; i < ac.size(); ++i) {
    mag[i] = std::abs(ac[i].v(inst.out_p) - ac[i].v(inst.out_n));
  }
  r.dc_gain = mag.front();
  r.bandwidth_3db = spice::bandwidth_3db(ac.frequencies(), mag);
  return r;
}

}  // namespace sscl::analog
