#pragma once

/// \file mosfet.hpp
/// Four-terminal MOSFET circuit element wrapping the EKV evaluator, with
/// gate capacitances, optional source/drain junction diodes and
/// per-instance Pelgrom mismatch.

#include "device/ekv.hpp"
#include "device/mos_params.hpp"
#include "spice/device.hpp"

namespace sscl::device {

class Mosfet final : public spice::Device {
 public:
  Mosfet(std::string name, spice::NodeId drain, spice::NodeId gate,
         spice::NodeId source, spice::NodeId bulk, MosParams params,
         MosGeometry geometry, double temperatureK = 300.15,
         MosMismatch mismatch = {});

  void setup(spice::SetupContext& ctx) override;
  void reserve(spice::PatternContext& ctx) override;
  void load(spice::LoadContext& ctx) override;
  void load_ac(spice::AcContext& ctx) const override;
  void add_noise(spice::NoiseContext& ctx) const override;
  bool describe(spice::DeviceInfo& info) const override;
  void reset_runtime() override {
    cache_valid_ = false;
    vjs_last_ = vjd_last_ = 0.0;
    last_ = EkvResult{};
    jgs_ = jgd_ = cbs_ = cbd_ = 0.0;
  }
  bool perturb_sample(const util::Rng& stream, std::uint64_t ordinal) override;
  /// Batched Monte-Carlo channel staging mismatch in SoA lanes
  /// (ekv_batch.hpp). Returns nullptr when bulk junctions are present:
  /// they stamp at DC and carry limiting state across loads, which the
  /// lane-parallel path cannot stage.
  std::unique_ptr<spice::EnsembleChannel> make_ensemble_channel() override;

  /// Channel current drain->source at the last computed point [A].
  double ids() const { return last_.id; }
  /// Small-signal parameters at the last computed point.
  const EkvResult& operating_point() const { return last_; }

  const MosGeometry& geometry() const { return geometry_; }
  const MosParams& params() const { return params_; }
  /// Replace the mismatch draw; the device card and the bypass cache
  /// follow it.
  void set_mismatch(const MosMismatch& mm);

  /// Total gate capacitance estimate used by delay models [F].
  double gate_capacitance() const;

 private:
  class Channel;  // EnsembleChannel over the reserved stamp slots

  /// The EKV card of the current parameters and mismatch draw.
  EkvCard make_card() const;

  spice::NodeId d_, g_, s_, b_;
  MosParams params_;
  MosGeometry geometry_;
  double temperature_;
  MosMismatch mismatch_;
  EkvCard card_;  ///< make_card(), kept current by set_mismatch()

  // Constant small-signal gate capacitances (weak-inversion estimates).
  double cgs_ = 0.0, cgd_ = 0.0, cgb_ = 0.0;

  // Junction diode parameters (only when as/ad are set).
  bool has_junctions_ = false;  // a diffusion area is given
  double jn_sign_ = 1.0;  // +1 NMOS (bulk is anode), -1 PMOS
  double nvt_ = 0.0;
  double vcrit_s_ = 0.0, vcrit_d_ = 0.0;
  double vjs_last_ = 0.0, vjd_last_ = 0.0;

  int state_ = -1;  // [qgs,igs, qgd,igd, qgb,igb, qbs,ibs, qbd,ibd]

  mutable EkvResult last_;
  mutable double jgs_ = 0.0, jgd_ = 0.0;  // junction conductances (AC)
  mutable double cbs_ = 0.0, cbd_ = 0.0;  // junction capacitances (AC)

  // Reserved stamp slots (pattern pass).
  spice::MatrixSlot m_dg_ = 0, m_dd_ = 0, m_ds_ = 0, m_db_ = 0;
  spice::MatrixSlot m_sg_ = 0, m_sd_ = 0, m_ss_ = 0, m_sb_ = 0;
  spice::RhsSlot r_d_ = 0, r_s_ = 0;
  spice::NonlinearPattern jp_s_, jp_d_;            // bulk junctions
  spice::NonlinearPattern cp_gs_, cp_gd_, cp_gb_;  // gate capacitances

  // Bypass cache: terminal voltages of the last full evaluation plus the
  // voltage-dependent model quantities computed there. The junction
  // charges' integrator companions are rebuilt from these on every load.
  struct JunctionCache {
    double ij = 0.0, gj = 0.0, qj = 0.0, cj = 0.0, v_ak = 0.0;
  };
  bool cache_valid_ = false;
  double vd_c_ = 0.0, vg_c_ = 0.0, vs_c_ = 0.0, vb_c_ = 0.0;
  double ieq_c_ = 0.0;
  JunctionCache jc_s_, jc_d_;
};

}  // namespace sscl::device
