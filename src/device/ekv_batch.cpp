#include "device/ekv_batch.hpp"

#include "device/ekv.hpp"
#include "util/constants.hpp"

namespace sscl::device {

void EkvSoA::resize(int n) {
  const auto m = static_cast<std::size_t>(n);
  dvt.assign(m, 0.0);
  dbeta_rel.assign(m, 0.0);
  vg.assign(m, 0.0);
  vd.assign(m, 0.0);
  vs.assign(m, 0.0);
  vb.assign(m, 0.0);
  id.assign(m, 0.0);
  gm.assign(m, 0.0);
  gds.assign(m, 0.0);
  gms.assign(m, 0.0);
  gmb.assign(m, 0.0);
  ieq.assign(m, 0.0);
}

namespace {

/// One lane of the batch: the scalar ekv_evaluate()'s arithmetic
/// (ekv_evaluate_point on the lane's card), with the temperature-
/// dependent constants hoisted by the caller. Kept in one inline helper
/// so the masked and unmasked entry points perform identical arithmetic
/// per lane.
inline void eval_lane(const MosParams& params, const MosGeometry& geometry,
                      double ut, EkvSoA& soa, int k) {
  const double vg = soa.vg[k];
  const double vd = soa.vd[k];
  const double vs = soa.vs[k];
  const double vb = soa.vb[k];
  const EkvResult r = ekv_evaluate_point(
      params, ekv_card(params, geometry, ut, soa.dvt[k], soa.dbeta_rel[k]),
      vg, vd, vs, vb);
  soa.id[k] = r.id;
  soa.gm[k] = r.gm;
  soa.gds[k] = r.gds;
  soa.gms[k] = r.gms;
  soa.gmb[k] = r.gmb;
  // Companion current exactly as Mosfet::load computes it.
  soa.ieq[k] = r.id - (r.gm * vg + r.gds * vd - r.gms * vs + r.gmb * vb);
}

}  // namespace

void ekv_evaluate_batch(const MosParams& params, const MosGeometry& geometry,
                        double temperatureK, EkvSoA& soa) {
  const double ut = util::thermal_voltage(temperatureK);
  const int n = soa.lanes();
  for (int k = 0; k < n; ++k) eval_lane(params, geometry, ut, soa, k);
}

void ekv_evaluate_batch(const MosParams& params, const MosGeometry& geometry,
                        double temperatureK, EkvSoA& soa,
                        const std::vector<char>& active) {
  const double ut = util::thermal_voltage(temperatureK);
  const int n = soa.lanes();
  for (int k = 0; k < n; ++k) {
    if (active[static_cast<std::size_t>(k)]) {
      eval_lane(params, geometry, ut, soa, k);
    }
  }
}

}  // namespace sscl::device
