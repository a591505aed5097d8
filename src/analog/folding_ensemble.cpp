#include "analog/folding_ensemble.hpp"

#include <cmath>

#include "util/constants.hpp"

namespace sscl::analog {

FoldingEnsemble::FoldingEnsemble(const FoldingParams& params)
    : params_(params), nominal_(params) {
  // The exact expressions of FoldingFrontEnd::folder_output / fine_bit,
  // hoisted: lsb = params.lsb(), a = 2 n UT, spacing = fine_lines*lsb.
  // spacing/M_PI is the legacy code's first division in the tanh
  // argument (spacing / M_PI * s / a groups left-to-right), so hoisting
  // it preserves the bit pattern.
  lsb_ = params_.lsb();
  a_ = 2.0 * params_.n * util::thermal_voltage(params_.temperature);
  const int period_codes = params_.fine_lines();
  const double spacing = period_codes * lsb_;
  spacing_over_pi_ = spacing / M_PI;
  gm_ = params_.i_unit / a_;
}

FoldingSampleFrontEnd::FoldingSampleFrontEnd(const FoldingEnsemble& shared,
                                             const FoldingMismatch& mm)
    : shared_(shared) {
  const FoldingParams& p = shared_.params();
  const double lsb = shared_.lsb();
  const int period_codes = p.fine_lines();
  const int k_lo = -2;
  stride_ = p.fold_factor + 4;  // k = -2 .. fold_factor+1

  // Crossing voltages, the same expression FoldingFrontEnd::
  // folder_output evaluates per call (guards outside [0, fold_factor)
  // add mm_off = 0.0, which is an exact no-op).
  crossings_.resize(static_cast<std::size_t>(p.n_folders) * stride_);
  for (int j = 0; j < p.n_folders; ++j) {
    for (int k = k_lo; k <= p.fold_factor + 1; ++k) {
      const double mm_off =
          (k >= 0 && k < p.fold_factor) ? mm.folder_offsets[j][k] : 0.0;
      crossings_[static_cast<std::size_t>(j) * stride_ + (k - k_lo)] =
          p.v_bottom +
          (1.0 + j * p.interpolation + k * period_codes) * lsb + mm_off;
    }
  }

  // Interpolation weights per fine line, mirroring fine_signal: for
  // r != 0 the legacy mix is (1-w)*fo[j] + (w*sign_next)*fo[j_next]
  // (w * sign_next * folder_output groups left-to-right), both factors
  // hoisted here with the same grouping.
  const int lines = p.fine_lines();
  direct_.assign(lines, 0);
  line_j_.assign(lines, 0);
  line_jn_.assign(lines, 0);
  one_minus_w_.assign(lines, 0.0);
  w_signed_.assign(lines, 0.0);
  gain_.assign(lines, 0.0);
  comp_offset_.assign(lines, 0.0);
  for (int i = 0; i < lines; ++i) {
    const int interp = p.interpolation;
    const int j = i / interp;
    const int r = i % interp;
    line_j_[i] = j;
    gain_[i] = 1.0 + mm.interp_gain_error[i];
    comp_offset_[i] = mm.fine_comp_offsets[i] * shared_.comparator_gm();
    if (r == 0) {
      direct_[i] = 1;
      continue;
    }
    const double w = static_cast<double>(r) / interp;
    const int j_next = (j + 1) % p.n_folders;
    const double sign_next = (j + 1 == p.n_folders) ? -1.0 : 1.0;
    line_jn_[i] = j_next;
    one_minus_w_[i] = 1.0 - w;
    w_signed_[i] = w * sign_next;
  }

  // Coarse thresholds: the legacy instance stores (nominal bisection +
  // coarse_ref_errors) and adds coarse_comp_offsets per comparison;
  // both sums folded here in the same association order.
  coarse_thr_.resize(p.fold_factor);
  for (int k = 0; k < p.fold_factor; ++k) {
    const double placed =
        shared_.nominal_coarse_thresholds()[k] + mm.coarse_ref_errors[k];
    coarse_thr_[k] = placed + mm.coarse_comp_offsets[k];
  }
}

double FoldingSampleFrontEnd::folder_output(int j, double vin) const {
  int i = 0;
  return folder_output_from(j, vin, i);
}

double FoldingSampleFrontEnd::folder_output_from(int j, double vin,
                                                 int& i) const {
  const FoldingParams& p = shared_.params();
  const double* cr = crossings_.data() + static_cast<std::size_t>(j) * stride_;
  const int k_lo = -2;
  // Bracket vin between consecutive crossings: the same comparisons as
  // the legacy while loop over crossing(k+1), k_hi = fold_factor+1.
  const int last = stride_ - 1;  // index of k_hi
  while (i + 1 < last && vin >= cr[i + 1]) ++i;
  const double c0 = cr[i];
  const double c1 = cr[i + 1];
  const double frac = (vin - c0) / (c1 - c0);
  const double phase = M_PI * ((i + k_lo) + frac);
  const double s = std::sin(phase);
  return p.i_unit *
         std::tanh(shared_.spacing_over_pi() * s / shared_.thermal_2nut());
}

void FoldingSampleFrontEnd::fold(double vin, double* fo) const {
  const int n = shared_.params().n_folders;
  for (int j = 0; j < n; ++j) fo[j] = folder_output(j, vin);
}

void FoldingSampleFrontEnd::fold(double vin, double* fo, Ramp& ramp) const {
  const int n = shared_.params().n_folders;
  if (!(vin >= ramp.vin) || static_cast<int>(ramp.bracket.size()) != n) {
    ramp.bracket.assign(static_cast<std::size_t>(n), 0);
  }
  ramp.vin = vin;
  for (int j = 0; j < n; ++j) {
    int& start = ramp.bracket[static_cast<std::size_t>(j)];
    fo[j] = folder_output_from(j, vin, start);
  }
}

double FoldingSampleFrontEnd::fine_signal_from(const double* fo, int i) const {
  if (direct_[i]) return fo[line_j_[i]] * gain_[i];
  const double mixed =
      one_minus_w_[i] * fo[line_j_[i]] + w_signed_[i] * fo[line_jn_[i]];
  return mixed * gain_[i];
}

bool FoldingSampleFrontEnd::fine_bit_from(const double* fo, int i) const {
  return fine_signal_from(fo, i) - comp_offset_[i] > 0;
}

std::uint64_t FoldingSampleFrontEnd::fine_bits_from(const double* fo) const {
  const int lines = static_cast<int>(direct_.size());
  std::uint64_t bits = 0;
  for (int i = 0; i < lines; ++i) {
    if (fine_bit_from(fo, i)) bits |= std::uint64_t{1} << i;
  }
  return bits;
}

int FoldingSampleFrontEnd::coarse_count(double vin) const {
  int count = 0;
  const int n = static_cast<int>(coarse_thr_.size());
  for (int k = 0; k < n; ++k) {
    if (vin > coarse_thr_[k]) ++count;
  }
  return count;
}

}  // namespace sscl::analog
