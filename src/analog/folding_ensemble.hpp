#pragma once

/// \file folding_ensemble.hpp
/// Topology/sample split of the folding front end for Monte-Carlo
/// ensembles. FoldingFrontEnd couples two very different costs into one
/// object: the per-configuration coarse-threshold bisection (hundreds
/// of fine_signal evaluations, identical for every mismatch sample
/// because it runs on the zero-mismatch model) and the per-sample
/// mismatch tables. The split factors them:
///
///  * FoldingEnsemble — shared immutable part: parameters, hoisted
///    model constants and the nominal coarse thresholds, computed once.
///  * FoldingSampleFrontEnd — per-sample part: precomputed crossing
///    tables, interpolation weights and offset currents, so one
///    conversion evaluates each folder output once (n_folders tanh/sin
///    pairs) instead of once per fine line.
///
/// Bit-identity contract (tested in tests/adc/test_adc_ensemble.cpp):
/// every public evaluation reproduces the exact IEEE expression
/// sequence of the equivalent FoldingFrontEnd(params, mm) call, so
/// folder_output / fine_bit / coarse_count — and therefore every ADC
/// code — are bitwise equal to that per-line reference model.
/// Precomputation only hoists subexpressions FoldingFrontEnd computes
/// with the same grouping (e.g. w*sign_next, spacing/M_PI, threshold
/// sums).

#include <cstdint>
#include <limits>
#include <vector>

#include "analog/folding.hpp"

namespace sscl::analog {

/// Shared immutable half: one per (FoldingParams) configuration,
/// read-only across samples and worker threads.
class FoldingEnsemble {
 public:
  explicit FoldingEnsemble(const FoldingParams& params);

  const FoldingParams& params() const { return params_; }
  /// Nominal (zero-mismatch) coarse thresholds from the one-time
  /// bisection; per-sample thresholds add the sample's ref errors.
  const std::vector<double>& nominal_coarse_thresholds() const {
    return nominal_.coarse_thresholds();
  }

  // Hoisted model constants (same expressions as FoldingFrontEnd).
  double lsb() const { return lsb_; }
  double thermal_2nut() const { return a_; }
  double spacing_over_pi() const { return spacing_over_pi_; }
  double comparator_gm() const { return gm_; }

 private:
  FoldingParams params_;
  FoldingFrontEnd nominal_;  ///< zero-mismatch instance (threshold donor)
  double lsb_ = 0.0;
  double a_ = 0.0;               ///< 2 n UT
  double spacing_over_pi_ = 0.0; ///< (fine_lines*lsb)/pi, tanh argument scale
  double gm_ = 0.0;              ///< i_unit / (2 n UT)
};

/// Per-sample front end: bit-identical to
/// FoldingFrontEnd(shared.params(), mm) but with the per-conversion
/// work reduced to table lookups plus n_folders transcendental pairs.
class FoldingSampleFrontEnd {
 public:
  FoldingSampleFrontEnd(const FoldingEnsemble& shared,
                        const FoldingMismatch& mm);

  /// Differential output current of folder j at vin [A]; bitwise equal
  /// to FoldingFrontEnd::folder_output.
  double folder_output(int j, double vin) const;

  /// Evaluate every folder output once into fo[0..n_folders); the
  /// distinct values all fine lines of one conversion share.
  void fold(double vin, double* fo) const;

  /// Where each folder's crossing search ended at the last input of a
  /// ramp (see fold(double, double*, Ramp&)).
  struct Ramp {
    double vin = -std::numeric_limits<double>::infinity();
    std::vector<int> bracket;  ///< per folder, the crossing it stopped at
  };

  /// fold() at one input of a ramp: while the input does not decrease,
  /// each folder's crossing search starts where the last one ended. The
  /// crossings the last search passed lie at or below the last input,
  /// hence at or below this one, so the search from the start would pass
  /// them too: fo is bitwise that of fold(vin, fo). A falling input
  /// restarts every search.
  void fold(double vin, double* fo, Ramp& ramp) const;

  /// Fine signal / comparator decision of line i, reading the shared
  /// folder outputs; bitwise equal to FoldingFrontEnd::fine_signal /
  /// fine_bit at the same vin.
  double fine_signal_from(const double* fo, int i) const;
  bool fine_bit_from(const double* fo, int i) const;
  /// Every fine line's fine_bit_from(fo, i) in one loop, line i at bit i
  /// (at most 64 lines).
  std::uint64_t fine_bits_from(const double* fo) const;

  /// Coarse flash thermometer count; bitwise equal to
  /// FoldingFrontEnd::coarse_count.
  int coarse_count(double vin) const;

  const FoldingEnsemble& shared() const { return shared_; }

 private:
  /// folder_output(j, vin) with the crossing search started at \p i,
  /// where it is left when the search ends.
  double folder_output_from(int j, double vin, int& i) const;

  const FoldingEnsemble& shared_;

  // Crossing voltage table: per folder j, crossings k = -2 ..
  // fold_factor+1 at stride_ doubles per folder (guards are ideal,
  // interior crossings carry the sample's folder_offsets).
  int stride_ = 0;
  std::vector<double> crossings_;

  // Per fine line i: interpolation weights and gains. direct_[i] != 0
  // marks lines with r == 0 (no mixing).
  std::vector<char> direct_;
  std::vector<int> line_j_, line_jn_;
  std::vector<double> one_minus_w_, w_signed_;
  std::vector<double> gain_;         ///< 1 + interp_gain_error[i]
  std::vector<double> comp_offset_;  ///< fine_comp_offsets[i] * gm
  std::vector<double> coarse_thr_;   ///< threshold + ref err + comp offset
};

}  // namespace sscl::analog
