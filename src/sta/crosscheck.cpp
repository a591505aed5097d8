#include "sta/crosscheck.hpp"

#include <chrono>
#include <cmath>

#include "digital/fmax.hpp"

namespace sscl::sta {

bool FmaxCrossCheck::agrees(double tolerance) const {
  return f_sim > 0 && std::abs(ratio - 1.0) <= tolerance;
}

FmaxCrossCheck crosscheck_encoder_fmax(const digital::Netlist& netlist,
                                       const digital::EncoderIo& io,
                                       const stscl::SclModel& model,
                                       double iss, const StaOptions& options) {
  using Clock = std::chrono::steady_clock;
  FmaxCrossCheck xc;
  xc.iss = iss;

  const auto t0 = Clock::now();
  xc.f_sta = sta_fmax(netlist, model, iss, options, &xc.sta_arcs);
  const auto t1 = Clock::now();
  xc.f_sim =
      digital::measure_encoder_fmax(netlist, io, model, iss, &xc.sim_events);
  const auto t2 = Clock::now();

  xc.sta_seconds = std::chrono::duration<double>(t1 - t0).count();
  xc.sim_seconds = std::chrono::duration<double>(t2 - t1).count();
  xc.ratio = xc.f_sim > 0 ? xc.f_sta / xc.f_sim : 0.0;
  xc.speedup = xc.sta_seconds > 0 ? xc.sim_seconds / xc.sta_seconds : 0.0;
  xc.work_ratio = xc.sta_arcs > 0 ? static_cast<double>(xc.sim_events) /
                                        static_cast<double>(xc.sta_arcs)
                                  : 0.0;
  return xc;
}

}  // namespace sscl::sta
