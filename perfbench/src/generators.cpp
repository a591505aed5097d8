#include "generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int SplitMix::range(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(next() % span);
}

double SplitMix::uniform(double lo, double hi, int digits) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  const double scale = std::pow(10.0, digits);
  return std::round((lo + (hi - lo) * u) * scale) / scale;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix mix(seed ^ (0xd1b54a32d192ed03ULL * (stream + 1)));
  return mix.next();
}

namespace {

/// Shortest text of a value that reads back exactly enough for a deck.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string line(const std::string& text) { return text + "\n"; }

/// prefix + k, e.g. "n12". Appending avoids `"lit" + std::to_string(k)`,
/// on which GCC 12 raises a false -Wrestrict warning.
std::string named(const char* prefix, int k) {
  std::string s(prefix);
  s += std::to_string(k);
  return s;
}

// STSCL logic levels: the replica loop sets a ~240 mV swing under VDD.
constexpr double kVdd = 1.0;
constexpr double kVlow = 0.76;
constexpr double kVmid = 0.88;

/// Shared bias generator and the buffer cell every STSCL deck uses. One
/// reference current programs everything: Ib into the diode-connected
/// HVT NMOS sets vbn, which every tail mirrors; a replica tail (the
/// same mirror) pulls its current through a replica of the PMOS load
/// whose gate is tied to its drain, which closes the loop that sets
/// vbp, the load bias of every cell.
std::string stscl_preamble(SplitMix& rng) {
  std::string s;
  s += line("Vdd vdd 0 " + num(kVdd));
  s += line("Ib vdd vbn " + num(rng.uniform(9.8, 10.2, 2)) + "n");
  s += line("Mb vbn vbn 0 0 nmos_hvt W=2u L=1u");
  s += line("Mrt vbp vbn 0 0 nmos_hvt W=2u L=1u");
  s += line("Mrd vbp vbp vdd vdd pmos W=3u L=1.2u");
  s += line("Cbn vbn 0 1p");
  s += line("Cbp vbp 0 100f");
  s += line(".subckt sclbuf inp inn outp outn vbn vbp vdd cw=1f");
  s += line("M1 outn inp tail 0 nmos W=2u L=0.5u");
  s += line("M2 outp inn tail 0 nmos W=2u L=0.5u");
  s += line("Mt tail vbn 0 0 nmos_hvt W=2u L=1u");
  s += line("Ml1 outp vbp vdd outp pmos W=0.3u L=1.2u");
  s += line("Ml2 outn vbp vdd outn pmos W=0.3u L=1.2u");
  s += line("Cp outp 0 {cw}");
  s += line("Cn outn 0 {cw}");
  s += line(".ends");
  return s;
}

/// Buffer instance; \p invert swaps the input wires (free inversion).
std::string buffer(const std::string& name, const std::string& in,
                   const std::string& out, bool invert, double cw_f) {
  const std::string ip = in + "p";
  const std::string in_n = in + "n";
  return line(name + " " + (invert ? in_n + " " + ip : ip + " " + in_n) +
              " " + out + "p " + out + "n vbn vbp vdd sclbuf cw=" +
              num(cw_f) + "f");
}

}  // namespace

std::string stscl_fabric_deck(std::uint64_t seed, int gates) {
  SplitMix rng(derive_seed(seed, 1));
  std::string s = line("* perfbench stscl fabric: " + std::to_string(gates) +
                       " tap-buffer gates on one bias generator, seed " +
                       std::to_string(seed));
  s += stscl_preamble(rng);
  // Differential pulse input, then tap-buffer levels of fixed sizes
  // (1, 1, then x3 fan-out) and fixed wiring: the sparse LU's fill
  // depends on the matrix pattern (there is no fill-reducing ordering),
  // so the seed moves only element values (bias current, loads, input
  // period) and every seed factors the same pattern.
  const double per = rng.uniform(3.4, 3.6, 2);
  s += line("Vip inp 0 PULSE(" + num(kVlow) + " " + num(kVdd) + " 0.2u 50n 50n " +
            num(per / 2) + "u " + num(per) + "u)");
  s += line("Vin inn 0 PULSE(" + num(kVdd) + " " + num(kVlow) + " 0.2u 50n 50n " +
            num(per / 2) + "u " + num(per) + "u)");
  std::vector<std::vector<std::string>> levels = {{"in"}};
  int built = 0;
  while (built < gates) {
    const std::size_t prev = levels.back().size();
    int want = levels.size() <= 2 ? 1 : static_cast<int>(prev) * 3;
    if (want > gates - built) want = gates - built;
    std::vector<std::string> level;
    for (int k = 0; k < want; ++k) {
      // Round-robin, so every gate of the previous level fans out; every
      // fourth buffer inverts (free in differential logic).
      const std::string out = named("n", built);
      s += buffer(named("X", built), levels.back()[k % prev], out,
                  built % 4 == 3, rng.uniform(0.9, 1.1, 3));
      level.push_back(out);
      ++built;
    }
    levels.push_back(level);
  }
  const std::string last = levels.back().back();
  const std::string deep =
      levels[std::min<std::size_t>(3, levels.size() - 1)].front();
  const std::string tstop = num(per * 0.45) + "u";
  s += line(".op");
  s += line(".tran " + tstop);
  s += line(".measure tran tdel trig v(inp) val=" + num(kVmid) +
            " rise=1 targ v(n0p) val=" + num(kVmid) + " rise=1");
  s += line(".measure tran vmax max v(" + last + "p)");
  s += line(".measure tran vmin min v(" + last + "p)");
  s += line(".measure tran tdeep trig v(inp) val=" + num(kVmid) +
            " rise=1 targ v(" + deep + "p) val=" + num(kVmid) + " cross=1");
  s += line(".measure tran qvdd integ i(vdd) from=0 to=" + tstop);
  s += line(".end");
  return s;
}

std::string stscl_delay_line_deck(std::uint64_t seed) {
  SplitMix rng(derive_seed(seed, 2));
  std::string s = line("* perfbench stscl delay line: five stages, seed " +
                       std::to_string(seed));
  s += stscl_preamble(rng);
  const double cw = rng.uniform(0.9, 1.1, 3);
  const double per = rng.uniform(6.8, 7.2, 2);
  s += line("Vip s0p 0 PULSE(" + num(kVlow) + " " + num(kVdd) + " 0.2u 50n 50n " +
            num(per / 2) + "u " + num(per) + "u)");
  s += line("Vin s0n 0 PULSE(" + num(kVdd) + " " + num(kVlow) + " 0.2u 50n 50n " +
            num(per / 2) + "u " + num(per) + "u)");
  for (int k = 1; k <= 5; ++k) {
    s += buffer(named("X", k), named("s", k - 1),
                named("s", k), k == 3, cw);
  }
  const std::string tstop = num(per) + "u";
  s += line(".tran " + tstop);
  // Stage 3 inverts, so the line's output falls on a rising input.
  s += line(".measure tran tdr trig v(s0p) val=" + num(kVmid) +
            " rise=1 targ v(s5p) val=" + num(kVmid) + " fall=1");
  s += line(".measure tran tdf trig v(s0p) val=" + num(kVmid) +
            " fall=1 targ v(s5p) val=" + num(kVmid) + " rise=1");
  s += line(".measure tran vmax max v(s5p)");
  s += line(".measure tran vmin min v(s5p)");
  s += line(".measure tran qvdd integ i(vdd) from=0 to=" + tstop);
  s += line(".end");
  return s;
}

std::string stscl_ac_gate_deck(std::uint64_t seed) {
  SplitMix rng(derive_seed(seed, 3));
  std::string s = line("* perfbench stscl gate ac bench, seed " +
                       std::to_string(seed));
  s += stscl_preamble(rng);
  s += line("Vip inp 0 DC " + num(kVmid) + " AC 1");
  s += line("Vin inn 0 DC " + num(kVmid));
  s += buffer("X0", "in", "a", false, rng.uniform(0.9, 1.1, 3));
  s += buffer("X1", "a", "b", false, rng.uniform(0.9, 1.1, 3));
  s += line(".op");
  s += line(".ac dec 10 100 100meg");
  s += line(".end");
  return s;
}

std::string stscl_mc_gate_deck(std::uint64_t seed) {
  SplitMix rng(derive_seed(seed, 4));
  std::string s = line("* perfbench stscl mismatch gate chain, seed " +
                       std::to_string(seed));
  s += stscl_preamble(rng);
  s += line("Vip inp 0 DC " + num(kVdd));
  s += line("Vin inn 0 DC " + num(kVlow));
  std::string prev = "in";
  for (int k = 0; k < 3; ++k) {
    const std::string out = named("g", k);
    s += buffer(named("X", k), prev, out, rng.range(0, 1) == 1,
                rng.uniform(0.9, 1.1, 3));
    prev = out;
  }
  s += line(".op");
  s += line(".end");
  return s;
}

std::string param_network_deck(std::uint64_t topo_seed,
                               std::uint64_t value_seed) {
  SplitMix topo(derive_seed(topo_seed, 5));
  SplitMix values(derive_seed(value_seed, 6));
  // Fixed 8 x 8 x 8 hierarchy (the serve_bench.sp shape): a topology
  // seed moves the element expressions, not the amount of work, so the
  // cost of a cold job does not depend on the seed.
  const int n_seg = 8, n_row = 8, n_blk = 8;
  std::string s = line("* perfbench param network " + std::to_string(topo_seed) +
                       "/" + std::to_string(value_seed));
  s += line(".param rbase=" + num(values.uniform(0.8, 1.6, 3)) + "k");
  s += line(".param vtop=" + num(values.uniform(0.8, 1.2, 3)));
  s += line(".param rstep='rbase/3 + " + num(values.uniform(5, 30, 1)) + "'");
  s += line(".subckt seg a b r=1k");
  s += line("r1 a m {r*" + num(topo.uniform(1.1, 1.4, 2)) + " + rbase/" +
            std::to_string(topo.range(32, 96)) + " + sqrt(r)*0.01}");
  s += line("r2 m b {r*" + num(topo.uniform(1.5, 2.5, 2)) + " + rbase/" +
            std::to_string(topo.range(64, 128)) + " + rstep/8}");
  s += line("r3 a m {max(r*" + num(topo.uniform(3, 5, 2)) +
            ", rbase) + exp(min(r, 2k)/1k)}");
  s += line("r4 m b {r*" + num(topo.uniform(6, 10, 2)) +
            " + log10(max(r, 10))*7 + pow(r/1k, 2)}");
  s += line(".ends");
  auto chain = [&](const std::string& name, const std::string& child, int n,
                   bool fine) {
    s += line(".subckt " + name + " a b r=1k");
    for (int k = 1; k <= n; ++k) {
      const std::string from = k == 1 ? "a" : named("n", k - 1);
      const std::string to = k == n ? "b" : named("n", k);
      const double gain = 1.0 + (fine ? 0.001 : 0.01) * k;
      std::string card = named("x", k) + " " + from + " " + to + " " +
                         child + " r={r*" + num(gain);
      if (!fine) card += " + rstep/" + std::to_string(1 << (9 - k));
      s += line(card + "}");
    }
    s += line(".ends");
  };
  chain("row", "seg", n_seg, false);
  chain("blk", "row", n_row, true);
  s += line("v1 top 0 {vtop}");
  for (int k = 1; k <= n_blk; ++k) {
    const std::string from = k == 1 ? "top" : named("t", k - 1);
    const std::string to = k == n_blk ? "mid" : named("t", k);
    s += line(named("x", k) + " " + from + " " + to + " blk r={rstep*" +
              num(1.0 + 0.1 * (k - 1)) + "}");
  }
  s += line("rload mid 0 {rbase}");
  s += line(".op");
  s += line(".end");
  return s;
}

std::vector<std::string> param_network_nodes() {
  return {"top", "t1", "t2", "t3", "t4", "t5", "mid"};
}

std::string subvt_bench_deck(std::uint64_t topo_seed, std::uint64_t value_seed,
                             const std::string& card_file) {
  SplitMix topo(derive_seed(topo_seed, 7));
  SplitMix values(derive_seed(value_seed, 8));
  std::string s = line("* perfbench sub-Vt bench " + std::to_string(topo_seed) +
                       "/" + std::to_string(value_seed));
  s += line(".param vdd=" + num(values.uniform(0.39, 0.41, 4)) +
            " wn=" + num(values.uniform(0.95, 1.05, 3)) + "u beta=" +
            num(values.uniform(1.9, 2.1, 3)) + " lg=0.18u tr=10n simt=40u");
  s += line(".param tedge='0.2*simt' twidth='0.4*simt'");
  s += line(".include " + card_file);
  s += line(".global vdd!");
  s += line("Vdd vdd! 0 'vdd'");
  s += line(".subckt ekv_inv in out wn=1u wp=2u lg=0.18u");
  s += line("Mp out in vdd! vdd! ekv_pmos W=wp L=lg");
  s += line("Mn out in 0    0    ekv_nmos W=wn L=lg");
  s += line(".ends");
  // Three inverting stages tapered 1x/2x/4x and a fixed 40 us window:
  // the seeds move supply, sizing and load within a few percent, so
  // every deck of the family costs about the same number of timesteps.
  const char* nodes[] = {"in", "n1", "n2", "out"};
  for (int k = 1; k <= 3; ++k) {
    const std::string size = std::to_string(1 << (k - 1));
    s += line(named("Xinv", k) + " " + nodes[k - 1] + " " +
              nodes[k] + " ekv_inv wn='" + size + "*wn' wp='" + size +
              "*wn*beta' lg='lg'");
  }
  s += line("Cload out 0 " + num(topo.uniform(4.5, 5.5, 3)) + "f");
  s += line("Vin in 0 PULSE(0 'vdd' 'tedge' 'tr' 'tr' 'twidth' 'simt')");
  s += line(".tran 'simt'");
  // The chain inverts: a rising input edge gives a falling output.
  s += line(".measure tran tpr trig v(in) val='vdd/2' rise=1 "
            "targ v(out) val='vdd/2' fall=1");
  s += line(".measure tran tpf trig v(in) val='vdd/2' fall=1 "
            "targ v(out) val='vdd/2' rise=1");
  s += line(".measure tran vmax max v(out)");
  s += line(".measure tran vmin min v(out)");
  s += line(".measure tran qvdd integ i(vdd) from=0 to='simt'");
  s += line(".measure tran evdd param='-qvdd*vdd'");
  s += line(".measure tran tpavg param='(tpr+tpf)/2'");
  s += line(".end");
  return s;
}

std::vector<std::string> subvt_bench_nodes() { return {"in", "n1", "out"}; }

std::string subvt_card_file() {
  return "* EKV cards of the perfbench sub-Vt benches (c180 typical corner)\n"
         ".model ekv_nmos NMOS (VT0=0.45 KP=300u N=1.35 LAMBDA=0.02)\n"
         ".model ekv_pmos PMOS (VT0=0.42 KP=80u  N=1.35 LAMBDA=0.02)\n";
}

}  // namespace perfbench
