/// sscl-lint: static-analysis front end for SPICE decks. Runs the full
/// pass pipeline (local ERC rules plus the interprocedural dataflow
/// passes) and reports as text, CSV, flat JSON or SARIF 2.1.0. With a
/// baseline the exit status gates only on *new* findings, which is how
/// CI keeps pre-existing debt from blocking unrelated changes.
///
/// Exit status: 0 clean (no errors / no non-baselined findings when a
/// baseline is given), 1 findings gate, 2 usage or parse failure.
///
///   sscl-lint bias.sp ladder.sp            lint decks, human-readable
///   sscl-lint --csv bias.sp                machine-readable CSV
///   sscl-lint --json bias.sp               flat JSON with fingerprints
///   sscl-lint --sarif out.sarif *.sp       SARIF 2.1.0 log to a file
///   sscl-lint --baseline lint.base *.sp    fail only on new findings
///   sscl-lint --write-baseline lint.base *.sp   accept current findings
///   sscl-lint --passes bias-provenance,domain-crossing bias.sp
///   sscl-lint --bias-budget 1u bias.sp     declare the IB budget
///   sscl-lint --trace t.json --metrics m.json bias.sp
///   sscl-lint --list-passes                print every pass and exit

#include <climits>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "lint/check.hpp"
#include "netlist/netlist.hpp"
#include "lint/rule.hpp"
#include "lint/sarif.hpp"
#include "trace/export.hpp"
#include "util/units.hpp"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: sscl-lint [options] DECK...\n"
        "  --csv                  CSV to stdout\n"
        "  --json                 flat JSON (with fingerprints) to stdout\n"
        "  --sarif FILE           write a SARIF 2.1.0 log ('-' = stdout)\n"
        "  --baseline FILE        gate only on findings not in FILE\n"
        "  --write-baseline FILE  write current findings as the baseline\n"
        "  --passes IDS           comma-separated pass ids to run\n"
        "  --disable RULE         skip a rule/diagnostic id (repeatable)\n"
        "  --no-info              drop informational findings\n"
        "  --bias-budget AMPS     bias-current budget (SI suffixes ok)\n"
        "  --corners T=LO:HI      op-region temperature box in Celsius\n"
        "  --vdd-tol TOL          supply tolerance for op-region (10% or "
        "0.1)\n"
        "  --strict               reject unknown dot-cards instead of\n"
        "                         accept-and-warn\n"
        "  --max-depth N          .subckt nesting limit (default 64)\n"
        "  --trace FILE           write a Chrome trace-event JSON\n"
        "  --metrics FILE         write the counter registry as JSON\n"
        "  --list-passes          print every pass and exit\n";
  return code;
}

std::vector<std::string> split_commas(const std::string& arg) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(arg);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return true;
  }
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sscl;

  bool csv = false;
  bool json = false;
  std::string sarif_path;
  std::string baseline_path;
  std::string write_baseline_path;
  std::string trace_path;
  std::string metrics_path;
  bool strict = false;
  int max_depth = 64;
  lint::Options options;
  std::vector<std::string> decks;

  auto next = [&](int& i) -> const char* {
    return ++i < argc ? argv[i] : nullptr;
  };
  auto count = [](const char* text, const char* flag) {
    return static_cast<int>(cli::parse_count("sscl-lint", text, flag, INT_MAX));
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      sarif_path = value;
    } else if (arg == "--baseline") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      baseline_path = value;
    } else if (arg == "--write-baseline") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      write_baseline_path = value;
    } else if (arg == "--passes") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      for (std::string& id : split_commas(value)) {
        options.only.push_back(std::move(id));
      }
    } else if (arg == "--disable") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      options.disabled.push_back(value);
    } else if (arg == "--no-info") {
      options.include_info = false;
    } else if (arg == "--bias-budget") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      const std::optional<double> budget = util::parse_si(value);
      if (!budget) {
        std::cerr << "sscl-lint: --bias-budget: cannot parse '" << value
                  << "'\n";
        return 2;
      }
      options.bias_budget = *budget;
    } else if (arg == "--corners") {
      // T=LO:HI in Celsius, e.g. --corners T=0:85. The op-region pass
      // carries the whole range through its interval transfer
      // functions (no corner enumeration).
      if (!(value = next(i))) return usage(std::cerr, 2);
      std::string spec = value;
      if (spec.rfind("T=", 0) == 0 || spec.rfind("t=", 0) == 0) {
        spec = spec.substr(2);
      }
      const std::size_t colon = spec.find(':');
      const std::optional<double> lo =
          util::parse_si(colon == std::string::npos ? spec
                                                    : spec.substr(0, colon));
      const std::optional<double> hi =
          colon == std::string::npos ? lo
                                     : util::parse_si(spec.substr(colon + 1));
      if (!lo || !hi || *hi < *lo) {
        std::cerr << "sscl-lint: --corners: expected T=LO:HI, got '" << value
                  << "'\n";
        return 2;
      }
      options.t_lo_k = *lo + 273.15;
      options.t_hi_k = *hi + 273.15;
    } else if (arg == "--vdd-tol") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      std::string spec = value;
      double scale = 1.0;
      if (!spec.empty() && spec.back() == '%') {
        spec.pop_back();
        scale = 0.01;
      }
      const std::optional<double> tol = util::parse_si(spec);
      if (!tol || *tol * scale < 0.0 || *tol * scale >= 1.0) {
        std::cerr << "sscl-lint: --vdd-tol: expected a fraction or "
                     "percentage below 100%, got '"
                  << value << "'\n";
        return 2;
      }
      options.vdd_tol = *tol * scale;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--max-depth") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      max_depth = count(value, "--max-depth");
    } else if (arg == "--trace") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      trace_path = value;
    } else if (arg == "--metrics") {
      if (!(value = next(i))) return usage(std::cerr, 2);
      metrics_path = value;
    } else if (arg == "--list-passes" || arg == "--list-rules") {
      for (const auto& pass : lint::make_default_passes()) {
        std::cout << pass->id() << "\n    " << pass->description() << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "sscl-lint: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else {
      decks.push_back(arg);
    }
  }
  if (decks.empty()) return usage(std::cerr, 2);
  if (!trace_path.empty() || !metrics_path.empty()) {
    trace::enable();
    trace::write_at_exit(trace_path, metrics_path);
  }

  // ---- lint every deck -----------------------------------------------
  std::vector<lint::ArtifactReport> artifacts;
  for (const std::string& path : decks) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "sscl-lint: cannot open '" << path << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();

    netlist::Deck deck;
    try {
      netlist::ParseOptions parse_options;
      parse_options.strict = strict;
      parse_options.max_subckt_depth = max_depth;
      parse_options.name = path;
      const auto slash = path.find_last_of('/');
      parse_options.include_loader = netlist::file_include_loader(
          slash == std::string::npos ? "." : path.substr(0, slash));
      deck = netlist::parse_netlist(text.str(), parse_options);
    } catch (const std::exception& e) {
      std::cerr << "sscl-lint: " << path << ": " << e.what() << "\n";
      return 2;
    }
    for (const auto& w : deck.warnings) {
      std::cerr << "sscl-lint: warning: " << w.location << ": " << w.message
                << "\n";
    }
    artifacts.push_back({path, lint::check_circuit(*deck.circuit, options)});
  }

  // ---- exports --------------------------------------------------------
  const auto passes = lint::make_default_passes();
  if (!sarif_path.empty()) {
    lint::SarifOptions sarif_options;
    sarif_options.passes = &passes;
    if (!write_file(sarif_path, lint::to_sarif(artifacts, sarif_options))) {
      std::cerr << "sscl-lint: cannot write '" << sarif_path << "'\n";
      return 2;
    }
  }
  if (!write_baseline_path.empty()) {
    if (!write_file(write_baseline_path, lint::Baseline::write(artifacts))) {
      std::cerr << "sscl-lint: cannot write '" << write_baseline_path << "'\n";
      return 2;
    }
  }

  // ---- gate -----------------------------------------------------------
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cerr << "sscl-lint: cannot open baseline '" << baseline_path
                << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const lint::Baseline baseline = lint::Baseline::parse(text.str());
    const std::vector<lint::ArtifactReport> fresh =
        baseline.fresh(artifacts);
    int gated = 0;
    for (const lint::ArtifactReport& art : fresh) {
      for (const lint::Diagnostic& d : art.report.diagnostics()) {
        if (d.severity == lint::Severity::kInfo) continue;
        ++gated;
      }
    }
    if (json) {
      std::cout << lint::to_json(fresh);
    } else if (csv) {
      for (const lint::ArtifactReport& art : fresh) {
        std::cout << art.report.csv();
      }
    } else {
      std::cout << gated << " new finding(s) vs baseline ("
                << baseline.size() << " accepted)\n";
      for (const lint::ArtifactReport& art : fresh) {
        std::cout << art.artifact << ":\n" << art.report.text();
      }
    }
    return gated > 0 ? 1 : 0;
  }

  if (json) {
    std::cout << lint::to_json(artifacts);
  } else if (csv) {
    for (const lint::ArtifactReport& art : artifacts) {
      std::cout << art.report.csv();
    }
  }

  int total_errors = 0;
  for (const lint::ArtifactReport& art : artifacts) {
    total_errors += art.report.error_count();
    if (!csv && !json) {
      std::cout << art.artifact << ": " << art.report.error_count()
                << " error(s), "
                << art.report.count(lint::Severity::kWarning)
                << " warning(s)\n";
      if (!art.report.empty()) std::cout << art.report.text();
    }
  }
  return total_errors > 0 ? 1 : 0;
}
