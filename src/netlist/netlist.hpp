#pragma once

/// \file netlist.hpp
/// Public entry point of the staged netlist front-end:
///
///   text --lexer--> logical lines --ast--> cards --elaborate--> Deck
///
/// The pipeline accepts the industrial SPICE dialect the exemplar
/// sub-Vt benches use: .subckt/.ends/.eom with default parameters and
/// instance overrides, .param arithmetic ('wp*beta'), .include,
/// .global, .temp, .ic/.nodeset, full PULSE/SIN/PWL/EXP sources with
/// expression-valued parameters, and .measure (see measure.hpp).
/// Hierarchical instances elaborate into the flat spice::Circuit with
/// dotted names (xtop.xinv1.m1) so lint/SARIF/trace output can point
/// back into the hierarchy.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "device/mos_params.hpp"
#include "netlist/ast.hpp"
#include "netlist/cards.hpp"
#include "spice/circuit.hpp"

namespace sscl::netlist {

struct ParseOptions {
  /// Supplies the built-in model cards (nmos, pmos, nmos_hvt,
  /// nmos_thick, d) and the default temperature.
  device::Process process = device::Process::c180();
  /// Unknown dot-cards: false = accept-and-warn (industrial decks carry
  /// foreign simulator cards), true = hard failure, the legacy
  /// behaviour deck_runner/sscl-lint expose as --strict.
  bool strict = false;
  /// Subckt instantiation depth limit. Exceeding it reports the full
  /// instantiation chain (recursive subckts hit this).
  int max_subckt_depth = 64;
  /// Resolver for .include cards; without one every .include fails
  /// (library users and the fuzz harness stay off the filesystem).
  IncludeLoader include_loader;
  /// Label for the top-level text in provenance output.
  std::string name = "<deck>";
};

/// What elaboration did (deck_runner --stats).
struct FrontEndStats {
  std::size_t elements = 0;                ///< devices in the flat circuit
  std::size_t expression_evaluations = 0;  ///< expression code runs
  std::size_t compiled_expressions = 0;    ///< expressions compiled
};

/// Everything a runner needs: the flat circuit plus the run requests.
struct Deck {
  std::string title;
  std::unique_ptr<spice::Circuit> circuit;
  std::vector<AnalysisCard> analyses;
  std::vector<MeasureSpec> measures;
  std::vector<IcSpec> ics;       ///< .ic entries (applied as nodesets)
  std::vector<IcSpec> nodesets;  ///< .nodeset entries
  bool has_temp = false;
  double temperature_k = 0.0;  ///< .temp, converted to Kelvin
  /// Final global .param values (lowercased names), the environment
  /// .measure param='expr' cards evaluate in.
  std::map<std::string, double> params;
  std::vector<Diagnostic> warnings;
  FrontEndStats front_end;
};

/// Run the full pipeline. Throws NetlistError (with file:line:col in
/// what()) on malformed decks.
Deck parse_netlist(const std::string& text, const ParseOptions& options = {});

/// Stage 4 alone: elaborate an already-built AST.
Deck elaborate(Ast ast, const ParseOptions& options);

}  // namespace sscl::netlist
