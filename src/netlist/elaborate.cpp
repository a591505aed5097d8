#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <set>
#include <unordered_map>
#include <variant>

#include "device/diode.hpp"
#include "device/mosfet.hpp"
#include "netlist/expr.hpp"
#include "netlist/netlist.hpp"
#include "spice/elements.hpp"
#include "util/units.hpp"

namespace sscl::netlist {

namespace {

using spice::Circuit;
using spice::NodeId;
using spice::SourceSpec;

std::string lowercase(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

struct ModelCard {
  enum class Kind { kNmos, kPmos, kDiode } kind = Kind::kNmos;
  device::MosParams mos;
  device::DiodeParams diode;
};

/// Lexical scope: parameters and model cards of one subckt expansion
/// (or the deck top level). Parent chains end at the global scope.
struct Scope {
  explicit Scope(const Scope* parent_scope)
      : parent(parent_scope), env(parent_scope ? &parent_scope->env : nullptr) {}
  const Scope* parent;
  ParamEnv env;
  std::map<std::string, ModelCard> models;

  const ModelCard* find_model(const std::string& key) const {
    for (const Scope* s = this; s; s = s->parent) {
      const auto it = s->models.find(key);
      if (it != s->models.end()) return &it->second;
    }
    return nullptr;
  }
};

/// One entry of the subckt instantiation path, for the recursion
/// diagnostic.
struct Frame {
  std::string inst;    // hierarchical instance name ("xtop.xinv1")
  std::string subckt;  // definition name
};

/// One port of a subckt instance: the caller's node it is wired to.
/// The NodeId is looked up on first use, so Circuit::node meets every
/// flat node name first where a by-name mapping would, and node
/// numbering does not depend on this bookkeeping.
struct Port {
  std::optional<NodeId> id;
  Port* caller_port = nullptr;  // wired to a port of the enclosing instance
  std::string name;             // else the caller's flat node name
};

/// A subckt expansion in progress.
struct Instance {
  const SubcktDef* def;
  std::string prefix;       // hierarchical instance name ("xtop.xinv1")
  std::vector<Port> ports;  // in the definition's port order
};

/// A node token of a .subckt body, classified once per definition.
struct NodeRef {
  enum class Kind { kGround, kPort, kGlobal, kLocal } kind = Kind::kLocal;
  std::size_t port = 0;  // kPort: position in the port list
  std::string name;      // kGlobal, kLocal: the lowercased name
};

/// A value token compiled: the number an unquoted token spells
/// (util::parse_si), or the code of its expression.
using CompiledValue = std::variant<double, CompiledExpr>;

class Elaborator {
 public:
  Elaborator(Ast ast, const ParseOptions& options)
      : ast_(std::move(ast)), options_(options), global_scope_(nullptr) {}

  Deck run() {
    deck_.title = ast_.title;
    deck_.circuit = std::make_unique<Circuit>();
    deck_.warnings = std::move(ast_.warnings);
    if (ast_.cards.empty() && ast_.subckts.empty()) {
      fail({0, 0, 0}, "empty deck");
    }

    // Pass A: the sequential parameter environment (.param in order,
    // forward references are errors), .temp and .global — everything
    // the device constructors need before the first element.
    for (const Card& card : ast_.cards) {
      switch (card.kind) {
        case CardKind::kParam:
          parse_param_card(card.line, global_scope_.env);
          break;
        case CardKind::kTemp:
          parse_temp_card(card.line);
          break;
        case CardKind::kGlobal:
          parse_global_card(card.line);
          break;
        case CardKind::kEnd:
          break;
        default:
          continue;
      }
      if (card.kind == CardKind::kEnd) break;
    }

    process_ = options_.process;
    if (deck_.has_temp) {
      process_ = process_.at_temperature(deck_.temperature_k);
    }

    // Pass B: top-level .model cards (order-independent like the legacy
    // two-pass parser; expressions see the final parameter values).
    for (const Card& card : ast_.cards) {
      if (card.kind == CardKind::kEnd) break;
      if (card.kind == CardKind::kModel) {
        parse_model_card(card.line, global_scope_);
      }
    }

    // Pass C: elements (hierarchy expanded depth-first, preserving the
    // legacy node numbering), analyses, .ic/.nodeset and .measure.
    for (const Card& card : ast_.cards) {
      switch (card.kind) {
        case CardKind::kElement:
          parse_element(card.line, nullptr, global_scope_);
          break;
        case CardKind::kOp:
        case CardKind::kTran:
        case CardKind::kAc:
        case CardKind::kDc:
          parse_analysis_card(card);
          break;
        case CardKind::kIc:
          parse_ic_card(card.line, deck_.ics);
          break;
        case CardKind::kNodeset:
          parse_ic_card(card.line, deck_.nodesets);
          break;
        case CardKind::kMeasure:
          parse_measure_card(card.line);
          break;
        case CardKind::kOption:
          warn(card.line.loc, "card '" + card.line.tokens[0].text +
                                  "' accepted and ignored");
          break;
        case CardKind::kUnknown:
          warn_or_fail(card.line.loc,
                       "unsupported card '" + card.line.tokens[0].text + "'",
                       "unsupported card '" + card.line.tokens[0].text +
                           "' (accepted and ignored; --strict rejects)");
          break;
        case CardKind::kModel:
        case CardKind::kParam:
        case CardKind::kTemp:
        case CardKind::kGlobal:
          break;  // handled in passes A/B
        case CardKind::kEnd:
          goto done;
      }
    }
  done:
    for (const auto& [name, value] : global_scope_.env.local()) {
      deck_.params[name] = value;
    }
    deck_.front_end.elements = deck_.circuit->devices().size();
    return std::move(deck_);
  }

 private:
  // ---- diagnostics ----------------------------------------------------

  [[noreturn]] void fail(const SourceLoc& loc, const std::string& message) {
    throw NetlistError(loc, ast_.files.format(loc), message);
  }

  void warn(const SourceLoc& loc, const std::string& message) {
    deck_.warnings.push_back({loc, message, ast_.files.format(loc)});
  }

  /// Accept-and-warn by default, a hard failure with --strict
  /// (ParseOptions::strict), which throws \p strict_message.
  void warn_or_fail(const SourceLoc& loc, const std::string& strict_message,
                    const std::string& lenient_note) {
    if (options_.strict) fail(loc, strict_message);
    warn(loc, lenient_note);
  }

  // ---- token evaluation ----------------------------------------------

  CompiledValue compile(const Token& tok) {
    if (!tok.quoted) {
      if (const std::optional<double> v = util::parse_si(tok.text)) return *v;
    }
    ++deck_.front_end.compiled_expressions;
    return CompiledExpr(tok.text);
  }

  double run(const CompiledValue& value, const ParamEnv& env) {
    if (const double* number = std::get_if<double>(&value)) return *number;
    ++deck_.front_end.expression_evaluations;
    return std::get<CompiledExpr>(value).eval(env);
  }

  /// The value of \p tok in \p env; throws ExprError. Top-level tokens,
  /// the only ones read in the global scope, are read once: compiled,
  /// run and dropped. A .subckt's tokens run once per instance, so each
  /// is compiled on its first use and its code kept until elaboration
  /// ends; a definition never instantiated is never compiled.
  double value_of(const Token& tok, const ParamEnv& env) {
    if (&env == &global_scope_.env) return run(compile(tok), env);
    auto it = compiled_.find(&tok);
    if (it == compiled_.end()) it = compiled_.emplace(&tok, compile(tok)).first;
    return run(it->second, env);
  }

  /// Evaluate a value token (number, parameter reference or quoted/
  /// unquoted expression) in \p env. Hard failure on malformed values.
  double eval_tok(const Token& tok, const ParamEnv& env) {
    try {
      return value_of(tok, env);
    } catch (const ExprError& e) {
      // Plain malformed numbers keep the legacy message; anything that
      // looks like an expression or a parameter reference reports the
      // evaluator's diagnostic instead.
      const char c0 = tok.text.empty() ? '\0' : tok.text[0];
      const bool number_like =
          !tok.quoted && (std::isdigit(static_cast<unsigned char>(c0)) ||
                          c0 == '.' || c0 == '+' || c0 == '-') &&
          tok.text.find_first_of("*/^() \t") == std::string::npos;
      if (number_like) fail(tok.loc, "bad number '" + tok.text + "'");
      fail(tok.loc, "in '" + tok.text + "': " + e.what());
    }
  }

  /// Like eval_tok but returns nullopt when the token is not a value
  /// (a keyword, a node name...). Quoted tokens are always values: a
  /// failure to evaluate one is a hard error.
  std::optional<double> try_eval(const Token& tok, const ParamEnv& env) {
    if (tok.quoted) return eval_tok(tok, env);
    try {
      return value_of(tok, env);
    } catch (const ExprError&) {
      return std::nullopt;
    }
  }

  // ---- cards ----------------------------------------------------------

  /// .param name=value [name=value ...]; later pairs of the same card
  /// see the earlier ones (sequential, like the card order itself).
  void parse_param_card(const LogicalLine& line, ParamEnv& env) {
    if (line.tokens.size() < 4) fail(line.loc, ".param needs name=value");
    for_each_param(line.tokens, 1, env, [&](const Token& key, double v) {
      env.set(lowercase(key.text), v);
    });
  }

  void parse_temp_card(const LogicalLine& line) {
    if (line.tokens.size() < 2) fail(line.loc, ".temp needs a value");
    const double celsius = eval_tok(line.tokens[1], global_scope_.env);
    deck_.has_temp = true;
    deck_.temperature_k = celsius + 273.15;
  }

  void parse_global_card(const LogicalLine& line) {
    if (line.tokens.size() < 2) fail(line.loc, ".global needs node names");
    for (std::size_t i = 1; i < line.tokens.size(); ++i) {
      const std::string name = lowercase(line.tokens[i].text);
      if (!spice::is_ground_name(name)) globals_.insert(name);
    }
  }

  void parse_model_card(const LogicalLine& line, Scope& scope) {
    const auto& tok = line.tokens;
    if (tok.size() < 3) fail(line.loc, ".model needs a name and a type");
    const std::string name = lowercase(tok[1].text);
    const std::string type = lowercase(tok[2].text);
    ModelCard m;
    if (type == "nmos" || type == "pmos") {
      m.kind = type == "nmos" ? ModelCard::Kind::kNmos : ModelCard::Kind::kPmos;
      m.mos = type == "nmos" ? process_.nmos : process_.pmos;
      m.mos.is_nmos = type == "nmos";
      for_each_param(tok, 3, scope.env, [&](const Token& key, double v) {
        const std::string k = lowercase(key.text);
        if (k == "vt0" || k == "vto") {
          m.mos.vt0 = v;
        } else if (k == "kp") {
          m.mos.kp = v;
        } else if (k == "n") {
          m.mos.n = v;
        } else if (k == "lambda") {
          m.mos.lambda = v;
        } else if (k == "cox") {
          m.mos.cox = v;
        } else if (k == "cov") {
          m.mos.cov = v;
        } else if (k == "cj0" || k == "cjo") {
          m.mos.cj0 = v;
        } else if (k == "mj") {
          m.mos.mj = v;
        } else if (k == "pb") {
          m.mos.pb = v;
        } else if (k == "js") {
          m.mos.js = v;
        } else if (k == "nj") {
          m.mos.nj = v;
        } else if (k == "avt") {
          m.mos.avt = v;
        } else if (k == "abeta") {
          m.mos.abeta = v;
        } else {
          fail(key.loc, "unknown MOS model parameter '" + k + "'");
        }
      });
    } else if (type == "d") {
      m.kind = ModelCard::Kind::kDiode;
      for_each_param(tok, 3, scope.env, [&](const Token& key, double v) {
        const std::string k = lowercase(key.text);
        if (k == "is") {
          m.diode.is = v;
        } else if (k == "n") {
          m.diode.n = v;
        } else if (k == "cj0" || k == "cjo") {
          m.diode.cj0 = v;
        } else if (k == "mj") {
          m.diode.mj = v;
        } else if (k == "pb") {
          m.diode.pb = v;
        } else {
          fail(key.loc, "unknown diode model parameter '" + k + "'");
        }
      });
    } else {
      fail(tok[2].loc, "unknown model type '" + tok[2].text + "'");
    }
    scope.models[name] = m;
  }

  /// key=value pairs from \p i on; \p sink is called per pair.
  template <typename Fn>
  void for_each_param(const std::vector<Token>& tok, std::size_t i,
                      const ParamEnv& env, Fn sink) {
    while (i < tok.size()) {
      if (i + 1 >= tok.size() || tok[i + 1].text != "=") {
        fail(tok[i].loc, "expected key=value, got '" + tok[i].text + "'");
      }
      if (i + 2 >= tok.size()) fail(tok[i].loc, "missing value after '='");
      sink(tok[i], eval_tok(tok[i + 2], env));
      i += 3;
    }
  }

  const ModelCard* builtin_model(const std::string& key) {
    auto it = builtin_models_.find(key);
    if (it != builtin_models_.end()) return &it->second;
    ModelCard m;
    if (key == "nmos") {
      m.mos = process_.nmos;
    } else if (key == "pmos") {
      m.kind = ModelCard::Kind::kPmos;
      m.mos = process_.pmos;
    } else if (key == "nmos_hvt") {
      m.mos = process_.nmos_hvt;
    } else if (key == "nmos_thick") {
      m.mos = process_.nmos_thick;
    } else if (key == "d") {
      m.kind = ModelCard::Kind::kDiode;
    } else {
      return nullptr;
    }
    return &builtin_models_.emplace(key, m).first->second;
  }

  const ModelCard& find_model(const Scope& scope, const Token& tok) {
    const std::string key = lowercase(tok.text);
    if (const ModelCard* m = scope.find_model(key)) return *m;
    if (const ModelCard* m = builtin_model(key)) return *m;
    fail(tok.loc, "unknown model '" + tok.text + "'");
  }

  // ---- nodes ----------------------------------------------------------

  /// Classify a node token of \p def's body. Every Circuit ground alias
  /// stays global first, or subckt expansion would prefix it into a
  /// phantom floating local node ("x1.vss!"); then a port (the last of
  /// duplicate port names); then a .global name; else a node local to
  /// the instance.
  const NodeRef& node_ref(const Token& tok, const SubcktDef& def) {
    auto it = node_refs_.find(&tok);
    if (it != node_refs_.end()) return it->second;
    NodeRef ref;
    if (spice::is_ground_name(tok.text)) {
      ref.kind = NodeRef::Kind::kGround;
    } else {
      ref.name = lowercase(tok.text);
      const auto port = std::find(def.ports.rbegin(), def.ports.rend(), ref.name);
      if (port != def.ports.rend()) {
        ref.kind = NodeRef::Kind::kPort;
        ref.port = static_cast<std::size_t>(def.ports.rend() - port) - 1;
      } else if (globals_.count(ref.name)) {
        ref.kind = NodeRef::Kind::kGlobal;
      }
    }
    return node_refs_.emplace(&tok, std::move(ref)).first->second;
  }

  NodeId resolve(Port& port) {
    if (!port.id) {
      port.id = port.caller_port ? resolve(*port.caller_port)
                                 : deck_.circuit->node(port.name);
    }
    return *port.id;
  }

  /// The node \p tok names in \p inst (at the top level when null).
  NodeId node_of(const Token& tok, Instance* inst) {
    if (!inst) return deck_.circuit->node(tok.text);
    const NodeRef& ref = node_ref(tok, *inst->def);
    switch (ref.kind) {
      case NodeRef::Kind::kGround:
        return spice::kGround;
      case NodeRef::Kind::kPort:
        return resolve(inst->ports[ref.port]);
      case NodeRef::Kind::kGlobal:
        return deck_.circuit->node(ref.name);
      case NodeRef::Kind::kLocal:
        break;
    }
    return deck_.circuit->node(inst->prefix + "." + ref.name);
  }

  /// The port an X card's node token \p tok wires in \p caller (at the
  /// top level when null). Nothing is created until the port is used.
  Port port_of(const Token& tok, Instance* caller) {
    Port port;
    if (!caller) {
      port.name = tok.text;
      return port;
    }
    const NodeRef& ref = node_ref(tok, *caller->def);
    switch (ref.kind) {
      case NodeRef::Kind::kGround:
        port.id = spice::kGround;
        break;
      case NodeRef::Kind::kPort:
        port.caller_port = &caller->ports[ref.port];
        break;
      case NodeRef::Kind::kGlobal:
        port.name = ref.name;
        break;
      case NodeRef::Kind::kLocal:
        port.name = caller->prefix + "." + ref.name;
        break;
    }
    return port;
  }

  // ---- sources --------------------------------------------------------

  SourceSpec parse_source(const std::vector<Token>& tok, std::size_t i,
                          const ParamEnv& env) {
    SourceSpec spec = SourceSpec::dc(0.0);
    bool have_main = false;
    double ac_mag = 0.0, ac_phase = 0.0;
    bool have_ac = false;

    auto collect = [&](std::size_t& k, std::vector<double>& a,
                       std::vector<const Token*>& toks) {
      for (++k; k < tok.size(); ++k) {
        const std::optional<double> v = try_eval(tok[k], env);
        if (!v) break;
        a.push_back(*v);
        toks.push_back(&tok[k]);
      }
    };

    while (i < tok.size()) {
      const std::string kw = tok[i].quoted ? "" : lowercase(tok[i].text);
      if (kw == "dc") {
        if (i + 1 >= tok.size()) fail(tok[i].loc, "DC needs a value");
        spec = SourceSpec::dc(eval_tok(tok[i + 1], env));
        have_main = true;
        i += 2;
      } else if (kw == "ac") {
        if (i + 1 >= tok.size()) fail(tok[i].loc, "AC needs a magnitude");
        ac_mag = eval_tok(tok[i + 1], env);
        i += 2;
        if (i < tok.size()) {
          if (const std::optional<double> ph = try_eval(tok[i], env)) {
            ac_phase = *ph;
            ++i;
          }
        }
        have_ac = true;
      } else if (kw == "pulse") {
        std::vector<double> a;
        std::vector<const Token*> at;
        const SourceLoc loc = tok[i].loc;
        collect(i, a, at);
        if (a.size() < 6) fail(loc, "PULSE needs >= 6 values");
        spec = SourceSpec::pulse(a[0], a[1], a[2], a[3], a[4], a[5],
                                 a.size() > 6 ? a[6] : 0.0);
        have_main = true;
      } else if (kw == "sin") {
        std::vector<double> a;
        std::vector<const Token*> at;
        const SourceLoc loc = tok[i].loc;
        collect(i, a, at);
        if (a.size() < 3) fail(loc, "SIN needs >= 3 values");
        spec = SourceSpec::sine(a[0], a[1], a[2], a.size() > 3 ? a[3] : 0.0,
                                a.size() > 4 ? a[4] : 0.0,
                                a.size() > 5 ? a[5] : 0.0);
        have_main = true;
      } else if (kw == "pwl") {
        std::vector<double> a;
        std::vector<const Token*> at;
        const SourceLoc loc = tok[i].loc;
        collect(i, a, at);
        if (a.size() < 4 || a.size() % 2 != 0) {
          fail(loc, "PWL needs an even number (>= 4) of values");
        }
        std::vector<double> ts, vs;
        for (std::size_t k = 0; k < a.size(); k += 2) {
          if (k > 0 && a[k] <= a[k - 2]) {
            fail(at[k]->loc,
                 "PWL time points must strictly increase (" +
                     util::format_si(a[k], "s", 4) + " after " +
                     util::format_si(a[k - 2], "s", 4) + ")");
          }
          ts.push_back(a[k]);
          vs.push_back(a[k + 1]);
        }
        spec = SourceSpec::pwl(std::move(ts), std::move(vs));
        have_main = true;
      } else if (kw == "exp") {
        std::vector<double> a;
        std::vector<const Token*> at;
        const SourceLoc loc = tok[i].loc;
        collect(i, a, at);
        if (a.size() < 6) fail(loc, "EXP needs 6 values");
        spec = SourceSpec::exp(a[0], a[1], a[2], a[3], a[4], a[5]);
        have_main = true;
      } else if (!have_main) {
        const std::optional<double> v = try_eval(tok[i], env);
        if (!v) {
          fail(tok[i].loc, "unexpected token '" + tok[i].text + "' in source");
        }
        spec = SourceSpec::dc(*v);
        have_main = true;
        ++i;
      } else {
        fail(tok[i].loc, "unexpected token '" + tok[i].text + "' in source");
      }
    }
    if (have_ac) spec.with_ac(ac_mag, ac_phase);
    return spec;
  }

  // ---- elements -------------------------------------------------------

  /// One element card, at the top level (\p inst null) or in the body
  /// of the subckt instance \p inst.
  void parse_element(const LogicalLine& line, Instance* inst,
                     const Scope& scope) {
    const auto& tok = line.tokens;
    if (tok.empty()) return;
    Circuit& c = *deck_.circuit;
    const ParamEnv& env = scope.env;
    const char kind = static_cast<char>(
        std::tolower(static_cast<unsigned char>(tok[0].text[0])));
    const std::string name =
        inst ? inst->prefix + "." + lowercase(tok[0].text) : tok[0].text;

    auto node = [&](std::size_t i) -> NodeId {
      if (i >= tok.size()) fail(line.loc, "missing node");
      return node_of(tok[i], inst);
    };
    auto value = [&](std::size_t i) -> double {
      if (i >= tok.size()) fail(line.loc, "missing value");
      return eval_tok(tok[i], env);
    };

    switch (kind) {
      case 'r': {
        if (tok.size() < 4) fail(line.loc, "R needs 2 nodes + value");
        c.add<spice::Resistor>(name, node(1), node(2), value(3));
        return;
      }
      case 'c': {
        if (tok.size() < 4) fail(line.loc, "C needs 2 nodes + value");
        c.add<spice::Capacitor>(name, node(1), node(2), value(3));
        return;
      }
      case 'l': {
        if (tok.size() < 4) fail(line.loc, "L needs 2 nodes + value");
        c.add<spice::Inductor>(name, node(1), node(2), value(3));
        return;
      }
      case 'v': {
        if (tok.size() < 4) fail(line.loc, "V needs 2 nodes + value");
        c.add<spice::VoltageSource>(name, node(1), node(2),
                                    parse_source(tok, 3, env));
        return;
      }
      case 'i': {
        if (tok.size() < 4) fail(line.loc, "I needs 2 nodes + value");
        c.add<spice::CurrentSource>(name, node(1), node(2),
                                    parse_source(tok, 3, env));
        return;
      }
      case 'e': {
        if (tok.size() < 6) fail(line.loc, "E needs 4 nodes + gain");
        c.add<spice::Vcvs>(name, node(1), node(2), node(3), node(4), value(5));
        return;
      }
      case 'g': {
        if (tok.size() < 6) fail(line.loc, "G needs 4 nodes + gm");
        c.add<spice::Vccs>(name, node(1), node(2), node(3), node(4), value(5));
        return;
      }
      case 'd': {
        if (tok.size() < 4) fail(line.loc, "D needs 2 nodes + model");
        const ModelCard& m = find_model(scope, tok[3]);
        if (m.kind != ModelCard::Kind::kDiode) {
          fail(tok[3].loc, "'" + tok[3].text + "' is not a diode model");
        }
        double area = 1.0;
        if (tok.size() > 4) {
          if (const std::optional<double> a = try_eval(tok[4], env)) area = *a;
        }
        c.add<device::Diode>(name, node(1), node(2), m.diode, area,
                             process_.temperature);
        return;
      }
      case 'm': {
        if (tok.size() < 6) fail(line.loc, "M needs 4 nodes + model");
        const ModelCard& m = find_model(scope, tok[5]);
        if (m.kind == ModelCard::Kind::kDiode) {
          fail(tok[5].loc, "'" + tok[5].text + "' is not a MOS model");
        }
        device::MosGeometry geo;
        for_each_param(tok, 6, env, [&](const Token& key, double v) {
          const std::string k = lowercase(key.text);
          if (k == "w") {
            geo.w = v;
          } else if (k == "l") {
            geo.l = v;
          } else if (k == "as") {
            geo.as = v;
          } else if (k == "ad") {
            geo.ad = v;
          }
          // Other instance parameters (m, nf, ...) are accepted and
          // ignored, matching the legacy parser.
        });
        c.add<device::Mosfet>(name, node(1), node(2), node(3), node(4), m.mos,
                              geo, process_.temperature);
        return;
      }
      case 'x': {
        if (tok.size() < 3) fail(line.loc, "X needs nodes + subckt name");
        expand_subckt(line, inst, scope);
        return;
      }
      default:
        fail(line.loc, "unsupported element '" + tok[0].text + "'");
    }
  }

  // ---- hierarchy ------------------------------------------------------

  void expand_subckt(const LogicalLine& line, Instance* outer,
                     const Scope& caller) {
    const auto& tok = line.tokens;
    // Split "Xname n1 ... nk subname [p=v ...]": the subckt name is the
    // token before the first key=value override (or the last token).
    std::size_t params_at = tok.size();
    for (std::size_t k = 2; k + 1 < tok.size(); ++k) {
      if (tok[k + 1].text == "=") {
        params_at = k;
        break;
      }
    }
    if (params_at < 3) fail(line.loc, "X needs nodes + subckt name");
    const Token& sub_tok = tok[params_at - 1];
    const std::string sub_name = lowercase(sub_tok.text);
    const auto it = ast_.subckts.find(sub_name);
    if (it == ast_.subckts.end()) {
      fail(sub_tok.loc, "unknown subckt '" + sub_tok.text + "'");
    }
    const SubcktDef& sub = it->second;
    const std::size_t n_nodes = params_at - 2;
    if (n_nodes != sub.ports.size()) {
      fail(line.loc, "subckt '" + sub_name + "' expects " +
                         std::to_string(sub.ports.size()) + " nodes");
    }
    Instance inst{&sub, lowercase(tok[0].text), {}};
    if (outer) inst.prefix = outer->prefix + "." + inst.prefix;
    const std::string& prefix = inst.prefix;

    if (static_cast<int>(path_.size()) >= options_.max_subckt_depth) {
      std::string chain;
      for (const Frame& f : path_) {
        chain += f.inst + "(" + f.subckt + ") -> ";
      }
      chain += prefix + "(" + sub_name + ")";
      fail(line.loc, "subckt nesting deeper than " +
                         std::to_string(options_.max_subckt_depth) +
                         " (recursion via " + chain +
                         "); raise max_subckt_depth if intended");
    }

    inst.ports.reserve(n_nodes);
    for (std::size_t k = 0; k < n_nodes; ++k) {
      inst.ports.push_back(port_of(tok[1 + k], outer));
    }

    // Parameter environment: defaults evaluate in the subckt's lexical
    // scope (globals + earlier defaults), instance overrides in the
    // caller's scope, models start from the global model table.
    Scope child(&global_scope_);
    for (const auto& [pname, ptok] : sub.defaults) {
      child.env.set(pname, eval_tok(ptok, child.env));
    }
    for (std::size_t k = params_at; k < tok.size(); k += 3) {
      if (k + 2 >= tok.size() || tok[k + 1].text != "=") {
        fail(tok[k].loc, "instance parameters must be key=value");
      }
      child.env.set(lowercase(tok[k].text), eval_tok(tok[k + 2], caller.env));
    }

    path_.push_back({prefix, sub_name});
    for (const Card& card : sub.body) {
      switch (card.kind) {
        case CardKind::kElement:
          parse_element(card.line, &inst, child);
          break;
        case CardKind::kParam:
          parse_param_card(card.line, child.env);
          break;
        case CardKind::kModel:
          parse_model_card(card.line, child);
          break;
        case CardKind::kOption:
          break;  // ignored everywhere
        case CardKind::kUnknown:
          warn_or_fail(card.line.loc,
                       "unsupported card '" + card.line.tokens[0].text + "'",
                       "unsupported card '" + card.line.tokens[0].text +
                           "' (accepted and ignored; --strict rejects)");
          break;
        default:
          warn(card.line.loc, "card '" + card.line.tokens[0].text +
                                  "' ignored inside .subckt " + sub_name);
          break;
      }
    }
    path_.pop_back();
  }

  // ---- analyses / ic / measure ---------------------------------------

  /// Analysis cards must describe a finite run: a degenerate one would
  /// otherwise grow a sweep until allocation fails or fail inside the
  /// engine with no location.
  void parse_analysis_card(const Card& card) {
    const auto& tok = card.line.tokens;
    const SourceLoc& loc = card.line.loc;
    auto value = [&](const Token& t) {
      const double v = eval_tok(t, global_scope_.env);
      if (!std::isfinite(v)) {
        fail(loc, lowercase(tok[0].text) + ": '" + t.text + "' is not finite");
      }
      return v;
    };
    AnalysisCard a;
    switch (card.kind) {
      case CardKind::kOp:
        a.kind = AnalysisCard::Kind::kOp;
        break;
      case CardKind::kTran: {
        // .tran [tstep] tstop  (tstep recorded, auto-stepping engine)
        if (tok.size() < 2) fail(loc, ".tran needs tstop");
        a.kind = AnalysisCard::Kind::kTran;
        a.tstop = value(tok.back());
        if (tok.size() > 2) a.tstep = value(tok[1]);
        if (a.tstop <= 0) fail(loc, ".tran needs tstop > 0");
        break;
      }
      case CardKind::kAc: {
        if (tok.size() < 5 || lowercase(tok[1].text) != "dec") {
          fail(loc, ".ac expects: .ac dec N fstart fstop");
        }
        a.kind = AnalysisCard::Kind::kAc;
        const double count = value(tok[2]);
        a.f_start = value(tok[3]);
        a.f_stop = value(tok[4]);
        if (count < 1 || count > INT_MAX || count != std::floor(count)) {
          fail(loc, ".ac point count must be a whole number in [1, " +
                        std::to_string(INT_MAX) + "]");
        }
        a.points_per_decade = static_cast<int>(count);
        if (a.f_start <= 0 || a.f_stop < a.f_start) {
          fail(loc, ".ac needs 0 < fstart <= fstop");
        }
        break;
      }
      case CardKind::kDc: {
        if (tok.size() < 5) fail(loc, ".dc source start stop step");
        a.kind = AnalysisCard::Kind::kDc;
        a.sweep_source = tok[1].text;
        a.sweep_start = value(tok[2]);
        a.sweep_stop = value(tok[3]);
        a.sweep_step = value(tok[4]);
        if (a.sweep_step <= 0) fail(loc, ".dc needs step > 0");
        if (a.sweep_stop < a.sweep_start) fail(loc, ".dc needs stop >= start");
        break;
      }
      default:
        return;
    }
    deck_.analyses.push_back(a);
  }

  /// .ic v(node)=value [v(node)=value ...]; after tokenization:
  /// "v" node "=" value groups.
  void parse_ic_card(const LogicalLine& line, std::vector<IcSpec>& sink) {
    const auto& tok = line.tokens;
    std::size_t i = 1;
    if (tok.size() < 5) fail(line.loc, ".ic expects v(node)=value entries");
    while (i < tok.size()) {
      if (i + 3 >= tok.size() || lowercase(tok[i].text) != "v" ||
          tok[i + 2].text != "=") {
        fail(tok[i].loc, ".ic expects v(node)=value entries");
      }
      const std::string node = lowercase(tok[i + 1].text);
      const double volts = eval_tok(tok[i + 3], global_scope_.env);
      if (!spice::is_ground_name(node)) sink.push_back({node, volts});
      i += 4;
    }
  }

  Probe parse_probe(const std::vector<Token>& tok, std::size_t& i,
                    const SourceLoc& loc) {
    if (i + 1 >= tok.size()) fail(loc, "expected v(node) or i(source)");
    const std::string what = lowercase(tok[i].text);
    Probe p;
    if (what == "v") {
      p.type = Probe::Type::kVoltage;
    } else if (what == "i") {
      p.type = Probe::Type::kCurrent;
    } else {
      fail(tok[i].loc, "expected v(node) or i(source), got '" + tok[i].text +
                           "'");
    }
    p.ref = lowercase(tok[i + 1].text);
    i += 2;
    return p;
  }

  MeasureSpec::Event parse_event(const std::vector<Token>& tok, std::size_t& i,
                                 const SourceLoc& loc, const ParamEnv& env,
                                 bool& have_val) {
    MeasureSpec::Event ev;
    ev.probe = parse_probe(tok, i, loc);
    have_val = false;
    while (i < tok.size()) {
      const std::string kw = lowercase(tok[i].text);
      if (kw == "targ" || kw == "trig") break;
      if (i + 2 >= tok.size() || tok[i + 1].text != "=") break;
      const Token& val = tok[i + 2];
      if (kw == "val") {
        ev.level = eval_tok(val, env);
        have_val = true;
      } else if (kw == "rise") {
        ev.edge = MeasureSpec::EdgeSel::kRise;
        ev.count = static_cast<int>(eval_tok(val, env));
      } else if (kw == "fall") {
        ev.edge = MeasureSpec::EdgeSel::kFall;
        ev.count = static_cast<int>(eval_tok(val, env));
      } else if (kw == "cross") {
        ev.edge = MeasureSpec::EdgeSel::kCross;
        ev.count = static_cast<int>(eval_tok(val, env));
      } else if (kw == "td") {
        ev.td = eval_tok(val, env);
      } else {
        fail(tok[i].loc, "unknown .measure event keyword '" + kw + "'");
      }
      i += 3;
    }
    return ev;
  }

  void parse_measure_card(const LogicalLine& line) {
    const auto& tok = line.tokens;
    const ParamEnv& env = global_scope_.env;
    if (tok.size() < 4) {
      fail(line.loc, ".measure expects: .measure tran|dc name <spec>");
    }
    MeasureSpec m;
    m.loc = line.loc;
    m.location = ast_.files.format(line.loc);
    const std::string analysis = lowercase(tok[1].text);
    if (analysis == "tran") {
      m.analysis = MeasureSpec::Analysis::kTran;
    } else if (analysis == "dc") {
      m.analysis = MeasureSpec::Analysis::kDc;
    } else {
      fail(tok[1].loc, ".measure expects tran or dc, got '" + tok[1].text + "'");
    }
    m.name = lowercase(tok[2].text);

    std::size_t i = 3;
    const std::string form = lowercase(tok[i].text);
    static const std::map<std::string, MeasureSpec::Stat> kStats = {
        {"integ", MeasureSpec::Stat::kInteg}, {"avg", MeasureSpec::Stat::kAvg},
        {"min", MeasureSpec::Stat::kMin},     {"max", MeasureSpec::Stat::kMax},
        {"rms", MeasureSpec::Stat::kRms},     {"pp", MeasureSpec::Stat::kPp}};

    if (form == "trig") {
      m.kind = MeasureSpec::Kind::kTrigTarg;
      ++i;
      bool have_val = false;
      m.trig = parse_event(tok, i, line.loc, env, have_val);
      if (!have_val) fail(line.loc, ".measure trig needs VAL=");
      if (i >= tok.size() || lowercase(tok[i].text) != "targ") {
        fail(line.loc, ".measure trig needs a matching TARG");
      }
      ++i;
      m.targ = parse_event(tok, i, line.loc, env, have_val);
      if (!have_val) fail(line.loc, ".measure targ needs VAL=");
    } else if (kStats.count(form)) {
      m.kind = MeasureSpec::Kind::kStat;
      m.stat = kStats.at(form);
      ++i;
      m.probe = parse_probe(tok, i, line.loc);
      while (i < tok.size()) {
        const std::string kw = lowercase(tok[i].text);
        if (i + 2 >= tok.size() || tok[i + 1].text != "=") {
          fail(tok[i].loc, "expected FROM=/TO= in .measure " + form);
        }
        if (kw == "from") {
          m.from = eval_tok(tok[i + 2], env);
        } else if (kw == "to") {
          m.to = eval_tok(tok[i + 2], env);
        } else {
          fail(tok[i].loc, "unknown .measure keyword '" + kw + "'");
        }
        i += 3;
      }
    } else if (form == "find") {
      m.kind = MeasureSpec::Kind::kFindAt;
      ++i;
      m.probe = parse_probe(tok, i, line.loc);
      if (i + 2 >= tok.size() || lowercase(tok[i].text) != "at" ||
          tok[i + 1].text != "=") {
        fail(line.loc, ".measure find needs AT=time");
      }
      m.at = eval_tok(tok[i + 2], env);
    } else if (form == "param") {
      m.kind = MeasureSpec::Kind::kParam;
      if (i + 2 >= tok.size() || tok[i + 1].text != "=") {
        fail(tok[i].loc, ".measure param needs ='expr'");
      }
      m.expr = tok[i + 2].text;
    } else {
      fail(tok[i].loc, "unsupported .measure form '" + tok[i].text + "'");
    }
    deck_.measures.push_back(std::move(m));
  }

  Ast ast_;
  const ParseOptions& options_;
  Deck deck_;
  device::Process process_;
  Scope global_scope_;
  std::set<std::string> globals_;
  std::map<std::string, ModelCard> builtin_models_;
  std::vector<Frame> path_;
  std::unordered_map<const Token*, CompiledValue> compiled_;
  std::unordered_map<const Token*, NodeRef> node_refs_;
};

}  // namespace

Deck elaborate(Ast ast, const ParseOptions& options) {
  return Elaborator(std::move(ast), options).run();
}

Deck parse_netlist(const std::string& text, const ParseOptions& options) {
  LexOptions lex_options;
  lex_options.include_loader = options.include_loader;
  return elaborate(build_ast(lex_deck(text, options.name, lex_options)),
                   options);
}

}  // namespace sscl::netlist
