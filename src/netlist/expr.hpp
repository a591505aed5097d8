#pragma once

/// \file expr.hpp
/// Stage 3 of the netlist front-end: .param expressions. One recursive-
/// descent parser compiles HSPICE-style arithmetic to postfix code, and
/// a stack evaluator runs that code over lexically scoped parameter
/// environments:
///
///   expr    := term (('+'|'-') term)*
///   term    := power (('*'|'/'|'%') power)*
///   power   := unary (('**'|'^') unary)*          (right associative)
///   unary   := ('+'|'-')* primary
///   primary := number | ident | func '(' expr (',' expr)? ')'
///            | '(' expr ')'
///
/// Numbers use SPICE engineering suffixes ("40n", "1.2meg", "5e-10").
/// Identifiers are case-insensitive parameter references; pi and e are
/// predefined. Functions: abs sqrt exp ln log log10 pow min max sin cos
/// tan atan floor ceil int sgn db. Parentheses, a function call's
/// included, nest at most kMaxExprDepth deep.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "spice/circuit.hpp"

namespace sscl::netlist {

/// Deepest parenthesis nesting an expression may use; deeper text is an
/// ExprError at the '(' that crosses it, not a stack overflow.
inline constexpr int kMaxExprDepth = 1000;

/// A lexically scoped parameter environment: lookups walk outward
/// through enclosing scopes (subckt instance -> subckt defaults ->
/// globals). Scopes do not own their parent; the elaborator keeps the
/// chain alive on its stack.
class ParamEnv {
 public:
  /// Searched by std::string_view: a lowercase name needs no copy.
  using Map = std::unordered_map<std::string, double, spice::NameHash,
                                 std::equal_to<>>;

  explicit ParamEnv(const ParamEnv* parent = nullptr) : parent_(parent) {}

  /// Define (or shadow) a parameter in this scope. Names are stored
  /// lowercased.
  void set(std::string name, double value);

  /// Look a parameter up through the scope chain (case-insensitive).
  std::optional<double> lookup(std::string_view name) const;

  /// The parameters of this scope only (lowercased names).
  const Map& local() const { return values_; }

 private:
  friend class CompiledExpr;

  /// lookup() of a name that is already lowercase.
  std::optional<double> find(std::string_view lowercase_name) const;

  const ParamEnv* parent_;
  Map values_;
};

/// Thrown on malformed expressions and unresolved parameters; position
/// is a 0-based offset into the expression text.
class ExprError : public std::runtime_error {
 public:
  ExprError(std::size_t pos, const std::string& message)
      : std::runtime_error(message), pos_(pos) {}
  std::size_t pos() const { return pos_; }

 private:
  std::size_t pos_;
};

/// One expression compiled to postfix code: compile once, evaluate in
/// any number of environments. Compiling never throws. A syntax error
/// is kept with its position and thrown by eval() after the code
/// compiled before it has run, so an unknown parameter earlier in the
/// text is reported first, as a left-to-right reading would.
class CompiledExpr {
 public:
  explicit CompiledExpr(std::string_view text);

  /// Run the code against \p env. Throws ExprError.
  double eval(const ParamEnv& env) const;

 private:
  friend class ExprCompiler;

  enum class Op : std::uint8_t {
    kConst, kLoad, kNeg, kAdd, kSub, kMul, kDiv, kMod, kPow,
    kAbs, kSqrt, kExp, kLn, kLog10, kDb, kSin, kCos, kTan, kAtan,
    kFloor, kCeil, kInt, kSgn, kMin, kMax,
  };
  struct Instr {
    Op op;
    std::uint32_t len = 0;  ///< kLoad: the lowercased name is
    std::size_t name = 0;   ///< names_[name, name + len)
    std::size_t pos = 0;    ///< kLoad: offset of the name in the text
    double value = 0.0;     ///< kConst
  };

  std::vector<Instr> code_;
  std::string names_;  ///< every kLoad name, lowercased, back to back
  std::size_t stack_depth_ = 0;
  std::optional<ExprError> error_;
};

/// Evaluate \p text against \p env: compile and run once. Throws
/// ExprError.
double eval_expr(std::string_view text, const ParamEnv& env);

}  // namespace sscl::netlist
