#include "netlist/expr.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>

#include "util/units.hpp"

namespace sscl::netlist {

namespace {

char lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool is_alpha(char c) { return std::isalpha(static_cast<unsigned char>(c)); }

}  // namespace

void ParamEnv::set(std::string name, double value) {
  for (char& c : name) c = lower(c);
  values_.insert_or_assign(std::move(name), value);
}

std::optional<double> ParamEnv::lookup(std::string_view name) const {
  if (std::none_of(name.begin(), name.end(),
                   [](char c) { return lower(c) != c; })) {
    return find(name);
  }
  std::string folded(name);
  for (char& c : folded) c = lower(c);
  return find(folded);
}

std::optional<double> ParamEnv::find(std::string_view lowercase_name) const {
  for (const ParamEnv* env = this; env; env = env->parent_) {
    const auto it = env->values_.find(lowercase_name);
    if (it != env->values_.end()) return it->second;
  }
  return std::nullopt;
}

/// The recursive-descent parser of the grammar in expr.hpp, emitting
/// postfix code in reading order. A syntax error throws out of the
/// parse; CompiledExpr keeps it with the code emitted before it.
class ExprCompiler {
 public:
  ExprCompiler(std::string_view text, CompiledExpr& out)
      : text_(text), out_(out) {}

  void run() {
    skip_ws();
    if (at_end()) throw ExprError(0, "empty expression");
    parse_expr();
    skip_ws();
    if (!at_end()) {
      throw ExprError(pos_, "unexpected '" + std::string(1, text_[pos_]) +
                                "' in expression");
    }
  }

 private:
  using Op = CompiledExpr::Op;

  struct Function {
    std::string_view name;
    Op op;
    bool binary;
  };

  static const Function* find_function(std::string_view name) {
    static constexpr Function kFunctions[] = {
        {"abs", Op::kAbs, false},     {"sqrt", Op::kSqrt, false},
        {"exp", Op::kExp, false},     {"ln", Op::kLn, false},
        {"log", Op::kLn, false},      {"log10", Op::kLog10, false},
        {"db", Op::kDb, false},       {"sin", Op::kSin, false},
        {"cos", Op::kCos, false},     {"tan", Op::kTan, false},
        {"atan", Op::kAtan, false},   {"floor", Op::kFloor, false},
        {"ceil", Op::kCeil, false},   {"int", Op::kInt, false},
        {"sgn", Op::kSgn, false},     {"pow", Op::kPow, true},
        {"min", Op::kMin, true},      {"max", Op::kMax, true},
    };
    for (const Function& f : kFunctions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  // ---- code ------------------------------------------------------------

  void push(const CompiledExpr::Instr& instr) {
    out_.code_.push_back(instr);
    out_.stack_depth_ = std::max(out_.stack_depth_, ++depth_);
  }
  /// An operator or function: binary ones pop two values and push one.
  void apply(Op op, bool binary) {
    out_.code_.push_back({op});
    if (binary) --depth_;
  }

  // ---- text ------------------------------------------------------------

  bool at_end() const { return pos_ >= text_.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  /// One '(' deeper, grouping or call; the bound keeps the recursion
  /// below off the end of any thread's stack.
  void open_paren() {
    if (++nesting_ > kMaxExprDepth) {
      throw ExprError(pos_, "expression nested deeper than " +
                                std::to_string(kMaxExprDepth) + " levels");
    }
    ++pos_;
  }

  // ---- grammar ---------------------------------------------------------

  void parse_expr() {
    parse_term();
    for (;;) {
      skip_ws();
      const char c = peek();
      if (c != '+' && c != '-') return;
      ++pos_;
      parse_term();
      apply(c == '+' ? Op::kAdd : Op::kSub, true);
    }
  }

  /// A '*' here is never the first of a '**': parse_power took those.
  void parse_term() {
    parse_power();
    for (;;) {
      skip_ws();
      const char c = peek();
      if (c != '*' && c != '/' && c != '%') return;
      ++pos_;
      parse_power();
      apply(c == '*' ? Op::kMul : c == '/' ? Op::kDiv : Op::kMod, true);
    }
  }

  /// a^b^c reads its operands in a loop and then applies the powers
  /// right to left, pow(a, pow(b, c)), so a long chain costs no stack.
  void parse_power() {
    parse_unary();
    std::size_t powers = 0;
    for (;;) {
      skip_ws();
      if (peek() == '^') {
        ++pos_;
      } else if (peek() == '*' && peek(1) == '*') {
        pos_ += 2;
      } else {
        break;
      }
      parse_unary();
      ++powers;
    }
    for (; powers > 0; --powers) apply(Op::kPow, true);
  }

  /// A run of signs is a loop too: each '-' flips the sign bit, so an
  /// even count leaves the operand exactly as it was.
  void parse_unary() {
    bool negate = false;
    for (;; ++pos_) {
      skip_ws();
      if (peek() == '-') {
        negate = !negate;
      } else if (peek() != '+') {
        break;
      }
    }
    parse_primary();
    if (negate) apply(Op::kNeg, false);
  }

  /// Called by parse_unary, which has skipped the whitespace.
  void parse_primary() {
    if (at_end()) throw ExprError(pos_, "expression ends unexpectedly");
    const char c = peek();
    if (c == '(') {
      open_paren();
      parse_expr();
      if (!consume(')')) throw ExprError(pos_, "missing ')'");
      --nesting_;
      return;
    }
    if (is_digit(c) || (c == '.' && is_digit(peek(1)))) return parse_number();
    if (is_alpha(c) || c == '_') return parse_ident();
    throw ExprError(pos_, std::string("unexpected '") + c + "' in expression");
  }

  /// Mantissa, optional exponent, optional SI suffix letters — handed
  /// whole to util::parse_si so deck numbers and expression numbers
  /// agree byte for byte.
  void parse_number() {
    const std::size_t start = pos_;
    while (!at_end() && (is_digit(peek()) || peek() == '.')) ++pos_;
    if (peek() == 'e' || peek() == 'E') {
      // Exponent only when followed by a digit or a signed digit;
      // otherwise the letters are an SI suffix ("1e-9" vs "2exp"...).
      std::size_t ahead = 1;
      if (peek(ahead) == '+' || peek(ahead) == '-') ++ahead;
      if (is_digit(peek(ahead))) {
        pos_ += ahead;
        while (is_digit(peek())) ++pos_;
      }
    }
    // SI suffix letters ("n", "meg", "k"...).
    while (is_alpha(peek())) ++pos_;
    const std::string_view slice = text_.substr(start, pos_ - start);
    const std::optional<double> v = util::parse_si(slice);
    if (!v) throw ExprError(start, "bad number '" + std::string(slice) + "'");
    push({.op = Op::kConst, .value = *v});
  }

  /// An identifier is lowercased straight into names_; a function name
  /// or constant is taken back out again.
  void parse_ident() {
    const std::size_t start = pos_;
    std::string& names = out_.names_;
    const std::size_t name = names.size();
    while (!at_end() &&
           (std::isalnum(static_cast<unsigned char>(peek())) ||
            peek() == '_' || peek() == '.')) {
      names += lower(text_[pos_++]);
    }
    const std::size_t len = pos_ - start;
    const std::string_view lowered(names.data() + name, len);
    skip_ws();
    if (peek() == '(') {
      const Function* f = find_function(lowered);
      names.resize(name);
      return parse_call(start, len, f);
    }
    if (lowered == "pi" || lowered == "e") {
      const double value = lowered == "pi" ? M_PI : M_E;
      names.resize(name);
      return push({.op = Op::kConst, .value = value});
    }
    push({.op = Op::kLoad,
          .len = static_cast<std::uint32_t>(len),
          .name = name,
          .pos = start});
  }

  /// The call of function \p f (null when unknown) named by the
  /// identifier at [start, start + len).
  void parse_call(std::size_t start, std::size_t len, const Function* f) {
    open_paren();
    parse_expr();
    const bool two = consume(',');
    if (two) parse_expr();
    auto name = [&] {
      std::string lowered(text_.substr(start, len));
      for (char& c : lowered) c = lower(c);
      return lowered;
    };
    if (!consume(')')) throw ExprError(pos_, "missing ')' after " + name());
    --nesting_;
    if (!f) throw ExprError(start, "unknown function '" + name() + "'");
    if (f->binary != two) {
      throw ExprError(start, name() + " expects " +
                                 (f->binary ? "two arguments" : "one argument"));
    }
    apply(f->op, f->binary);
  }

  std::string_view text_;
  CompiledExpr& out_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< values on the evaluation stack
  int nesting_ = 0;        ///< open parentheses
};

CompiledExpr::CompiledExpr(std::string_view text) {
  // About one instruction per two characters; at most one per character.
  code_.reserve(std::min<std::size_t>(text.size() / 2 + 2, 32));
  try {
    ExprCompiler(text, *this).run();
  } catch (const ExprError& e) {
    error_ = e;
  }
}

double CompiledExpr::eval(const ParamEnv& env) const {
  constexpr std::size_t kInlineStack = 16;
  double inline_stack[kInlineStack] = {};
  std::unique_ptr<double[]> heap_stack;
  double* base = inline_stack;
  if (stack_depth_ > kInlineStack) {
    heap_stack = std::make_unique<double[]>(stack_depth_);
    base = heap_stack.get();
  }
  double* top = base;  // one past the top value
  for (const Instr& in : code_) {
    if (in.op == Op::kConst) {
      *top++ = in.value;
      continue;
    }
    if (in.op == Op::kLoad) {
      const std::string_view name(names_.data() + in.name, in.len);
      const std::optional<double> v = env.find(name);
      if (!v) {
        throw ExprError(in.pos, "unknown parameter '" + std::string(name) + "'");
      }
      *top++ = *v;
      continue;
    }
    double& x = top[-1];  // the operand, or a binary's right operand
    switch (in.op) {
      case Op::kNeg: x = -x; break;
      case Op::kAbs: x = std::fabs(x); break;
      case Op::kSqrt: x = std::sqrt(x); break;
      case Op::kExp: x = std::exp(x); break;
      case Op::kLn: x = std::log(x); break;
      case Op::kLog10: x = std::log10(x); break;
      case Op::kDb: x = 20.0 * std::log10(std::fabs(x)); break;
      case Op::kSin: x = std::sin(x); break;
      case Op::kCos: x = std::cos(x); break;
      case Op::kTan: x = std::tan(x); break;
      case Op::kAtan: x = std::atan(x); break;
      case Op::kFloor: x = std::floor(x); break;
      case Op::kCeil: x = std::ceil(x); break;
      case Op::kInt: x = std::trunc(x); break;
      case Op::kSgn: x = x > 0 ? 1.0 : x < 0 ? -1.0 : 0.0; break;
      // Binary: pop x and combine it into the left operand.
      case Op::kAdd: --top; top[-1] = top[-1] + x; break;
      case Op::kSub: --top; top[-1] = top[-1] - x; break;
      case Op::kMul: --top; top[-1] = top[-1] * x; break;
      case Op::kDiv: --top; top[-1] = top[-1] / x; break;
      case Op::kMod: --top; top[-1] = std::fmod(top[-1], x); break;
      case Op::kPow: --top; top[-1] = std::pow(top[-1], x); break;
      case Op::kMin: --top; top[-1] = std::min(top[-1], x); break;
      case Op::kMax: --top; top[-1] = std::max(top[-1], x); break;
      case Op::kConst:
      case Op::kLoad:
        break;  // handled above
    }
  }
  if (error_) throw *error_;
  return base[0];
}

double eval_expr(std::string_view text, const ParamEnv& env) {
  return CompiledExpr(text).eval(env);
}

}  // namespace sscl::netlist
