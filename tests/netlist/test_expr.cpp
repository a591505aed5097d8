#include "netlist/expr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace sscl::netlist {
namespace {

double ev(const std::string& text) {
  ParamEnv env;
  return eval_expr(text, env);
}

TEST(Expr, ArithmeticAndPrecedence) {
  EXPECT_DOUBLE_EQ(ev("1+2*3"), 7.0);
  EXPECT_DOUBLE_EQ(ev("(1+2)*3"), 9.0);
  EXPECT_DOUBLE_EQ(ev("10-4-3"), 3.0);   // left associative
  EXPECT_DOUBLE_EQ(ev("12/4/3"), 1.0);
  EXPECT_DOUBLE_EQ(ev("7%4"), 3.0);
  EXPECT_DOUBLE_EQ(ev("-2*-3"), 6.0);
  EXPECT_DOUBLE_EQ(ev("- -5"), 5.0);
}

TEST(Expr, PowerBindsTighterAndRightAssociates) {
  EXPECT_DOUBLE_EQ(ev("2**3"), 8.0);
  EXPECT_DOUBLE_EQ(ev("2^3"), 8.0);
  EXPECT_DOUBLE_EQ(ev("2**3**2"), 512.0);  // 2**(3**2), not (2**3)**2
  EXPECT_DOUBLE_EQ(ev("-2**2"), 4.0);      // unary minus binds to the base
  EXPECT_DOUBLE_EQ(ev("3*2**2"), 12.0);
}

TEST(Expr, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(ev("40n"), 40e-9);
  EXPECT_DOUBLE_EQ(ev("1.2meg"), 1.2e6);
  EXPECT_DOUBLE_EQ(ev("5e-10"), 5e-10);
  EXPECT_NEAR(ev("2.5u*4"), 1e-5, 1e-20);
  EXPECT_DOUBLE_EQ(ev("1k+1"), 1001.0);
}

TEST(Expr, BuiltinConstantsAndFunctions) {
  EXPECT_NEAR(ev("pi"), M_PI, 1e-15);
  EXPECT_NEAR(ev("sin(pi/2)"), 1.0, 1e-12);
  EXPECT_NEAR(ev("sqrt(2)*sqrt(2)"), 2.0, 1e-12);
  EXPECT_NEAR(ev("ln(e)"), 1.0, 1e-12);
  EXPECT_NEAR(ev("log10(1000)"), 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(ev("abs(-3)"), 3.0);
  EXPECT_DOUBLE_EQ(ev("min(2,3)"), 2.0);
  EXPECT_DOUBLE_EQ(ev("max(2,3)"), 3.0);
  EXPECT_DOUBLE_EQ(ev("pow(2,10)"), 1024.0);
  EXPECT_DOUBLE_EQ(ev("floor(1.9)"), 1.0);
  EXPECT_DOUBLE_EQ(ev("ceil(1.1)"), 2.0);
  EXPECT_DOUBLE_EQ(ev("sgn(-7)"), -1.0);
  EXPECT_NEAR(ev("db(10)"), 20.0, 1e-12);
}

TEST(Expr, ParameterLookupIsCaseInsensitive) {
  ParamEnv env;
  env.set("Vdd", 0.4);
  EXPECT_DOUBLE_EQ(eval_expr("VDD/2", env), 0.2);
  EXPECT_NEAR(eval_expr("vdd*3", env), 1.2, 1e-15);
}

TEST(Expr, ScopedEnvironmentsShadowOutward) {
  ParamEnv globals;
  globals.set("w", 1e-6);
  globals.set("beta", 2.0);
  ParamEnv inner(&globals);
  inner.set("w", 3e-6);  // shadows the global
  EXPECT_DOUBLE_EQ(eval_expr("w*beta", inner), 6e-6);    // inner w, outer beta
  EXPECT_DOUBLE_EQ(eval_expr("w*beta", globals), 2e-6);  // untouched
  EXPECT_FALSE(globals.lookup("nope").has_value());
  EXPECT_EQ(inner.lookup("beta"), globals.lookup("beta"));
}

TEST(Expr, ErrorsCarryPositions) {
  try {
    ev("1+*2");
    FAIL() << "expected ExprError";
  } catch (const ExprError& e) {
    EXPECT_EQ(e.pos(), 2u);
  }
  try {
    ev("2*(3+4");
    FAIL() << "expected ExprError";
  } catch (const ExprError& e) {
    EXPECT_NE(std::string(e.what()).find("')'"), std::string::npos);
  }
  try {
    ev("1+undefined_param");
    FAIL() << "expected ExprError";
  } catch (const ExprError& e) {
    EXPECT_EQ(e.pos(), 2u);
    EXPECT_NE(std::string(e.what()).find("undefined_param"),
              std::string::npos);
  }
  EXPECT_THROW(ev(""), ExprError);
  EXPECT_THROW(ev("blorp(3)"), ExprError);
  EXPECT_THROW(ev("min(1)"), ExprError);
}

std::string error_of(const std::string& text, const ParamEnv& env,
                     std::size_t* pos = nullptr) {
  try {
    eval_expr(text, env);
  } catch (const ExprError& e) {
    if (pos) *pos = e.pos();
    return e.what();
  }
  return "no error";
}

TEST(Expr, CompiledCodeRunsInEveryEnvironment) {
  // The code holds loads, not values: one compile, two scopes.
  const CompiledExpr code("r*2 + rbase");
  ParamEnv globals;
  globals.set("rbase", 100.0);
  ParamEnv first(&globals);
  first.set("R", 1.0);
  ParamEnv second(&globals);
  second.set("r", 5.0);
  EXPECT_DOUBLE_EQ(code.eval(first), 102.0);
  EXPECT_DOUBLE_EQ(code.eval(second), 110.0);
  EXPECT_THROW(code.eval(globals), ExprError);  // no r out there
}

TEST(Expr, AnUnknownParameterBeforeASyntaxErrorIsReportedFirst) {
  ParamEnv env;
  env.set("q", 1.0);
  ParamEnv empty;
  std::size_t pos = 0;
  // The argument is read before the function name is looked up.
  EXPECT_EQ(error_of("foo(zz)", empty, &pos), "unknown parameter 'zz'");
  EXPECT_EQ(pos, 4u);
  EXPECT_EQ(error_of("foo(1)", empty, &pos), "unknown function 'foo'");
  EXPECT_EQ(pos, 0u);
  // The syntax error is kept until the code before it has run.
  EXPECT_EQ(error_of("q + (", empty, &pos), "unknown parameter 'q'");
  EXPECT_EQ(pos, 0u);
  EXPECT_EQ(error_of("q + (", env, &pos), "expression ends unexpectedly");
  EXPECT_EQ(pos, 5u);
  // An arity error comes after its arguments are read.
  EXPECT_EQ(error_of("sqrt(1, zz)", empty, &pos), "unknown parameter 'zz'");
  EXPECT_EQ(pos, 8u);
  EXPECT_EQ(error_of("sqrt(1, q)", env, &pos), "sqrt expects one argument");
  EXPECT_EQ(pos, 0u);
  // A compiled syntax error throws on every run, the same each time.
  const CompiledExpr broken("q + (");
  for (int run = 0; run < 2; ++run) {
    try {
      broken.eval(env);
      ADD_FAILURE() << "expected ExprError";
    } catch (const ExprError& e) {
      EXPECT_EQ(e.pos(), 5u);
    }
  }
}

TEST(Expr, NestingDeeperThanTheBoundIsALocatedError) {
  ParamEnv env;
  auto nested = [](int levels) {
    return std::string(static_cast<std::size_t>(levels), '(') + "1" +
           std::string(static_cast<std::size_t>(levels), ')');
  };
  EXPECT_DOUBLE_EQ(eval_expr(nested(kMaxExprDepth), env), 1.0);
  std::size_t pos = 0;
  EXPECT_EQ(error_of(nested(kMaxExprDepth + 1), env, &pos),
            "expression nested deeper than 1000 levels");
  EXPECT_EQ(pos, 1000u);  // the '(' that opens level 1001
  // Function calls count as levels too.
  std::string calls;
  for (int i = 0; i <= kMaxExprDepth; ++i) calls += "abs(";
  calls += "1" + std::string(kMaxExprDepth + 1, ')');
  EXPECT_EQ(error_of(calls, env, &pos),
            "expression nested deeper than 1000 levels");
  EXPECT_EQ(pos, 4u * 1000u + 3u);
  // Deep enough to overflow the stack of a recursive parser.
  EXPECT_EQ(error_of(nested(30000), env, &pos),
            "expression nested deeper than 1000 levels");
  EXPECT_EQ(pos, 1000u);
  // Sign runs and power chains are loops: no bound, same values.
  EXPECT_DOUBLE_EQ(eval_expr(std::string(3000000, '-') + "2", env), 2.0);
  EXPECT_DOUBLE_EQ(eval_expr(std::string(3000001, '-') + "2", env), -2.0);
  std::string chain = "2";
  for (int i = 0; i < 100000; ++i) chain += "^1";
  EXPECT_DOUBLE_EQ(eval_expr(chain, env), 2.0);
  EXPECT_DOUBLE_EQ(eval_expr("2^3^2", env), 512.0);
}

/// One line of expr_cases.golden: the value as a hex float, "nan" for
/// any NaN (x86 gives the sign of whichever NaN operand came first), or
/// "E <pos> <message>".
std::string outcome(const std::string& text, const ParamEnv& env) {
  try {
    const double v = eval_expr(text, env);
    if (std::isnan(v)) return "nan";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
  } catch (const ExprError& e) {
    return "E " + std::to_string(e.pos()) + " " + e.what();
  }
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(Expr, CasesMatchTheirGolden) {
  // The scope expr_cases.txt documents in its header.
  ParamEnv globals;
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"a", 1.5}, {"b", -2.25}, {"w", 2e-6},
        {"vdd", 0.4}, {"e", 7.0}, {"zero", 0.0}, {"big", 1e300},
        {"tiny", 1e-300}, {"x.y", 5.0}}) {
    globals.set(name, value);
  }
  ParamEnv inner(&globals);
  inner.set("r", 1e3);
  inner.set("n", 3.0);
  inner.set("a", 2.5);
  inner.set("_u", 0.125);

  const std::string dir = SSCL_NETLIST_GOLDEN_DIR;
  std::vector<std::string> cases;
  for (const std::string& line : read_lines(dir + "/expr_cases.txt")) {
    if (!line.empty() && line[0] == '|') cases.push_back(line.substr(1));
  }
  const std::vector<std::string> golden = read_lines(dir + "/expr_cases.golden");
  ASSERT_GE(cases.size(), 500u);
  ASSERT_EQ(golden.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(outcome(cases[i], inner), golden[i])
        << "case " << i + 1 << ": '" << cases[i] << "'";
  }
}

}  // namespace
}  // namespace sscl::netlist
