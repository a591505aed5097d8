#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/check.hpp"
#include "lint/diagnostic.hpp"
#include "lint/rule.hpp"

namespace sscl::lint {
namespace {

TEST(LintReport, CountsAndSeverities) {
  Report r;
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.clean());
  r.info("rule-a", "n1", "informational");
  r.warning("rule-b", "n2", "suspicious");
  r.error("rule-c", "n3", "broken");
  EXPECT_EQ(r.count(Severity::kInfo), 1);
  EXPECT_EQ(r.count(Severity::kWarning), 1);
  EXPECT_EQ(r.error_count(), 1);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has("rule-b"));
  EXPECT_FALSE(r.has("rule-z"));
}

TEST(LintReport, MergeConcatenates) {
  Report a, b;
  a.error("rule-a", "x", "one");
  b.warning("rule-b", "y", "two");
  a.merge(b);
  EXPECT_EQ(static_cast<int>(a.diagnostics().size()), 2);
  EXPECT_TRUE(a.has("rule-b"));
}

TEST(LintReport, TextListsEveryDiagnostic) {
  Report r;
  r.error("floating-node", "mid", "no DC path");
  const std::string text = r.text();
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("floating-node"), std::string::npos);
  EXPECT_NE(text.find("mid"), std::string::npos);
  EXPECT_TRUE(Report().text().empty());
}

TEST(LintReport, CsvQuotesSpecialCharacters) {
  Report r;
  r.warning("rule-a", "n,1", "says \"boom\", twice");
  const std::string csv = r.csv();
  EXPECT_EQ(csv.find("severity,rule,location,message"), 0u);
  EXPECT_NE(csv.find("\"n,1\""), std::string::npos);
  EXPECT_NE(csv.find("\"says \"\"boom\"\", twice\""), std::string::npos);
}

TEST(LintReport, LintErrorCarriesTheReport) {
  Report r;
  r.error("vsource-loop", "V2", "loop");
  try {
    throw LintError(r);
  } catch (const LintError& e) {
    EXPECT_EQ(e.report().error_count(), 1);
    EXPECT_NE(std::string(e.what()).find("vsource-loop"), std::string::npos);
  }
}

TEST(LintRegistry, RulesHaveUniqueIdsAndDescriptions) {
  const auto rules = make_default_passes();
  EXPECT_GE(static_cast<int>(rules.size()), 10);
  std::vector<std::string> ids;
  for (const auto& rule : rules) {
    EXPECT_NE(std::string(rule->id()), "");
    EXPECT_NE(std::string(rule->description()), "");
    ids.push_back(rule->id());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(LintLadder, MonotoneTapsPass) {
  EXPECT_TRUE(check_ladder_taps({0.1, 0.2, 0.3, 0.4}, 0.0, 0.5).clean());
}

TEST(LintLadder, NonMonotoneTapsFail) {
  const Report r = check_ladder_taps({0.1, 0.3, 0.2}, 0.0, 0.5);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has("ladder-taps"));
}

TEST(LintLadder, OutOfRangeTapsFail) {
  EXPECT_FALSE(check_ladder_taps({0.1, 0.6}, 0.0, 0.5).clean());
  // Inverted span disables the range check.
  EXPECT_TRUE(check_ladder_taps({0.1, 0.6}, 1.0, 0.0).clean());
}

}  // namespace
}  // namespace sscl::lint
