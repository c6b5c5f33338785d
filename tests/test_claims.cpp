// `expect` claim lines: grammar round-trip, load-time checks against a
// file's rows, and every stat's formula on synthetic results.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "experiments/claims.hpp"

namespace rumor {
namespace {

// A result row labelled `label` on a graph of n vertices whose trials took
// the given round counts; `incomplete` of them hit the cutoff.
ScenarioResult row(const std::string& label, Vertex n,
                   std::vector<double> rounds, std::size_t incomplete = 0) {
  ScenarioResult r;
  r.spec.label = label;
  r.n = n;
  r.set.rounds = std::move(rounds);
  r.set.incomplete = incomplete;
  return r;
}

std::vector<ScenarioSpec> specs_of(const std::vector<ScenarioResult>& rows) {
  std::vector<ScenarioSpec> out;
  for (const ScenarioResult& r : rows) out.push_back(r.spec);
  return out;
}

// Parses, load-checks and evaluates one claim; returns its left side.
double lhs(const std::string& text, const std::vector<ScenarioResult>& rows) {
  std::string error;
  const auto claim = Claim::parse(text, &error);
  EXPECT_TRUE(claim) << text << ": " << error;
  if (!claim) return std::nan("");
  EXPECT_TRUE(check_claim(*claim, specs_of(rows), &error))
      << text << ": " << error;
  return evaluate_claim(*claim, rows).lhs;
}

TEST(ClaimText, CanonicalFormRoundTrips) {
  for (const char* text : {
           "expect power(push) > 0.8",
           "expect max(push-pull) <= 2",
           "expect ratio(visit-exchange, push) < 0.2",
           "expect power(meet-exchange) > power(visit-exchange)",
           "expect ratio(a/23, b/23) >= 0.9 * ratio(a/6, b/6)",
           "expect mean(x/hybrid) <= 1.5 * min(mean(x/pp), mean(x/vx)) + 2",
           "expect mean(churn/0.2) < 4 * mean(churn/0)",
           "expect incomplete(star/lazy) <= 0",
           "expect 3 < gaplog(a, b) - 1.5",
           "expect spread(a, b) < 100",
           "expect minlog(a) > 1e-05",
       }) {
    std::string error;
    const auto claim = Claim::parse(text, &error);
    ASSERT_TRUE(claim) << text << ": " << error;
    EXPECT_EQ(claim->text(), text);
    EXPECT_EQ(Claim::parse(claim->text()), claim);
  }
  // Spacing is free; the canonical text is not.
  const auto loose = Claim::parse("expect  2*min( mean(a) ,mean(b))+1>=3");
  ASSERT_TRUE(loose);
  EXPECT_EQ(loose->text(), "expect 2 * min(mean(a), mean(b)) + 1 >= 3");
}

TEST(ClaimText, RejectsMalformedClaims) {
  for (const char* text : {
           "expect",                           // nothing to compare
           "expect power(push)",               // no operator
           "expect power(push) == 1",          // not an operator
           "expect powr(push) > 1",            // unknown stat
           "expect power(a, b) > 1",           // one-series stat, two series
           "expect ratio(a) > 1",              // two-series stat, one series
           "expect mean() > 1",                // empty series
           "expect 1 < 2",                     // no stat at all
           "expect mean(a) > 1 extra",         // trailing text
           "expect min(mean(a)) > 1",          // min takes two stats
           "expect min(mean(a), min(mean(b), mean(c))) > 1",  // stats only
           "expect mean(a) > 1e999",           // not finite
           "expect 2 * 3 > mean(a)",           // a number scales a term
       }) {
    std::string error;
    EXPECT_FALSE(Claim::parse(text, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(ClaimStats, OneSeriesStatsMatchTheirFormulas) {
  // Means 10, 20, 40 at n = 100, 200, 400: exactly linear growth.
  const std::vector<ScenarioResult> rows = {
      row("push/100", 100, {8, 12}), row("push/200", 200, {20}, 1),
      row("push/400", 400, {30, 50}, 2), row("pushy", 400, {1})};
  EXPECT_NEAR(lhs("expect power(push) > 0", rows), 1.0, 1e-12);
  EXPECT_EQ(lhs("expect max(push) > 0", rows), 50.0);
  EXPECT_EQ(lhs("expect mean(push/200) > 0", rows), 20.0);
  EXPECT_EQ(lhs("expect incomplete(push) > 0", rows), 3.0);
  EXPECT_EQ(lhs("expect rise(push) > 0", rows), 2.0);
  // min(rounds) / ln n: 8 / ln 100, 20 / ln 200, 30 / ln 400.
  EXPECT_NEAR(lhs("expect minlog(push) > 0", rows),
              std::min({8 / std::log(100.0), 20 / std::log(200.0),
                        30 / std::log(400.0)}),
              1e-12);
  // "pushy" is not in series "push" (a series is S or S/...).
  EXPECT_EQ(lhs("expect mean(pushy) > 0", rows), 1.0);
}

TEST(ClaimStats, TwoSeriesStatsPairRowsByPosition) {
  const std::vector<ScenarioResult> rows = {
      row("a/1", 100, {30}), row("a/2", 200, {40}), row("a/3", 400, {30}),
      row("b/1", 100, {10}), row("b/2", 200, {40}), row("b/3", 400, {60})};
  // Pointwise mean ratios a/b: 3, 1, 0.5.
  EXPECT_EQ(lhs("expect ratio(a, b) > 0", rows), 3.0);
  EXPECT_EQ(lhs("expect spread(a, b) > 0", rows), 6.0);
  // (a - b) / ln n: 20 / ln 100 is the largest positive gap.
  EXPECT_NEAR(lhs("expect gaplog(a, b) > 0", rows), 20 / std::log(100.0),
              1e-12);
  // (b - a) / ln n: negative, zero, then (60 - 30) / ln 400.
  EXPECT_NEAR(lhs("expect gaplog(b, a) > 0", rows), 30 / std::log(400.0),
              1e-12);
  const std::vector<ScenarioResult> never_slower = {row("a", 100, {5}),
                                                    row("b", 100, {9})};
  EXPECT_EQ(lhs("expect gaplog(a, b) > 0", never_slower), 0.0);
}

TEST(ClaimStats, StretchIsTheMinimalDominanceStretch) {
  // P[A <= c k] >= P[B <= k] - 0.1 for all k: A's samples are exactly
  // twice B's, so the smallest stretch is 2 (found by bisection).
  std::vector<double> b_rounds;
  std::vector<double> a_rounds;
  for (int i = 1; i <= 40; ++i) {
    b_rounds.push_back(i);
    a_rounds.push_back(2.0 * i);
  }
  const std::vector<ScenarioResult> rows = {row("a", 64, a_rounds),
                                            row("b", 64, b_rounds)};
  const double c = lhs("expect stretch(a, b) > 0", rows);
  EXPECT_GT(c, 1.5);
  EXPECT_LE(c, 2.0 + 1e-9);
  EXPECT_LE(lhs("expect stretch(b, a) > 0", rows), 0.5 + 1e-9);
}

TEST(ClaimStats, SidesScaleOffsetAndTakeTheMinimum) {
  const std::vector<ScenarioResult> rows = {
      row("h", 10, {9}), row("pp", 10, {4}), row("vx", 10, {6})};
  std::string error;
  const auto claim = Claim::parse(
      "expect mean(h) <= 1.5 * min(mean(pp), mean(vx)) + 2", &error);
  ASSERT_TRUE(claim) << error;
  const ClaimVerdict v = evaluate_claim(*claim, rows);
  EXPECT_EQ(v.lhs, 9.0);
  EXPECT_EQ(v.rhs, 8.0);  // 1.5 * 4 + 2
  EXPECT_FALSE(v.holds);
  const auto minus = Claim::parse("expect mean(h) - 4 < mean(vx)");
  ASSERT_TRUE(minus);
  EXPECT_TRUE(evaluate_claim(*minus, rows).holds);  // 5 < 6
}

TEST(ClaimStats, UndefinedValuesFailTheClaim) {
  // A zero mean has no logarithm and cannot divide: the stat is NaN and
  // the claim fails whichever way it points.
  const std::vector<ScenarioResult> rows = {
      row("z/1", 100, {0}), row("z/2", 200, {0}), row("z/3", 400, {0}),
      row("w/1", 100, {1}), row("w/2", 200, {1}), row("w/3", 400, {1})};
  for (const char* text :
       {"expect power(z) > 0", "expect power(z) < 1", "expect ratio(w, z) < 9",
        "expect spread(w, z) < 9", "expect rise(z) < 9"}) {
    const auto claim = Claim::parse(text);
    ASSERT_TRUE(claim) << text;
    const ClaimVerdict v = evaluate_claim(*claim, rows);
    EXPECT_TRUE(std::isnan(v.lhs)) << text;
    EXPECT_FALSE(v.holds) << text;
  }
}

TEST(ClaimFile, ClaimsLoadWithTheirLinesAndTheTwoArgumentFormRejectsThem) {
  const std::string text =
      "complete(n={16,32,64}) push label=p\n"
      "# a comment\n"
      "expect power(p) < 2  # trailing comment\n"
      "complete(n={16,32,64}) push-pull label=q\n"
      "expect ratio(q, p) <= 1\n";
  std::istringstream in(text);
  std::vector<Claim> claims;
  std::string error;
  const auto specs = parse_scenario_stream(in, claims, &error);
  ASSERT_TRUE(specs) << error;
  EXPECT_EQ(specs->size(), 6u);
  ASSERT_EQ(claims.size(), 2u);
  EXPECT_EQ(claims[0].line, 3u);
  EXPECT_EQ(claims[0].text(), "expect power(p) < 2");
  EXPECT_EQ(claims[1].line, 5u);

  std::istringstream plain(text);
  EXPECT_FALSE(parse_scenario_stream(plain, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("expect"), std::string::npos) << error;
}

TEST(ClaimFile, LoadRejectsClaimsTheRowsCannotAnswer) {
  const std::string rows =
      "complete(n={16,32}) push label=two\n"
      "complete(n={16,32,64}) push label=three\n";
  const auto reject = [&](const std::string& claim, const char* needle) {
    std::istringstream in(rows + claim + "\n");
    std::vector<Claim> claims;
    std::string error;
    EXPECT_FALSE(parse_scenario_stream(in, claims, &error)) << claim;
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  };
  reject("expect mean(absent) < 1", "matches no row");
  reject("expect ratio(three, absent) < 1", "matches no row");
  reject("expect power(two) > 1", "at least 3 rows");
  reject("expect ratio(two, three) < 1", "pairs rows by position");
  reject("expect spread(three, two) < 1", "pairs rows by position");
  reject("expect mean(two) < 1", "one row");
  reject("expect stretch(two/16, three) < 1", "one row");
  reject("expect rise(two/16) < 1", "consecutive rows");
  // Unlabelled rows belong to no series.
  std::istringstream unlabelled("complete(n=16) push\nexpect max(push) > 1\n");
  std::vector<Claim> claims;
  std::string error;
  EXPECT_FALSE(parse_scenario_stream(unlabelled, claims, &error));
  EXPECT_NE(error.find("matches no row"), std::string::npos) << error;
}

}  // namespace
}  // namespace rumor
