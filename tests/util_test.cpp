// Tests for the util module: RNG determinism and distributions, linear
// algebra, statistics, CSV round-trips, and string/table formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/check.h"
#include "util/csv.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace ps360::util {
namespace {

// --------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIndexCoversRangeWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 * 0.1);
}

TEST(RngTest, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, NormalWithParameters) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, NormalRejectsNegativeSigma) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(RngTest, LognormalMedianIsMedian) {
  Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 50001; ++i) values.push_back(rng.lognormal_median(3.0, 0.5));
  EXPECT_NEAR(median(values), 3.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeProbabilities) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(RngTest, ExponentialMean) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, DeriveSeedIsStableAndSensitive) {
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(2, 2, 3));
}

// ------------------------------------------------------------------ Matrix

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, OutOfBoundsThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), std::invalid_argument);
}

TEST(MatrixTest, CholeskyReconstructs) {
  Matrix a{{4.0, 2.0, 0.6}, {2.0, 5.0, 1.5}, {0.6, 1.5, 3.0}};
  const Matrix l = cholesky(a);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (j > i) {
        EXPECT_EQ(l(i, j), 0.0) << "L(" << i << ", " << j << ")";
      }
      double llt = 0.0;  // (L L^T)(i, j)
      for (std::size_t k = 0; k < 3; ++k) llt += l(i, k) * l(j, k);
      EXPECT_NEAR(llt, a(i, j), 1e-12) << "(" << i << ", " << j << ")";
    }
  }
  EXPECT_DOUBLE_EQ(l(0, 0), 2.0);  // sqrt(4)
  EXPECT_DOUBLE_EQ(l(1, 0), 1.0);  // 2 / 2
  EXPECT_DOUBLE_EQ(l(1, 1), 2.0);  // sqrt(5 - 1)
}

TEST(MatrixTest, CholeskyRejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(a), std::invalid_argument);
}

TEST(MatrixTest, CholeskySolveRecoversKnownSolution) {
  // A x = b with x = (1, -2): b = (4 - 2, 1 - 6).
  Matrix a{{4.0, 1.0}, {1.0, 3.0}};
  const auto x = cholesky_solve(a, {2.0, -5.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], -2.0, 1e-12);
  EXPECT_THROW(cholesky_solve(a, {1.0}), std::invalid_argument);
}

// Ridge regression solved the way ViewportPredictor solves it: form
// X^T X + diag(penalties) and X^T y, factor with cholesky_factor and
// substitute with cholesky_substitute on caller-owned storage.
std::vector<double> ridge_by_normal_equations(const Matrix& x, const std::vector<double>& y,
                                              const std::vector<double>& penalties) {
  const std::size_t p = x.cols();
  std::vector<double> normal(p * p, 0.0), factor(p * p, 0.0), w(p, 0.0);
  for (std::size_t k = 0; k < x.rows(); ++k) {
    for (std::size_t r = 0; r < p; ++r) {
      w[r] += x(k, r) * y.at(k);
      for (std::size_t c = 0; c < p; ++c) normal[r * p + c] += x(k, r) * x(k, c);
    }
  }
  for (std::size_t j = 0; j < p; ++j) normal[j * p + j] += penalties.at(j);
  cholesky_factor(normal, factor, p);
  cholesky_substitute(factor, p, w);
  return w;
}

TEST(MatrixTest, RidgeSolveZeroLambdaIsLeastSquares) {
  // Overdetermined consistent system: exact recovery.
  Matrix x{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> y = {2.0, 3.0, 5.0};
  const auto w = ridge_by_normal_equations(x, y, {0.0, 0.0});
  EXPECT_NEAR(w[0], 2.0, 1e-10);
  EXPECT_NEAR(w[1], 3.0, 1e-10);
}

TEST(MatrixTest, RidgePerCoefficientPenalties) {
  // Unpenalised intercept, penalised slope: the intercept recovers the mean
  // while the slope shrinks.
  Matrix x{{1.0, -1.0}, {1.0, 0.0}, {1.0, 1.0}};
  const std::vector<double> y = {8.0, 10.0, 12.0};  // intercept 10, slope 2
  const auto exact = ridge_by_normal_equations(x, y, {0.0, 0.0});
  EXPECT_NEAR(exact[0], 10.0, 1e-10);
  EXPECT_NEAR(exact[1], 2.0, 1e-10);
  const auto shrunk = ridge_by_normal_equations(x, y, {0.0, 10.0});
  EXPECT_NEAR(shrunk[0], 10.0, 1e-10);  // intercept untouched
  EXPECT_LT(shrunk[1], 1.0);            // slope heavily shrunk
  // A negative penalty that cancels the slope's curvature (X^T X is
  // diag(3, 2)) leaves a singular system, which the factorisation rejects;
  // a right-hand side of the wrong length is rejected by the substitution.
  EXPECT_THROW(ridge_by_normal_equations(x, y, {0.0, -2.0}), std::invalid_argument);
  const std::vector<double> identity_factor = {1.0, 0.0, 0.0, 1.0};
  std::vector<double> short_rhs = {1.0};
  EXPECT_THROW(cholesky_substitute(identity_factor, 2, short_rhs), std::invalid_argument);
}

TEST(MatrixTest, RidgeShrinksTowardZero) {
  Matrix x{{1.0}, {1.0}, {1.0}};
  const std::vector<double> y = {3.0, 3.0, 3.0};
  const auto w0 = ridge_by_normal_equations(x, y, {0.0});
  const auto w1 = ridge_by_normal_equations(x, y, {10.0});
  EXPECT_NEAR(w0[0], 3.0, 1e-10);
  EXPECT_LT(w1[0], w0[0]);
  EXPECT_GT(w1[0], 0.0);
}

// ------------------------------------------------------------------- Stats

TEST(StatsTest, MeanAndVariance) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
}

TEST(StatsTest, MeanOfEmptyThrows) {
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson_correlation(a, b), 1.0, 1e-12);
  const std::vector<double> c = {3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson_correlation(a, c), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantSeriesThrows) {
  EXPECT_THROW(pearson_correlation({1.0, 1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(StatsTest, RmseZeroForIdentical) {
  const std::vector<double> a = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(rmse(a, a), 0.0);
  EXPECT_DOUBLE_EQ(rmse({0.0, 0.0}, {3.0, 4.0}), std::sqrt(12.5));
}

TEST(StatsTest, FractionAboveThreshold) {
  EXPECT_DOUBLE_EQ(fraction_above({1.0, 5.0, 10.0, 20.0}, 5.0), 0.5);
}

TEST(StatsTest, EmpiricalCdfAtAndQuantile) {
  EmpiricalCdf cdf({3.0, 1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.5);
}

// --------------------------------------------------------------------- CSV

TEST(CsvTest, ParseWithHeaderAndComments) {
  const auto table = parse_csv("# comment\na,b\n1,2\n3.5,4\n", true);
  ASSERT_EQ(table.header.size(), 2u);
  EXPECT_EQ(table.column("b"), 1u);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(table.rows[1][0], 3.5);
}

TEST(CsvTest, MissingColumnThrows) {
  const auto table = parse_csv("a,b\n1,2\n", true);
  EXPECT_THROW(table.column("c"), std::invalid_argument);
}

TEST(CsvTest, RaggedRowThrows) {
  EXPECT_THROW(parse_csv("a,b\n1,2\n3\n", true), std::invalid_argument);
  // A trailing comma is one more, empty, cell: ragged against the header,
  // or an empty cell under a header that ends in a comma too. Either error
  // names the line.
  const std::pair<const char*, const char*> cases[] = {
      {"t,mbps\n0,5\n1,6,\n", "ragged CSV row at line 3"},
      {"t,mbps,\n0,5,\n", "empty CSV cell at line 2"}};
  for (const auto& [text, message] : cases) {
    try {
      parse_csv(text, true);
      ADD_FAILURE() << "trailing comma accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    }
  }
}

TEST(CsvTest, NonNumericCellThrows) {
  EXPECT_THROW(parse_csv("a\nfoo\n", true), std::invalid_argument);
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable table;
  table.header = {"t", "v"};
  table.rows = {{0.0, 1.5}, {1.0, 2.25}};
  const auto path = std::filesystem::temp_directory_path() / "ps360_csv_test.csv";
  write_csv_file(path, table);
  const auto loaded = read_csv_file(path, true);
  ASSERT_EQ(loaded.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.rows[1][1], 2.25);
  std::filesystem::remove(path);
}

TEST(CsvTest, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/nope.csv", true), std::runtime_error);
}

// ----------------------------------------------------------------- Strings

TEST(StringsTest, StrfmtFormats) {
  EXPECT_EQ(strfmt("%.2f mW", 241.0), "241.00 mW");
  EXPECT_EQ(strfmt("%d/%d", 3, 9), "3/9");
}

TEST(StringsTest, TextTableAlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("-----"), std::string::npos);
}

TEST(StringsTest, TextTableRejectsWrongWidth) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), std::invalid_argument);
}

TEST(StringsTest, FormatHelpers) {
  EXPECT_EQ(format_ratio(1.234), "1.234x");
  EXPECT_EQ(format_percent(0.497), "49.7%");
}

// ------------------------------------------------------------------ Checks

TEST(CheckTest, CheckThrowsInvalidArgument) {
  EXPECT_THROW(PS360_CHECK(false), std::invalid_argument);
  EXPECT_NO_THROW(PS360_CHECK(true));
}

TEST(CheckTest, AssertThrowsLogicError) {
  EXPECT_THROW(PS360_ASSERT(false), std::logic_error);
  EXPECT_NO_THROW(PS360_ASSERT(true));
}

TEST(CheckTest, CheckAndAssertThrowDistinctTypes) {
  // PS360_CHECK signals a caller error; PS360_ASSERT an internal bug. The
  // types must stay distinct so callers can catch precondition failures
  // without swallowing invariant violations.
  bool caught_as_invalid_argument = false;
  try {
    PS360_ASSERT(false);
  } catch (const std::invalid_argument&) {
    caught_as_invalid_argument = true;
  } catch (const std::logic_error&) {
  }
  EXPECT_FALSE(caught_as_invalid_argument);
}

TEST(CheckTest, CheckMessageNamesExpressionAndLocation) {
  try {
    PS360_CHECK(1 + 1 == 3);
    FAIL() << "PS360_CHECK(false) must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("PS360_CHECK failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1 + 1 == 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("util_test.cpp"), std::string::npos) << msg;
  }
}

TEST(CheckTest, CheckMsgAppendsCustomMessage) {
  try {
    PS360_CHECK_MSG(false, "n must be positive");
    FAIL() << "PS360_CHECK_MSG(false, ...) must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("n must be positive"), std::string::npos) << msg;
  }
}

TEST(CheckTest, AssertMessageNamesMacroAndExpression) {
  try {
    PS360_ASSERT_MSG(false, "ring buffer corrupt");
    FAIL() << "PS360_ASSERT_MSG(false, ...) must throw";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("PS360_ASSERT failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ring buffer corrupt"), std::string::npos) << msg;
  }
}

TEST(RngPreconditionTest, UniformIndexZeroFailsLoudly) {
  Rng rng(7);
  // n == 0 has no valid result; it must throw (never hang in the rejection
  // loop or silently return 0).
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
  try {
    rng.uniform_index(0);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("n > 0"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace ps360::util
