#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/args.h"
#include "common/table.h"

namespace cloudalloc {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"a", "long-header"});
  t.add_row({"xxxxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("xxxxxx"), std::string::npos);
  // Header, separator, one row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(1.0, 0), "1");
}

TEST(Table, CountsRows) {
  Table t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvBasic) {
  Table t({"a", "b"});
  t.add_row({"1", "x"});
  t.add_row({"2", "y"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,x\n2,y\n");
}

TEST(Table, CsvQuotesSpecialCells) {
  Table t({"name", "note"});
  t.add_row({"with,comma", "with\"quote"});
  EXPECT_EQ(t.to_csv(), "name,note\n\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Table, CsvWriteRoundTrips) {
  Table t({"x"});
  t.add_row({"42"});
  const std::string path = "/tmp/cloudalloc_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "x\n42\n");
  EXPECT_FALSE(t.write_csv("/nonexistent/dir/file.csv"));
}

TEST(Args, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--clients=50", "--seed=7"};
  Args args(3, argv);
  EXPECT_EQ(args.get_int("clients", 0), 50);
  EXPECT_EQ(args.get_int("seed", 0), 7);
}

TEST(Args, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--name", "value"};
  Args args(3, argv);
  EXPECT_EQ(args.get("name", ""), "value");
}

TEST(Args, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  Args args(2, argv);
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Args, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(args.get_bool("missing", false));
  EXPECT_FALSE(args.has("missing"));
}

TEST(Args, PositionalAndDoubleDash) {
  const char* argv[] = {"prog", "pos1", "--", "--not-a-flag"};
  Args args(4, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.positional()[1], "--not-a-flag");
}

TEST(Args, ParsesDouble) {
  const char* argv[] = {"prog", "--x=2.5"};
  Args args(2, argv);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
}

TEST(Args, StrictIntReadAcceptsWholeValuesInRange) {
  const char* argv[] = {"prog", "--clients=50", "--threads=256", "--lo=-3"};
  Args args(4, argv);
  EXPECT_EQ(args.get_int_in("clients", 1, 1, 1000), 50);
  EXPECT_EQ(args.get_int_in("threads", 1, 0, 256), 256);
  EXPECT_EQ(args.get_int_in("lo", 0, -3, 3), -3);
  EXPECT_EQ(args.get_int_in("missing", 7, 1, 10), 7);
}

TEST(Args, StrictIntReadRejectsMalformedAndOutOfRangeValues) {
  const char* argv[] = {"prog",       "--neg=-5",  "--word=abc",
                        "--tail=12x", "--empty=",  "--cap=257",
                        "--huge=99999999999999999999", "--bare"};
  Args args(8, argv);
  std::string error;
  EXPECT_FALSE(args.get_int_in("neg", 100, 1, 1000, &error));
  EXPECT_EQ(error, "--neg must be an integer in [1, 1000], got '-5'");
  EXPECT_FALSE(args.get_int_in("word", 1, 1, 1000, &error));
  EXPECT_EQ(error, "--word must be an integer in [1, 1000], got 'abc'");
  EXPECT_FALSE(args.get_int_in("tail", 1, 1, 1000));
  EXPECT_FALSE(args.get_int_in("empty", 1, 1, 1000));
  EXPECT_FALSE(args.get_int_in("cap", 1, 0, 256));  // a capped thread count
  EXPECT_FALSE(args.get_int_in("huge", 1, 0, 256));
  EXPECT_FALSE(args.get_int_in("bare", 1, 0, 256));  // "true"
}

TEST(Args, StrictDoubleReadRejectsNanAndOutOfRangeValues) {
  const char* argv[] = {"prog",          "--amplitude=0.5", "--nan=nan",
                        "--horizon=-5",  "--inf=inf",       "--tail=0.5x"};
  Args args(6, argv);
  EXPECT_EQ(args.get_double_in("amplitude", 0.4, 0.0, 0.99), 0.5);
  EXPECT_EQ(args.get_double_in("missing", 0.4, 0.0, 0.99), 0.4);
  std::string error;
  EXPECT_FALSE(args.get_double_in("nan", 0.4, 0.0, 0.99, &error));
  EXPECT_EQ(error, "--nan must be a number in [0, 0.99], got 'nan'");
  EXPECT_FALSE(args.get_double_in("horizon", 1000.0, 1.0, 1e9, &error));
  EXPECT_EQ(error, "--horizon must be a number in [1, 1e+09], got '-5'");
  EXPECT_FALSE(args.get_double_in("inf", 1000.0, 1.0, 1e9));
  EXPECT_FALSE(args.get_double_in("tail", 0.4, 0.0, 0.99));
}

}  // namespace
}  // namespace cloudalloc
