#include "common/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace sv {
namespace {

TEST(TableTest, BasicRendering) {
  Table t({"msg size", "latency (us)"});
  t.add_row({"4", "9.5"});
  t.add_row({"1024", "20.1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("msg size"), std::string::npos);
  EXPECT_NE(out.find("9.5"), std::string::npos);
  EXPECT_NE(out.find("1024"), std::string::npos);
  // Header separator row present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(TableTest, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TableTest, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.14159, 4), "3.1416");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(-42)), "-42");
}

TEST(TableTest, CellAccess) {
  Table t({"x"});
  t.add_row({"hello"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 1u);
  EXPECT_EQ(t.cell(0, 0), "hello");
}

TEST(TableTest, ColumnsAlignAcrossRows) {
  Table t({"a", "b"});
  t.add_row({"x", "longvalue"});
  t.add_row({"longer", "y"});
  std::ostringstream os;
  t.print(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<std::size_t> pipe_cols;
  std::getline(is, line);
  const auto first_len = line.size();
  while (std::getline(is, line)) {
    EXPECT_EQ(line.size(), first_len) << "row widths differ: " << line;
  }
}

}  // namespace
}  // namespace sv
