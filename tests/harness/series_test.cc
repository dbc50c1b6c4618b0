#include "harness/series.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace sv::harness {
namespace {

TEST(SeriesTest, StoresPoints) {
  Series s("TCP");
  s.add(1.0, 10.0);
  s.add(2.0, 20.0);
  EXPECT_EQ(s.name(), "TCP");
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.x(1), 2.0);
  EXPECT_DOUBLE_EQ(s.y(1), 20.0);
}

TEST(SeriesTest, YAtFindsAndMisses) {
  Series s("a");
  s.add(1.5, 42.0);
  EXPECT_DOUBLE_EQ(s.y_at(1.5), 42.0);
  EXPECT_TRUE(std::isnan(s.y_at(9.9)));
}

TEST(FigureTest, ReferencesStableAcrossAddSeries) {
  Figure f("t", "x", "y");
  auto& a = f.add_series("a");
  // Force many additions; `a` must remain valid (deque guarantee).
  for (int i = 0; i < 50; ++i) {
    f.add_series(std::string("s").append(std::to_string(i)));
  }
  a.add(1.0, 2.0);
  EXPECT_DOUBLE_EQ(f.series().front().y_at(1.0), 2.0);
}

TEST(FigureTest, PrintsAlignedUnion) {
  Figure f("My Figure", "x", "latency");
  auto& a = f.add_series("A");
  auto& b = f.add_series("B");
  a.add(1.0, 10.0);
  a.add(2.0, 20.0);
  b.add(2.0, 200.0);
  b.add(3.0, 300.0);
  std::ostringstream os;
  f.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("My Figure"), std::string::npos);
  EXPECT_NE(out.find("latency"), std::string::npos);
  // x=1 has no B value -> "-" placeholder; x=3 has no A value.
  EXPECT_NE(out.find("-"), std::string::npos);
  EXPECT_NE(out.find("300.00"), std::string::npos);
}

}  // namespace
}  // namespace sv::harness
