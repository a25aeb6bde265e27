// Copyright (c) 2026 The ktg Authors.
// JSON writer tests: structure, escaping, numeric formatting and the
// percentile utilities that share the reporting path.

#include <gtest/gtest.h>

#include "util/json_writer.h"
#include "util/percentiles.h"

namespace ktg {
namespace {

TEST(JsonWriterTest, FlatObject) {
  JsonWriter w;
  w.BeginObject()
      .KV("name", "ktg")
      .KV("vertices", 42)
      .KV("ratio", 0.5)
      .KV("ok", true)
      .Key("missing")
      .Null()
      .EndObject();
  EXPECT_EQ(w.str(),
            R"({"name":"ktg","vertices":42,"ratio":0.5,"ok":true,)"
            R"("missing":null})");
}

TEST(JsonWriterTest, NestedArrays) {
  JsonWriter w;
  w.BeginObject().Key("groups").BeginArray();
  w.BeginArray().Value(1).Value(2).EndArray();
  w.BeginArray().Value(3).EndArray();
  w.EndArray().EndObject();
  EXPECT_EQ(w.str(), R"({"groups":[[1,2],[3]]})");
}

TEST(JsonWriterTest, EscapesSpecials) {
  EXPECT_EQ(JsonWriter::Escape("a\"b"), R"("a\"b")");
  EXPECT_EQ(JsonWriter::Escape("back\\slash"), R"("back\\slash")");
  EXPECT_EQ(JsonWriter::Escape("line\nbreak\ttab"), R"("line\nbreak\ttab")");
  EXPECT_EQ(JsonWriter::Escape(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonWriterTest, TopLevelArray) {
  JsonWriter w;
  w.BeginArray().Value("x").Value(int64_t{-7}).EndArray();
  EXPECT_EQ(w.str(), R"(["x",-7])");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray()
      .Value(std::numeric_limits<double>::infinity())
      .Value(std::nan(""))
      .EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriterDeathTest, MisuseIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginObject().Value(1);  // value without a key
      },
      "Key");
  EXPECT_DEATH(
      {
        JsonWriter w;
        w.BeginArray().EndObject();  // mismatched scope
      },
      "EndObject");
}

TEST(PercentilesTest, ExactOrderStatistics) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 2.0);
  // Interpolated.
  EXPECT_DOUBLE_EQ(Percentile(v, 0.125), 1.5);
}

TEST(PercentilesTest, SingleSample) {
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.99), 7.0);
}

TEST(PercentilesTest, SummaryFromSamples) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const auto s = LatencySummary::FromSamples(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
}

TEST(PercentilesTest, EmptySummaryIsZero) {
  const auto s = LatencySummary::FromSamples({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

}  // namespace
}  // namespace ktg
