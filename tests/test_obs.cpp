// Unit tests for the observability library: JSONL escaping/formatting, the
// flat-object parser, the exact nearest-rank percentile histogram, and the
// Tracer's framing contract (run/seq).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

using namespace hetero::obs;

// ----------------------------------------------------------------- escaping

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("FedAvg round 3"), "FedAvg round 3");
}

TEST(JsonEscape, EscapesQuotesAndBackslash) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("x\x01y")), "x\\u0001y");
  EXPECT_EQ(json_escape("\b\f"), "\\b\\f");
}

TEST(JsonNumber, RoundTripsDoublesExactly) {
  const double values[] = {0.0, 1.0, -1.5, 0.1, 1e-17, 3.141592653589793};
  for (double v : values) {
    EXPECT_EQ(std::stod(json_number(v)), v) << json_number(v);
  }
}

TEST(JsonNumber, MapsNonFiniteToNull) {
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(HUGE_VAL), "null");
}

// ------------------------------------------------------------------ builder

TEST(JsonObjectBuilder, KeepsInsertionOrder) {
  JsonObjectBuilder b;
  b.add("z", 1).add("a", std::string_view("x")).add("m", true);
  EXPECT_EQ(b.str(), "{\"z\":1,\"a\":\"x\",\"m\":true}");
  EXPECT_EQ(b.fields(), 3u);
}

TEST(JsonObjectBuilder, RendersArrays) {
  JsonObjectBuilder b;
  b.add_array("xs", std::vector<double>{1.0, 2.5});
  b.add_array("ids", std::vector<std::uint64_t>{7, 9});
  EXPECT_EQ(b.str(), "{\"xs\":[1,2.5],\"ids\":[7,9]}");
}

TEST(JsonObjectBuilder, EscapesKeysAndValues) {
  JsonObjectBuilder b;
  b.add("ke\"y", std::string_view("v\nal"));
  EXPECT_EQ(b.str(), "{\"ke\\\"y\":\"v\\nal\"}");
}

// ------------------------------------------------------------------- writer

TEST(JsonlWriter, WritesNewlineTerminatedLines) {
  std::ostringstream out;
  JsonlWriter w(out);
  JsonObjectBuilder b;
  b.add("k", 1);
  w.write(b);
  w.write_line("{}");
  EXPECT_EQ(out.str(), "{\"k\":1}\n{}\n");
  EXPECT_EQ(w.lines_written(), 2u);
}

TEST(JsonlWriter, ThrowsOnUnopenablePath) {
  EXPECT_THROW(JsonlWriter("/nonexistent-dir-xyz/trace.jsonl"),
               std::runtime_error);
}

// ------------------------------------------------------------------- parser

TEST(ParseFlatJson, RoundTripsBuilderOutput) {
  JsonObjectBuilder b;
  b.add("ev", std::string_view("round_end"));
  b.add("round", 3);
  b.add("loss", 0.125);
  b.add("ok", true);
  b.add_array("xs", std::vector<double>{1.0, -2.5e-3});
  const auto parsed = parse_flat_json(b.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("ev").string, "round_end");
  EXPECT_EQ(parsed->at("round").number, 3.0);
  EXPECT_EQ(parsed->at("loss").number, 0.125);
  EXPECT_TRUE(parsed->at("ok").boolean);
  ASSERT_EQ(parsed->at("xs").numbers.size(), 2u);
  EXPECT_EQ(parsed->at("xs").numbers[1], -2.5e-3);
}

TEST(ParseFlatJson, HandlesEscapesAndNull) {
  const auto parsed =
      parse_flat_json("{\"s\":\"a\\n\\\"b\\u0041\",\"n\":null}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("s").string, "a\n\"bA");
  EXPECT_EQ(parsed->at("n").kind, JsonValue::Kind::kNull);
}

TEST(ParseFlatJson, RejectsMalformedInput) {
  EXPECT_FALSE(parse_flat_json("").has_value());
  EXPECT_FALSE(parse_flat_json("{\"a\":1").has_value());
  EXPECT_FALSE(parse_flat_json("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(parse_flat_json("[1,2]").has_value());
  EXPECT_FALSE(parse_flat_json("{\"a\":{\"nested\":1}}").has_value());
}

// ------------------------------------------------------------------ metrics

TEST(Histogram, NearestRankPercentiles) {
  Histogram h;
  for (int i = 100; i >= 1; --i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile(0), 1.0);
  EXPECT_EQ(h.percentile(50), 50.0);
  EXPECT_EQ(h.percentile(90), 90.0);
  EXPECT_EQ(h.percentile(99), 99.0);
  EXPECT_EQ(h.percentile(100), 100.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_EQ(h.mean(), 50.5);
}

TEST(Histogram, SingleSampleAndEmpty) {
  Histogram h;
  EXPECT_EQ(h.percentile(50), 0.0);
  h.observe(7.0);
  EXPECT_EQ(h.percentile(0), 7.0);
  EXPECT_EQ(h.percentile(50), 7.0);
  EXPECT_EQ(h.percentile(100), 7.0);
}

TEST(Histogram, PercentileCacheSurvivesInterleavedObserves) {
  Histogram h;
  h.observe(1.0);
  EXPECT_EQ(h.percentile(100), 1.0);
  h.observe(5.0);  // must invalidate the sorted cache
  EXPECT_EQ(h.percentile(100), 5.0);
}

// ------------------------------------------------------------------- tracer

TEST(Tracer, FramesEventsWithRunAndSeq) {
  std::ostringstream out;
  JsonlWriter w(out);
  Tracer tracer(w);
  EXPECT_EQ(tracer.begin_run("unit"), 1u);
  tracer.write(tracer.event("round_begin"));
  tracer.write(tracer.event("round_end"));
  EXPECT_EQ(tracer.begin_run("second"), 2u);
  tracer.write(tracer.event("round_begin"));

  std::istringstream lines(out.str());
  std::string line;
  std::vector<JsonFlatObject> events;
  while (std::getline(lines, line)) {
    auto parsed = parse_flat_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    events.push_back(*parsed);
  }
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].at("ev").string, "run_begin");
  EXPECT_EQ(events[0].at("label").string, "unit");
  EXPECT_EQ(events[0].at("seq").number, 0.0);
  EXPECT_EQ(events[1].at("seq").number, 1.0);
  EXPECT_EQ(events[2].at("seq").number, 2.0);
  // A new run resets the sequence counter.
  EXPECT_EQ(events[3].at("run").number, 2.0);
  EXPECT_EQ(events[3].at("seq").number, 0.0);
  EXPECT_EQ(events[4].at("seq").number, 1.0);
}

TEST(Tracer, TimingFlagIsVisibleToCallers) {
  std::ostringstream out;
  JsonlWriter w(out);
  TracerOptions options;
  options.include_timings = false;
  Tracer tracer(w, options);
  EXPECT_FALSE(tracer.include_timings());
}
