// SpanTracer + JSONL wire-format tests.  All timing drives a ManualClock,
// so asserted durations are exact — no wall-clock flakiness.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/clock.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/span.hpp"

namespace {

using namespace sfopt::telemetry;

/// Captures emitted events in memory.
class CaptureSink final : public EventSink {
 public:
  void emit(const Event& e) override { events.push_back(e); }
  std::vector<Event> events;
};

TEST(SpanTracer, EmitsSpanWithExactDurationOnEnd) {
  CaptureSink sink;
  ManualClock clock;
  SpanTracer tracer(sink, clock);

  clock.set(10.0);
  const auto id = tracer.begin("engine.run");
  EXPECT_NE(id, 0u);
  EXPECT_EQ(tracer.openSpans(), 1u);

  clock.advance(2.5);
  tracer.end(id, {{"reason", "tolerance"}}, {{"iterations", 40.0}});
  EXPECT_EQ(tracer.openSpans(), 0u);

  ASSERT_EQ(sink.events.size(), 1u);
  const Event& e = sink.events[0];
  EXPECT_EQ(e.type, "span");
  EXPECT_EQ(e.name, "engine.run");
  EXPECT_DOUBLE_EQ(e.time, 10.0);
  EXPECT_DOUBLE_EQ(e.duration, 2.5);
  EXPECT_EQ(e.id, id);
  EXPECT_EQ(e.str("reason"), "tolerance");
  EXPECT_EQ(e.num("iterations"), 40.0);
}

TEST(SpanTracer, ParentChildNesting) {
  CaptureSink sink;
  ManualClock clock;
  SpanTracer tracer(sink, clock);

  const auto outer = tracer.begin("cli.optimize");
  const auto inner = tracer.begin("engine.run", outer);
  clock.advance(1.0);
  tracer.end(inner);
  tracer.end(outer);

  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].name, "engine.run");
  EXPECT_EQ(sink.events[0].parent, outer);
  EXPECT_EQ(sink.events[1].parent, 0u);
}

TEST(SpanTracer, EndOfUnknownIdIsIgnored) {
  CaptureSink sink;
  ManualClock clock;
  SpanTracer tracer(sink, clock);
  tracer.end(999);
  EXPECT_TRUE(sink.events.empty());
}

TEST(SpanTracer, EmitCompleteWritesRetroactiveSpan) {
  CaptureSink sink;
  ManualClock clock;
  SpanTracer tracer(sink, clock);
  clock.set(5.0);
  const auto id = tracer.emitComplete("engine.iteration", 3.0, 7, {{"move", "reflection"}},
                                      {{"samples", 120.0}});
  EXPECT_NE(id, 0u);
  ASSERT_EQ(sink.events.size(), 1u);
  const Event& e = sink.events[0];
  EXPECT_DOUBLE_EQ(e.time, 3.0);
  EXPECT_DOUBLE_EQ(e.duration, 2.0);
  EXPECT_EQ(e.parent, 7u);
  EXPECT_EQ(e.str("move"), "reflection");
}

TEST(ScopedSpan, EndsOnDestruction) {
  CaptureSink sink;
  ManualClock clock;
  SpanTracer tracer(sink, clock);
  {
    ScopedSpan span(tracer, "md.production");
    clock.advance(0.5);
  }
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.events[0].duration, 0.5);
}

TEST(JsonLine, RoundTripsThroughParser) {
  Event e;
  e.type = "span";
  e.name = "shard.lifecycle";
  e.time = 1.25;
  e.duration = 0.5;
  e.id = 3;
  e.parent = 1;
  e.strFields = {{"phase", "production"}};
  e.numFields = {{"tasks", 12.0}};

  const std::string line = toJsonLine(e);
  const auto back = parseJsonLine(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, "span");
  EXPECT_EQ(back->name, "shard.lifecycle");
  EXPECT_DOUBLE_EQ(back->time, 1.25);
  EXPECT_DOUBLE_EQ(back->duration, 0.5);
  EXPECT_EQ(back->id, 3u);
  EXPECT_EQ(back->parent, 1u);
  EXPECT_EQ(back->str("phase"), "production");
  EXPECT_EQ(back->num("tasks"), 12.0);
}

TEST(JsonLine, EscapesSpecialCharacters) {
  Event e;
  e.type = "event";
  e.name = "weird \"name\"\n";
  const auto back = parseJsonLine(toJsonLine(e));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, "weird \"name\"\n");
}

TEST(JsonLine, MalformedLinesParseToNullopt) {
  EXPECT_FALSE(parseJsonLine("").has_value());
  EXPECT_FALSE(parseJsonLine("not json").has_value());
  EXPECT_FALSE(parseJsonLine("{\"name\":\"x\"}").has_value());  // no type
  EXPECT_FALSE(parseJsonLine("{\"type\":\"span\",").has_value());
}

TEST(SpanTracer, TraceIdTagsEmittedSpans) {
  CaptureSink sink;
  ManualClock clock;
  SpanTracer tracer(sink, clock);

  const auto id = tracer.begin("shard.lifecycle", 0, /*trace=*/77);
  tracer.end(id);
  tracer.emitComplete("shard.folded", 0.0, id, {}, {}, /*trace=*/77);

  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].trace, 77u);
  EXPECT_EQ(sink.events[1].trace, 77u);
  // Trace ids survive the JSONL round trip.
  const auto back = parseJsonLine(toJsonLine(sink.events[0]));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace, 77u);
}

TEST(SpanTracer, SeedIdsRebasesTheCounter) {
  CaptureSink sink;
  ManualClock clock;
  SpanTracer tracer(sink, clock);
  const std::uint64_t base = (std::uint64_t{3} << 40) + 1;
  tracer.seedIds(base);
  const auto id = tracer.begin("worker.execute");
  EXPECT_EQ(id, base);
  tracer.end(id);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].id, base);
}

TEST(JsonlSink, WritesOneLinePerEvent) {
  std::ostringstream out;
  JsonlSink sink(out);
  Event e;
  e.type = "metric";
  e.name = "engine.iterations";
  sink.emit(e);
  e.name = "mw.tasks_completed";
  sink.emit(e);
  EXPECT_EQ(sink.eventsWritten(), 2u);

  std::istringstream in(out.str());
  std::string line;
  int parsed = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(parseJsonLine(line).has_value());
    ++parsed;
  }
  EXPECT_EQ(parsed, 2);
}

TEST(JsonlSink, FlushIntervalZeroMakesEventsVisibleImmediately) {
  const auto path = std::filesystem::temp_directory_path() / "sfopt_flush_test.jsonl";
  {
    JsonlSink sink(path);
    Event e;
    e.type = "metric";
    e.name = "engine.iterations";

    // Default: buffered — a single short line stays in the stream buffer.
    sink.emit(e);
    EXPECT_EQ(readJsonlEvents(path).size(), 0u);
    sink.flush();
    EXPECT_EQ(readJsonlEvents(path).size(), 1u);

    // interval 0 = flush after every emit, while the sink is still open.
    sink.setFlushIntervalSeconds(0.0);
    sink.emit(e);
    sink.emit(e);
    EXPECT_EQ(readJsonlEvents(path).size(), 3u);
  }
  std::filesystem::remove(path);
}

}  // namespace
