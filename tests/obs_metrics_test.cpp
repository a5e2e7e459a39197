// Tests for the observability layer: counter/gauge/histogram semantics,
// the runtime enable switch, registry snapshots, the RAII stage timer,
// and the JSON-lines trace writer.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/json.hpp"

namespace spsta::obs {
namespace {

/// Restores the global enable switch (tests toggle it).
class EnabledGuard {
 public:
  EnabledGuard() : was_(enabled()) {}
  ~EnabledGuard() { set_enabled(was_); }

 private:
  bool was_;
};

TEST(ObsMetrics, CounterCountsOnlyWhileEnabled) {
  const EnabledGuard guard;
  Counter c;
  set_enabled(true);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), kCompiledIn ? 42u : 0u);
  set_enabled(false);
  c.add(1000);
  EXPECT_EQ(c.value(), kCompiledIn ? 42u : 0u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeHoldsLastWrite) {
  const EnabledGuard guard;
  set_enabled(true);
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.set(-17.25);
  if (kCompiledIn) {
    EXPECT_EQ(g.value(), -17.25);
  }
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsMetrics, HistogramBucketsAreLog2Microseconds) {
  const EnabledGuard guard;
  set_enabled(true);
  LatencyHistogram h;
  h.record_ns(400);          // 0 µs -> bucket 0
  h.record_ns(1'000);        // 1 µs -> bucket 1
  h.record_ns(1'500);        // 1 µs -> bucket 1
  h.record_ns(3'000);        // 3 µs -> bucket 2
  h.record_ns(1'000'000);    // 1000 µs -> bucket 10
  h.record_ns(3'600'000'000);  // 3.6 s -> overflow bucket
  if (!kCompiledIn) {
    EXPECT_EQ(h.count(), 0u);
    return;
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.total_ns(), 400u + 1'000 + 1'500 + 3'000 + 1'000'000 + 3'600'000'000);
  EXPECT_EQ(h.max_ns(), 3'600'000'000u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(0), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(3), 8u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(LatencyHistogram::kBuckets - 1),
            UINT64_MAX);
}

TEST(ObsMetrics, RegistryReturnsStableReferencesAndSnapshots) {
  const EnabledGuard guard;
  set_enabled(true);
  Counter& c1 = registry().counter("test.registry.counter");
  Counter& c2 = registry().counter("test.registry.counter");
  EXPECT_EQ(&c1, &c2);  // same name, same metric
  c1.reset();
  c1.add(7);
  registry().gauge("test.registry.gauge").set(1.5);
  registry().histogram("test.registry.hist").record_ns(2'000'000);

  const Snapshot snap = registry().snapshot();
  EXPECT_EQ(snap.enabled, enabled());
  EXPECT_EQ(snap.counter_value("test.registry.counter"), kCompiledIn ? 7u : 0u);
  EXPECT_EQ(snap.counter_value("no.such.counter"), 0u);
  if (kCompiledIn) {
    EXPECT_GE(snap.histogram_total_ms("test.registry.hist"), 2.0);
  }
  EXPECT_EQ(snap.histogram_total_ms("no.such.hist"), 0.0);

  // reset_values zeroes values but keeps registrations (and addresses).
  registry().reset_values();
  EXPECT_EQ(c1.value(), 0u);
  EXPECT_EQ(&registry().counter("test.registry.counter"), &c1);
}

TEST(ObsMetrics, StageTimerRecordsItsScope) {
  const EnabledGuard guard;
  set_enabled(true);
  LatencyHistogram h;
  {
    const StageTimer timer(h);
  }
  EXPECT_EQ(h.count(), kCompiledIn ? 1u : 0u);

  // A timer constructed while disabled records nothing, even if recording
  // is re-enabled before its scope closes (enabled-ness is sampled once).
  set_enabled(false);
  {
    const StageTimer timer(h);
    set_enabled(true);
  }
  EXPECT_EQ(h.count(), kCompiledIn ? 1u : 0u);
}

TEST(ObsTrace, TraceLineIsValidJsonWithSpanFields) {
  const std::string line =
      trace_line({.trace_id = 7,
                  .cmd = "analyze",
                  .ok = true,
                  .queue_ms = 0.25,
                  .execute_ms = 12.5,
                  .serialize_ms = 0.125});
  const service::Json v = service::Json::parse(line);
  EXPECT_EQ(v.find("trace_id")->as_string(), "t-7");
  EXPECT_EQ(v.find("cmd")->as_string(), "analyze");
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_EQ(v.find("queue_ms")->as_number(), 0.25);
  EXPECT_EQ(v.find("execute_ms")->as_number(), 12.5);
  EXPECT_EQ(v.find("serialize_ms")->as_number(), 0.125);

  // Commands are attacker-controlled text; quoting must survive it.
  const std::string hostile = trace_line({.cmd = "a\"b\\c\n"});
  EXPECT_EQ(service::Json::parse(hostile).find("cmd")->as_string(), "a\"b\\c\n");
}

TEST(ObsTrace, TraceLogAppendsOneLinePerEvent) {
  const std::string path = ::testing::TempDir() + "spsta_trace_test.jsonl";
  std::remove(path.c_str());
  {
    TraceLog log(path);
    ASSERT_TRUE(log.ok());
    log.write({.trace_id = 1, .cmd = "ping", .ok = true});
    log.write({.trace_id = 2, .cmd = "analyze", .ok = false});
    EXPECT_EQ(log.events_written(), 2u);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(4096, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.c_str());

  // Two parseable lines, ids in write order.
  const std::size_t newline = content.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const service::Json first = service::Json::parse(content.substr(0, newline));
  EXPECT_EQ(first.find("trace_id")->as_string(), "t-1");
  const std::string rest = content.substr(newline + 1);
  ASSERT_FALSE(rest.empty());
  EXPECT_EQ(rest.back(), '\n');
  const service::Json second = service::Json::parse(rest.substr(0, rest.size() - 1));
  EXPECT_EQ(second.find("trace_id")->as_string(), "t-2");

  // A path that cannot open yields an inert log, not a crash.
  TraceLog bad("/nonexistent-dir-for-spsta-test/trace.jsonl");
  EXPECT_FALSE(bad.ok());
  TraceEvent dropped;
  dropped.trace_id = 3;
  bad.write(dropped);
  EXPECT_EQ(bad.events_written(), 0u);
}

}  // namespace
}  // namespace spsta::obs
