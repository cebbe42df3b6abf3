#include "util/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flow/baselines.hpp"
#include "flow/flow.hpp"
#include "library/corelib.hpp"
#include "route/congestion.hpp"
#include "util/thread_pool.hpp"
#include "workloads/plagen.hpp"

namespace cals {
namespace {

// ---- mini JSON parser -------------------------------------------------------
// Just enough JSON to load a Chrome trace / metrics dump back: objects,
// arrays, strings (with escapes), numbers, true/false/null. Strict about
// structure so a malformed exporter fails the test instead of passing by
// accident.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool has(const std::string& key) const { return object.contains(key); }
  const Json& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  bool parse(Json& out) {
    ok_ = true;
    pos_ = 0;
    out = value();
    skip_ws();
    return ok_ && pos_ == text_.size();
  }

 private:
  void fail() { ok_ = false; }
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  char peek() { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool eat(char c) {
    skip_ws();
    if (peek() != c) {
      fail();
      return false;
    }
    ++pos_;
    return true;
  }

  Json value() {
    skip_ws();
    Json v;
    if (!ok_) return v;
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      v.type = Json::Type::kString;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') {
      v.type = Json::Type::kBool;
      v.boolean = c == 't';
      literal(c == 't' ? "true" : "false");
      return v;
    }
    if (c == 'n') {
      literal("null");
      return v;
    }
    v.type = Json::Type::kNumber;
    v.number = number();
    return v;
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p)
      if (pos_ >= text_.size() || text_[pos_++] != *p) return fail();
  }

  double number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) {
      fail();
      return 0.0;
    }
    return std::stod(text_.substr(start, pos_ - start));
  }

  std::string string() {
    std::string out;
    if (!eat('"')) return out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail();
          return out;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail();
              return out;
            }
            const unsigned code = std::stoul(text_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            out += static_cast<char>(code < 0x80 ? code : '?');
            break;
          }
          default: out += esc; break;  // \" \\ \/
        }
      } else {
        out += c;
      }
    }
    if (!eat('"')) fail();
    return out;
  }

  Json array() {
    Json v;
    v.type = Json::Type::kArray;
    eat('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (ok_) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      eat(']');
      break;
    }
    return v;
  }

  Json object() {
    Json v;
    v.type = Json::Type::kObject;
    eat('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (ok_) {
      skip_ws();
      const std::string key = string();
      eat(':');
      v.object[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      eat('}');
      break;
    }
    return v;
  }

  const std::string text_;  // owned: callers often pass freshly-built temporaries
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- fixture ----------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::discard_events();
    obs::Registry::instance().reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::discard_events();
  }
};

/// Parses `json` as a Chrome trace and validates structure: required top-level
/// keys, per-tid balanced B/E spans with matching names, globally monotone
/// timestamps. Returns the parsed document.
Json validate_trace(const std::string& json) {
  Json doc;
  JsonParser parser(json);
  EXPECT_TRUE(parser.parse(doc)) << "trace is not valid JSON";
  EXPECT_EQ(doc.type, Json::Type::kObject);
  EXPECT_TRUE(doc.has("displayTimeUnit"));
  EXPECT_TRUE(doc.has("traceEvents"));
  const Json& events = doc.at("traceEvents");
  EXPECT_EQ(events.type, Json::Type::kArray);

  std::map<double, std::vector<std::string>> stacks;  // tid -> open span names
  double last_ts = -1.0;
  for (const Json& e : events.array) {
    EXPECT_EQ(e.type, Json::Type::kObject);
    const std::string phase = e.at("ph").str;
    if (phase == "M") continue;  // metadata carries no ts ordering contract
    const double ts = e.at("ts").number;
    EXPECT_GE(ts, last_ts) << "timestamps must be monotone";
    last_ts = ts;
    const double tid = e.at("tid").number;
    if (phase == "B") {
      stacks[tid].push_back(e.at("name").str);
    } else if (phase == "E") {
      if (stacks[tid].empty()) {
        ADD_FAILURE() << "E without matching B on tid " << tid;
        continue;
      }
      EXPECT_EQ(stacks[tid].back(), e.at("name").str)
          << "spans must close innermost-first on tid " << tid;
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << "unbalanced spans left open on tid " << tid;
  return doc;
}

// ---- tests ------------------------------------------------------------------

TEST_F(ObsTest, SpanNestingAcrossThreadsProducesWellFormedJson) {
  ThreadPool pool(4);
  {
    CALS_TRACE_SCOPE("main.outer");
    ThreadPool::TaskGroup group(pool);
    for (int t = 0; t < 8; ++t) {
      group.run([] {
        CALS_TRACE_SCOPE("worker.outer");
        for (int i = 0; i < 16; ++i) {
          CALS_TRACE_SCOPE_ARG("worker.inner", "i", i);
          CALS_TRACE_INSTANT("worker.tick");
        }
      });
    }
    group.wait();
    CALS_TRACE_COUNTER("main.progress", 1.0);
  }
  EXPECT_GT(obs::pending_events(), 0u);
  const std::string json = obs::chrome_trace_json();
  EXPECT_EQ(obs::pending_events(), 0u) << "drain must consume the events";

  const Json doc = validate_trace(json);
  // Count spans by name: all begin events must have made it into the export.
  std::size_t outer = 0;
  std::size_t inner = 0;
  std::size_t args_seen = 0;
  for (const Json& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != "B") continue;
    const std::string& name = e.at("name").str;
    if (name == "worker.outer") ++outer;
    if (name == "worker.inner") {
      ++inner;
      if (e.has("args") && e.at("args").has("i")) ++args_seen;
    }
  }
  EXPECT_EQ(outer, 8u);
  EXPECT_EQ(inner, 8u * 16u);
  EXPECT_EQ(args_seen, inner) << "span args must survive the export";
}

/// Runs fn(i) for every i in [0, items) as pool tasks of `grain` indices.
void run_chunked(ThreadPool& pool, std::size_t items, std::size_t grain,
                 void (*fn)(std::size_t)) {
  ThreadPool::TaskGroup group(pool);
  for (std::size_t lo = 0; lo < items; lo += grain)
    group.run([fn, lo, hi = std::min(items, lo + grain)] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  group.wait();
}

TEST_F(ObsTest, CountersAreRaceFreeUnderThreadPool) {
  ThreadPool pool(8);
  constexpr std::size_t kItems = 20000;
  run_chunked(pool, kItems, 64, [](std::size_t) { CALS_OBS_COUNT("test.race_counter", 1); });
  EXPECT_EQ(obs::Registry::instance().counter("test.race_counter").value(), kItems);

  run_chunked(pool, kItems, 64, [](std::size_t i) {
    CALS_OBS_GAUGE_MAX("test.race_gauge", static_cast<double>(i));
  });
  EXPECT_EQ(obs::Registry::instance().gauge("test.race_gauge").value(),
            static_cast<double>(kItems - 1));

  run_chunked(pool, kItems, 64, [](std::size_t) { CALS_OBS_OBSERVE("test.race_hist", 2.0); });
  const obs::Histogram& hist = obs::Registry::instance().histogram("test.race_hist");
  EXPECT_EQ(hist.count(), kItems);
  EXPECT_EQ(hist.sum(), 2.0 * kItems);
  EXPECT_EQ(hist.min(), 2.0);
  EXPECT_EQ(hist.max(), 2.0);
}

TEST_F(ObsTest, DisabledPathEmitsNothing) {
  obs::set_enabled(false);
  {
    CALS_TRACE_SCOPE("dead.span");
    CALS_TRACE_INSTANT("dead.instant");
    CALS_TRACE_COUNTER("dead.counter", 1.0);
    CALS_OBS_COUNT("dead.count", 1);
    CALS_OBS_GAUGE_SET("dead.gauge", 1.0);
    CALS_OBS_OBSERVE("dead.hist", 1.0);
  }
  EXPECT_EQ(obs::pending_events(), 0u);
  // The gated macros never even register the instruments.
  const std::string text = obs::Registry::instance().text();
  EXPECT_EQ(text.find("dead."), std::string::npos);
}

TEST_F(ObsTest, ScopeStaysBalancedWhenEnableFlipsMidSpan) {
  {
    CALS_TRACE_SCOPE("flip.on_at_entry");
    obs::set_enabled(false);
  }  // E must still be emitted: 2 events
  obs::set_enabled(true);
  EXPECT_EQ(obs::pending_events(), 2u);
  obs::set_enabled(false);
  {
    CALS_TRACE_SCOPE("flip.off_at_entry");
    obs::set_enabled(true);
  }  // inert span: no B at entry, so no E either
  EXPECT_EQ(obs::pending_events(), 2u);
  validate_trace(obs::chrome_trace_json());
}

TEST_F(ObsTest, MetricsTextAndJsonDumps) {
  CALS_OBS_COUNT("test.alpha", 3);
  CALS_OBS_COUNT("test.alpha", 4);
  CALS_OBS_GAUGE_SET("test.beta", 2.5);
  CALS_OBS_OBSERVE("test.gamma", 10.0);
  CALS_OBS_OBSERVE("test.gamma", 30.0);

  const std::string text = obs::Registry::instance().text();
  EXPECT_NE(text.find("test.alpha"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
  EXPECT_NE(text.find("test.beta"), std::string::npos);
  EXPECT_NE(text.find("test.gamma"), std::string::npos);

  Json doc;
  JsonParser parser(obs::Registry::instance().json());
  ASSERT_TRUE(parser.parse(doc)) << "metrics json must parse";
  EXPECT_EQ(doc.at("counters").at("test.alpha").number, 7.0);
  EXPECT_EQ(doc.at("gauges").at("test.beta").number, 2.5);
  const Json& gamma = doc.at("histograms").at("test.gamma");
  EXPECT_EQ(gamma.at("count").number, 2.0);
  EXPECT_EQ(gamma.at("sum").number, 40.0);
  EXPECT_EQ(gamma.at("min").number, 10.0);
  EXPECT_EQ(gamma.at("max").number, 30.0);
}

TEST_F(ObsTest, TracedFlowCoversAllPhasesAndExportsCongestionCsv) {
  PlaGenSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 6;
  spec.num_products = 60;
  spec.care_probability = 0.45;
  spec.outputs_per_product = 2.0;
  spec.seed = 33;

  const Library lib = lib::make_corelib();
  BaseNetwork net = synthesize_base(generate_pla(spec));
  const Floorplan fp =
      Floorplan::for_cell_area(net.num_base_gates() * 5.4, 0.55, lib.tech());
  const DesignContext context(net, &lib, fp);
  FlowOptions options;
  options.replace_mapped = false;
  const FlowRun run = context.run(options);

  // Every flow phase must appear as a span in the drained trace.
  const Json doc = validate_trace(obs::chrome_trace_json());
  std::map<std::string, int> begins;
  for (const Json& e : doc.at("traceEvents").array)
    if (e.at("ph").str == "B") ++begins[e.at("name").str];
  for (const char* phase : {"flow.map", "flow.place", "flow.route", "flow.sta"})
    EXPECT_GE(begins[phase], 1) << phase << " span missing from the trace";

  // Layer counters fired.
  obs::Registry& reg = obs::Registry::instance();
  EXPECT_GT(reg.counter("map.matches_tried").value(), 0u);
  EXPECT_GT(reg.counter("map.cover_vertices").value(), 0u);
  EXPECT_GT(reg.counter("sta.arrival_propagations").value(), 0u);
  EXPECT_GT(reg.counter("route.pattern_segments").value(), 0u);

  // Per-iteration router stats line up with the aggregate result.
  EXPECT_EQ(run.route.iter_stats.size(), run.route.rrr_iterations);

  // Congestion CSV heatmap: ny rows of nx comma-separated utilizations.
  const CongestionMap& map = run.congestion;
  const std::string csv = map.to_csv();
  std::size_t rows = 0;
  std::size_t commas = 0;
  for (char c : csv) {
    if (c == '\n') ++rows;
    if (c == ',') ++commas;
  }
  EXPECT_EQ(rows, static_cast<std::size_t>(map.ny()));
  EXPECT_EQ(commas, static_cast<std::size_t>(map.ny()) * (map.nx() - 1));
  debug_check_phase_accounting(run.metrics);
}

TEST_F(ObsTest, HistogramBucketsByPowerOfTwo) {
  obs::Histogram& h = obs::Registry::instance().histogram("test.buckets");
  h.observe(0.5);   // bucket 0: < 1
  h.observe(1.0);   // bucket 1: [1, 2)
  h.observe(3.0);   // bucket 2: [2, 4)
  h.observe(700.0); // bucket 10: [512, 1024)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.count(), 4u);
}

TEST_F(ObsTest, QuantileEdgeCases) {
  obs::Registry& reg = obs::Registry::instance();

  // Empty histogram: every quantile is 0, by contract.
  obs::Histogram& empty = reg.histogram("test.q.empty");
  EXPECT_EQ(empty.quantile(0.0), 0.0);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.quantile(1.0), 0.0);

  // One sample: the [min, max] clamp makes every quantile exact.
  obs::Histogram& single = reg.histogram("test.q.single");
  single.observe(5.0);
  EXPECT_EQ(single.quantile(0.0), 5.0);
  EXPECT_EQ(single.quantile(0.5), 5.0);
  EXPECT_EQ(single.quantile(1.0), 5.0);

  // All samples in one bucket: quantiles stay inside the exact envelope.
  obs::Histogram& narrow = reg.histogram("test.q.narrow");
  narrow.observe(9.0);
  narrow.observe(10.0);
  narrow.observe(11.0);  // all in bucket [8, 16)
  for (const double q : {0.25, 0.5, 0.75, 0.95}) {
    EXPECT_GE(narrow.quantile(q), 9.0);
    EXPECT_LE(narrow.quantile(q), 11.0);
  }

  // Top-bucket overflow: values past the bucket ladder interpolate toward
  // the exact max instead of some 2^47 bucket edge.
  obs::Histogram& huge = reg.histogram("test.q.huge");
  huge.observe(1e30);
  huge.observe(2e30);
  EXPECT_EQ(huge.quantile(1.0), 2e30);
  EXPECT_GE(huge.quantile(0.5), 1e30);
  EXPECT_LE(huge.quantile(0.5), 2e30);

  // Out-of-range q clamps, and quantiles are monotone in q.
  obs::Histogram& spread = reg.histogram("test.q.spread");
  for (const double v : {1.0, 2.0, 4.0, 8.0, 16.0, 200.0, 3000.0})
    spread.observe(v);
  EXPECT_EQ(spread.quantile(-1.0), spread.quantile(0.0));
  EXPECT_EQ(spread.quantile(2.0), spread.quantile(1.0));
  double last = 0.0;
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    const double v = spread.quantile(q);
    EXPECT_GE(v, last) << "quantile must be monotone in q";
    last = v;
  }
  EXPECT_EQ(spread.quantile(1.0), 3000.0);

  // The text dump carries the quantile columns.
  const std::string text = reg.text();
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p95="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
}

TEST_F(ObsTest, SnapshotDeltaSubtractsBaseline) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("test.snap.c").add(5);
  reg.gauge("test.snap.g").set(2.0);
  obs::Histogram& h = reg.histogram("test.snap.h");
  h.observe(10.0);
  h.observe(20.0);

  const obs::Registry::Snapshot before = reg.snapshot();
  EXPECT_EQ(before.counters.at("test.snap.c"), 5u);
  EXPECT_EQ(before.histograms.at("test.snap.h").count, 2u);

  reg.counter("test.snap.c").add(3);
  reg.gauge("test.snap.g").set(7.0);
  h.observe(40.0);
  reg.counter("test.snap.new").add(11);  // born after the baseline

  const obs::Registry::Snapshot delta = reg.snapshot().delta_since(before);
  EXPECT_EQ(delta.counters.at("test.snap.c"), 3u);
  EXPECT_EQ(delta.counters.at("test.snap.new"), 11u);
  // Gauges are point-in-time: the delta carries the current value.
  EXPECT_EQ(delta.gauges.at("test.snap.g"), 7.0);
  const auto& dh = delta.histograms.at("test.snap.h");
  EXPECT_EQ(dh.count, 1u);
  EXPECT_EQ(dh.sum, 40.0);
  EXPECT_EQ(dh.mean(), 40.0);

  // A histogram delta that nets to zero zeroes its derived stats too.
  const obs::Registry::Snapshot same = reg.snapshot().delta_since(reg.snapshot());
  const auto& zh = same.histograms.at("test.snap.h");
  EXPECT_EQ(zh.count, 0u);
  EXPECT_EQ(zh.sum, 0.0);
  EXPECT_EQ(zh.quantile(0.5), 0.0);

  // If an instrument was reset between snapshots (current < baseline), the
  // delta keeps the absolute value instead of wrapping around.
  const obs::Registry::Snapshot high = reg.snapshot();
  reg.counter("test.snap.c").reset();
  reg.counter("test.snap.c").add(2);
  h.reset();
  h.observe(1.0);
  const obs::Registry::Snapshot wrapped = reg.snapshot().delta_since(high);
  EXPECT_EQ(wrapped.counters.at("test.snap.c"), 2u);
  EXPECT_EQ(wrapped.histograms.at("test.snap.h").count, 1u);

  // Snapshot::text() renders every section.
  const std::string text = reg.snapshot().text();
  EXPECT_NE(text.find("test.snap.c"), std::string::npos);
  EXPECT_NE(text.find("test.snap.g"), std::string::npos);
  EXPECT_NE(text.find("test.snap.h"), std::string::npos);
}

TEST_F(ObsTest, PrometheusExposition) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("test.prom.hits").add(7);
  reg.gauge("test.prom.depth").set(2.5);
  obs::Histogram& h = reg.histogram("test.prom.lat_ms");
  h.observe(0.5);  // bucket 0 -> le="1"
  h.observe(3.0);  // bucket 2 -> le="4"

  const std::string out = reg.prometheus();
  // Dots sanitize to underscores; the raw name survives in HELP.
  EXPECT_NE(out.find("# TYPE cals_test_prom_hits counter"), std::string::npos);
  EXPECT_NE(out.find("cals_test_prom_hits 7"), std::string::npos);
  EXPECT_NE(out.find("cals counter 'test.prom.hits'"), std::string::npos);
  EXPECT_NE(out.find("# TYPE cals_test_prom_depth gauge"), std::string::npos);
  EXPECT_NE(out.find("cals_test_prom_depth 2.5"), std::string::npos);
  // Histogram: cumulative le-series up to the top non-empty bucket, then
  // +Inf / _sum / _count.
  EXPECT_NE(out.find("# TYPE cals_test_prom_lat_ms histogram"), std::string::npos);
  EXPECT_NE(out.find("cals_test_prom_lat_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(out.find("cals_test_prom_lat_ms_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(out.find("cals_test_prom_lat_ms_bucket{le=\"4\"} 2"), std::string::npos);
  EXPECT_NE(out.find("cals_test_prom_lat_ms_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(out.find("cals_test_prom_lat_ms_sum 3.5"), std::string::npos);
  EXPECT_NE(out.find("cals_test_prom_lat_ms_count 2"), std::string::npos);
  // No bucket lines past the top non-empty one (le="8" would be noise).
  EXPECT_EQ(out.find("cals_test_prom_lat_ms_bucket{le=\"8\"}"), std::string::npos);

  // HELP escaping: backslashes in a registry name must not break the format.
  reg.counter("test.prom.esc\\weird").add(1);
  const std::string escaped = reg.prometheus();
  EXPECT_NE(escaped.find("cals counter 'test.prom.esc\\\\weird'"), std::string::npos);
  // ...and the metric name itself sanitizes the backslash away.
  EXPECT_NE(escaped.find("cals_test_prom_esc_weird 1"), std::string::npos);
}

}  // namespace
}  // namespace cals
