// Schema validation for the machine-readable run report (--report=json,
// docs/FORMATS.md "Run report" schema version 1) and for the shared JSON
// utility (util/json.h) it is built on. The report is parsed back with
// the real parser and checked field by field — a schema change that
// breaks consumers fails here, not in a downstream dashboard.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "circuits/benchmarks.h"
#include "flow/nanomap_flow.h"
#include "map/bench_format.h"
#include "util/json.h"
#include "util/trace.h"

namespace nanomap {
namespace {

Design s27_design() {
  return parse_bench_file(NMAP_TEST_DESIGN_DIR "/s27.bench");
}

FlowResult traced_run() {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.seed = 42;
  opts.threads = 2;
  opts.placement.restarts = 2;
  opts.collect_trace = true;
  FlowResult r = run_nanomap(s27_design(), opts);
  EXPECT_TRUE(r.feasible) << r.message;
  return r;
}

const JsonValue& field(const JsonValue& obj, const std::string& name,
                       JsonValue::Kind kind) {
  const JsonValue* v = obj.find(name);
  EXPECT_NE(v, nullptr) << "missing field \"" << name << "\"";
  if (v == nullptr) {
    static const JsonValue null_value;
    return null_value;
  }
  EXPECT_EQ(static_cast<int>(v->kind), static_cast<int>(kind))
      << "field \"" << name << "\" has the wrong JSON type";
  return *v;
}

// --- util/json.h -----------------------------------------------------------

TEST(Json, QuoteEscapesEverythingMandatory) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("x\n\t\r"), "\"x\\n\\t\\r\"");
  EXPECT_EQ(json_quote(std::string("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, NumbersRoundTripExactly) {
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-3.0), "-3");
  const double v = 0.1 + 0.2;
  JsonValue parsed = parse_json(json_number(v));
  ASSERT_EQ(parsed.kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(parsed.number, v);  // shortest-round-trip must be bit-exact
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(2.29), "2.29");
}

TEST(Json, WriterAndParserRoundTrip) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "s27");
  w.field("ok", true);
  w.key("rows");
  w.begin_array();
  w.value(1);
  w.value(2.5);
  w.value("three");
  w.end();
  w.key("nested");
  w.begin_object();
  w.field("x", -7L);
  w.end();
  w.end();
  JsonValue v = parse_json(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(field(v, "name", JsonValue::Kind::kString).string, "s27");
  EXPECT_TRUE(field(v, "ok", JsonValue::Kind::kBool).boolean);
  const JsonValue& rows = field(v, "rows", JsonValue::Kind::kArray);
  ASSERT_EQ(rows.items.size(), 3u);
  EXPECT_EQ(rows.items[0].number, 1.0);
  EXPECT_EQ(rows.items[1].number, 2.5);
  EXPECT_EQ(rows.items[2].string, "three");
  const JsonValue& nested = field(v, "nested", JsonValue::Kind::kObject);
  EXPECT_EQ(field(nested, "x", JsonValue::Kind::kNumber).number, -7.0);
}

TEST(Json, CompactModeIsOneLineAndParsesIdentically) {
  auto build = [](bool compact) {
    JsonWriter w(compact);
    w.begin_object();
    w.field("name", "s27");
    w.key("rows");
    w.begin_array();
    w.value(1);
    w.value(2.5);
    w.end();
    w.key("nested");
    w.begin_object();
    w.field("ok", true);
    w.end();
    w.key("raw");
    w.raw("{\"x\":7}");  // embed-a-finished-document hook
    w.end();
    return w.str();
  };
  const std::string compact = build(true);
  const std::string pretty = build(false);

  // Exactly one line, no trailing newline, no indentation whitespace.
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  EXPECT_EQ(compact,
            "{\"name\":\"s27\",\"rows\":[1,2.5],"
            "\"nested\":{\"ok\":true},\"raw\":{\"x\":7}}");
  EXPECT_EQ(pretty.back(), '\n');

  // Both dialects parse to the same document.
  JsonValue a = parse_json(compact);
  JsonValue b = parse_json(pretty);
  EXPECT_EQ(field(a, "name", JsonValue::Kind::kString).string,
            field(b, "name", JsonValue::Kind::kString).string);
  EXPECT_EQ(field(a, "rows", JsonValue::Kind::kArray).items.size(),
            field(b, "rows", JsonValue::Kind::kArray).items.size());
  const JsonValue& raw = field(a, "raw", JsonValue::Kind::kObject);
  EXPECT_EQ(field(raw, "x", JsonValue::Kind::kNumber).number, 7.0);
}

TEST(Report, CompactJsonMatchesIndentedJson) {
  FlowResult r = traced_run();
  const std::string compact = r.report.to_json(/*include_timings=*/false,
                                               /*compact=*/true);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  // Same document, byte-normalized through the parser's field order.
  JsonValue a = parse_json(compact);
  JsonValue b = parse_json(r.report.to_json(/*include_timings=*/false));
  ASSERT_TRUE(a.is_object());
  ASSERT_EQ(a.fields.size(), b.fields.size());
  for (std::size_t i = 0; i < a.fields.size(); ++i)
    EXPECT_EQ(a.fields[i].first, b.fields[i].first);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), InputError);
  EXPECT_THROW(parse_json("{"), InputError);
  EXPECT_THROW(parse_json("{\"a\": }"), InputError);
  EXPECT_THROW(parse_json("[1, 2,]"), InputError);
  EXPECT_THROW(parse_json("\"unterminated"), InputError);
  EXPECT_THROW(parse_json("{} trailing"), InputError);
  EXPECT_THROW(parse_json("nul"), InputError);
  std::string deep(100, '[');
  EXPECT_THROW(parse_json(deep), InputError);
}

TEST(Json, ParserHandlesEscapesAndKeywords) {
  JsonValue v = parse_json(R"({"s": "a\u0041\n", "t": true, "n": null})");
  EXPECT_EQ(field(v, "s", JsonValue::Kind::kString).string, "aA\n");
  EXPECT_TRUE(field(v, "t", JsonValue::Kind::kBool).boolean);
  EXPECT_EQ(field(v, "n", JsonValue::Kind::kNull).kind,
            JsonValue::Kind::kNull);
}

// --- run-report schema -----------------------------------------------------

TEST(Report, DocumentMatchesSchemaVersion1) {
  FlowResult r = traced_run();
  JsonValue doc = parse_json(r.report.to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(field(doc, "version", JsonValue::Kind::kNumber).number,
            RunReport::kSchemaVersion);

  const JsonValue& run = field(doc, "run", JsonValue::Kind::kObject);
  EXPECT_EQ(field(run, "objective", JsonValue::Kind::kString).string,
            "area-delay-product");
  EXPECT_EQ(field(run, "seed", JsonValue::Kind::kNumber).number, 42.0);
  EXPECT_EQ(field(run, "threads", JsonValue::Kind::kNumber).number, 2.0);
  EXPECT_TRUE(field(run, "trace_enabled", JsonValue::Kind::kBool).boolean);

  const JsonValue& outcome = field(doc, "outcome", JsonValue::Kind::kObject);
  EXPECT_TRUE(field(outcome, "feasible", JsonValue::Kind::kBool).boolean);
  EXPECT_EQ(field(outcome, "error_kind", JsonValue::Kind::kString).string,
            "none");
  EXPECT_GE(field(outcome, "levels_tried", JsonValue::Kind::kNumber).number,
            1.0);
  field(outcome, "cpu_seconds", JsonValue::Kind::kNumber);

  const JsonValue& circuit = field(doc, "circuit", JsonValue::Kind::kObject);
  EXPECT_GT(field(circuit, "total_luts", JsonValue::Kind::kNumber).number,
            0.0);
  field(circuit, "num_planes", JsonValue::Kind::kNumber);
  field(circuit, "total_flipflops", JsonValue::Kind::kNumber);
  field(circuit, "depth_max", JsonValue::Kind::kNumber);

  const JsonValue& result = field(doc, "result", JsonValue::Kind::kObject);
  for (const char* key :
       {"folding_level", "stages_per_plane", "num_cycles", "num_les",
        "num_smbs", "area_um2", "peak_ffs", "delay_ns", "folding_cycle_ns",
        "estimated_delay_ns", "area_delay_product", "bitmap_bits",
        "router_iterations"}) {
    field(result, key, JsonValue::Kind::kNumber);
  }
  EXPECT_GT(field(result, "num_les", JsonValue::Kind::kNumber).number, 0.0);
  EXPECT_GT(field(result, "delay_ns", JsonValue::Kind::kNumber).number, 0.0);

  const JsonValue& events = field(doc, "events", JsonValue::Kind::kArray);
  for (const JsonValue& e : events.items) {
    ASSERT_TRUE(e.is_object());
    field(e, "stage", JsonValue::Kind::kString);
    field(e, "level", JsonValue::Kind::kNumber);
    field(e, "attempt", JsonValue::Kind::kNumber);
    field(e, "kind", JsonValue::Kind::kString);
    field(e, "action", JsonValue::Kind::kString);
    field(e, "detail", JsonValue::Kind::kString);
  }

  const JsonValue& stages = field(doc, "stages", JsonValue::Kind::kArray);
  ASSERT_FALSE(stages.items.empty());
  EXPECT_EQ(field(stages.items[0], "path", JsonValue::Kind::kString).string,
            "flow");
  std::set<std::string> paths;
  for (const JsonValue& s : stages.items) {
    ASSERT_TRUE(s.is_object());
    paths.insert(field(s, "path", JsonValue::Kind::kString).string);
    EXPECT_GE(field(s, "calls", JsonValue::Kind::kNumber).number, 1.0);
    field(s, "wall_ms", JsonValue::Kind::kNumber);
  }
  // The physical stages of a feasible run must all appear in the tree.
  for (const char* want :
       {"flow/schedule", "flow/cluster", "flow/place", "flow/route",
        "flow/sta", "flow/bitmap"}) {
    EXPECT_TRUE(paths.count(want)) << "missing stage path " << want;
  }

  const JsonValue& counters = field(doc, "counters", JsonValue::Kind::kArray);
  ASSERT_FALSE(counters.items.empty());
  std::string prev;
  for (const JsonValue& c : counters.items) {
    ASSERT_TRUE(c.is_object());
    const std::string& site =
        field(c, "site", JsonValue::Kind::kString).string;
    EXPECT_LT(prev, site) << "counters must be sorted by site";
    prev = site;
    field(c, "value", JsonValue::Kind::kNumber);
  }

  const JsonValue& values = field(doc, "values", JsonValue::Kind::kArray);
  for (const JsonValue& v : values.items) {
    ASSERT_TRUE(v.is_object());
    field(v, "site", JsonValue::Kind::kString);
    EXPECT_GE(field(v, "count", JsonValue::Kind::kNumber).number, 1.0);
    field(v, "sum", JsonValue::Kind::kNumber);
    field(v, "min", JsonValue::Kind::kNumber);
    field(v, "max", JsonValue::Kind::kNumber);
  }
}

TEST(Report, MaskedTimingsAreZeroAndByteDeterministic) {
  FlowResult a = traced_run();
  FlowResult b = traced_run();
  std::string ja = a.report.to_json(/*include_timings=*/false);
  EXPECT_EQ(ja, b.report.to_json(false));
  JsonValue doc = parse_json(ja);
  EXPECT_EQ(field(field(doc, "outcome", JsonValue::Kind::kObject),
                  "cpu_seconds", JsonValue::Kind::kNumber)
                .number,
            0.0);
  for (const JsonValue& s :
       field(doc, "stages", JsonValue::Kind::kArray).items)
    EXPECT_EQ(field(s, "wall_ms", JsonValue::Kind::kNumber).number, 0.0);
}

TEST(Report, InfeasibleRunsStillProduceAValidDocument) {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.area_constraint_le = 1;  // impossible: nothing fits in one LE
  opts.delay_constraint_ns = 0.001;
  opts.objective = Objective::kMeetBoth;
  opts.collect_trace = true;
  FlowResult r = run_nanomap(s27_design(), opts);
  ASSERT_FALSE(r.feasible);
  JsonValue doc = parse_json(r.report.to_json());
  const JsonValue& outcome = field(doc, "outcome", JsonValue::Kind::kObject);
  EXPECT_FALSE(field(outcome, "feasible", JsonValue::Kind::kBool).boolean);
  EXPECT_NE(field(outcome, "error_kind", JsonValue::Kind::kString).string,
            "none");
  EXPECT_FALSE(field(doc, "events", JsonValue::Kind::kArray).items.empty());
}

// ASPP4 at level 3 places and routes at rung 0 but misses a 30 ns delay
// constraint (59.52 ns): the run must report the constraint, not a
// placement-stage warning, as its failure, in the result and the report.
TEST(Report, MissedDelayConstraintIsReportedAsInfeasibleConstraint) {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.forced_folding_level = 3;
  opts.delay_constraint_ns = 30.0;
  opts.collect_trace = true;
  FlowResult r = run_nanomap(make_benchmark("ASPP4"), opts);
  ASSERT_FALSE(r.feasible);
  EXPECT_EQ(r.error_kind, FlowErrorKind::kInfeasibleConstraint)
      << flow_error_kind_name(r.error_kind) << "\n"
      << r.diagnostics.to_string();
  JsonValue doc = parse_json(r.report.to_json());
  const JsonValue& outcome = field(doc, "outcome", JsonValue::Kind::kObject);
  EXPECT_EQ(field(outcome, "error_kind", JsonValue::Kind::kString).string,
            "infeasible-constraint");
  for (const JsonValue& e :
       field(doc, "events", JsonValue::Kind::kArray).items)
    EXPECT_NE(field(e, "action", JsonValue::Kind::kString).string, "warn")
        << field(e, "detail", JsonValue::Kind::kString).string;
}

TEST(Report, BuildRunReportIsExposedForTools) {
  // Tools (bench runners, tests) can assemble a report from a finished
  // result without re-running the flow.
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.seed = 7;
  FlowResult r = run_nanomap(s27_design(), opts);
  ASSERT_TRUE(r.feasible);
  RunReport rebuilt = build_run_report(opts, r, TraceSnapshot{});
  EXPECT_EQ(rebuilt.to_json(false), r.report.to_json(false));
}

}  // namespace
}  // namespace nanomap
