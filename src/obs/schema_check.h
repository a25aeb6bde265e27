// Copyright (c) 2026 The ktg Authors.
// Shared structural validators for the library's JSON document schemas.
//
// Several consumers (the observability/CLI/server test suites, the
// `schema_validate` CLI tool, and through it the CI smoke jobs) need to
// assert "this string is a well-formed ktg.metrics.v1 / ktg.trace.v1 /
// ktg.response.v1 document". These validators parse the document with
// util/json_parse and walk the real structure instead of substring
// checks. They return a list of human-readable problems — empty means
// valid — so a failure names every violation at once:
//
//   EXPECT_THAT(CheckMetricsV1(json), IsEmpty());

#ifndef KTG_OBS_SCHEMA_CHECK_H_
#define KTG_OBS_SCHEMA_CHECK_H_

#include <string>
#include <string_view>
#include <vector>

namespace ktg::obs {

/// ktg.metrics.v1: {"schema","counters":{str:num},"gauges":{str:num},
/// "histograms":{str:{count,mean,min,max,p50,p90,p99,sum}}}.
std::vector<std::string> CheckMetricsV1(std::string_view json);

/// ktg.trace.v1: {"schema","capacity","recorded","dropped",
/// "events":[{t_ms,kind,depth,vertex,detail}]}.
std::vector<std::string> CheckTraceV1(std::string_view json);

/// ktg.response.v1 (one server response line): {"schema","id","status"}
/// plus status-specific members — "ok" carries groups/stats/serving,
/// "rejected" retry_after_ms, "error" message.
std::vector<std::string> CheckResponseV1(std::string_view json);

/// ktg.loadgen.v1 (the loadgen report): counters (sent/completed/...),
/// wall_s/qps, and a latency_ms summary object.
std::vector<std::string> CheckLoadgenV1(std::string_view json);

/// ktg.bench.v1 (a perfbench ledger, BENCH_<n>.json): "command", "nproc",
/// "parent" and "change" objects naming their "commit", and "workloads",
/// each with a "parent" and a "change" side. A side holds its "runs"
/// ([{seed, correct, attempted, failed, metrics: {name: num}}]) and a
/// "summary" ({name: {n, min, median, rel_spread}}) that must agree with
/// the runs: n values, their minimum and median (the mean of the middle
/// two for even n), and rel_spread the distance between the quartiles
/// (linear interpolation between order statistics) over the median.
std::vector<std::string> CheckBenchV1(std::string_view json);

/// Dispatches on the document's "schema" member to the matching Check*
/// validator. Unknown or missing schemas are themselves problems.
std::vector<std::string> CheckAnyKnownSchema(std::string_view json);

}  // namespace ktg::obs

#endif  // KTG_OBS_SCHEMA_CHECK_H_
