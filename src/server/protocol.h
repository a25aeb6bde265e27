// Copyright (c) 2026 The ktg Authors.
// The ktgd wire protocol: line-delimited JSON over a byte stream.
//
// Every request is one JSON object on one line; every request produces
// exactly one response line. Responses carry `"schema":"ktg.response.v1"`;
// the payload of a successful query reuses the exact group/stats shape the
// CLI's `query --json` emits, and the `metrics` op embeds a full
// `ktg.metrics.v1` registry snapshot, so existing consumers of those
// documents read server output unchanged. docs/server.md specifies the
// protocol normatively.
//
// Request ops:
//   {"op":"ping"[,"id":7]}
//   {"op":"query","keywords":["db","graphs"],"p":3,"k":2,"n":5,
//    "algo":"vkc-deg","deadline_ms":50,"authors":[12,99],"id":7}
//   {"op":"mutate","add_edges":[[1,2]],"remove_edges":[[3,4]],
//    "add_keywords":[[5,"db"]],"id":7}  — writer path: applies the batch,
//    publishes a new epoch (docs/concurrency.md); the response reports
//    the published epoch and rebuild counts
//   {"op":"metrics"}         — introspection: registry snapshot
//   {"op":"info"}            — introspection: dataset + server config
//
// Response statuses: "ok", "rejected" (admission control; carries
// retry_after_ms), "error" (malformed request, engine validation failure,
// or rejected mutation batch). Queries whose deadline expires while queued
// are still answered "ok" with best-so-far groups, serving.complete=false
// and a sound serving.gap; the "timeout" status (waited_ms) remains in the
// schema for older servers but is no longer emitted by this one.

#ifndef KTG_SERVER_PROTOCOL_H_
#define KTG_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "core/snapshot.h"
#include "keywords/attributed_graph.h"
#include "util/status.h"

namespace ktg::server {

/// What a request asks the server to do.
enum class RequestOp : uint8_t { kPing, kQuery, kMutate, kMetrics, kInfo };

/// One parsed request line. Keyword terms are carried as strings and
/// resolved against the serving graph's vocabulary at execution time
/// (unknown terms behave exactly like the CLI: uncoverable but counted).
struct Request {
  RequestOp op = RequestOp::kPing;
  /// Client-chosen correlation id, echoed verbatim in the response
  /// (defaults to 0). Required for out-of-order reading (open-loop load).
  uint64_t id = 0;

  // --- kQuery payload ------------------------------------------------------
  std::vector<std::string> keywords;
  uint32_t group_size = 3;
  HopDistance tenuity = 1;
  uint32_t top_n = 1;
  std::vector<VertexId> authors;
  /// Total deadline (queue wait + execution) in ms; 0 = use the server's
  /// default (which may itself be "no deadline").
  double deadline_ms = 0.0;
  SortStrategy sort = SortStrategy::kVkcDeg;
  /// Per-request execution mode ("mode":"exact|anytime|portfolio"). When
  /// the line carries no mode member has_mode stays false and the server's
  /// configured engine mode applies.
  EngineMode mode = EngineMode::kExact;
  bool has_mode = false;

  // --- kMutate payload -----------------------------------------------------
  MutationBatch mutation;
};

/// Parses one request line. InvalidArgument on malformed JSON, unknown op,
/// missing/mistyped fields, or out-of-range parameters.
Result<Request> ParseRequestLine(const std::string& line);

/// Serializes a query request (the client side; loadgen uses this). The
/// query's keyword ids are rendered as vocabulary terms. A non-exact
/// `mode` is emitted as a "mode" member; kExact is the wire default and
/// is omitted.
std::string QueryRequestJson(uint64_t id, const AttributedGraph& graph,
                             const KtgQuery& query, SortStrategy sort,
                             double deadline_ms,
                             EngineMode mode = EngineMode::kExact);
std::string PingRequestJson(uint64_t id);
std::string MetricsRequestJson(uint64_t id);
/// Serializes a mutate request (loadgen's mixed driver uses this).
std::string MutateRequestJson(uint64_t id, const MutationBatch& batch);

/// Per-request serving telemetry echoed in query responses.
struct ServingInfo {
  double queue_ms = 0.0;    ///< admission to execution start
  double exec_ms = 0.0;     ///< engine wall-clock inside the worker
  /// False when the deadline truncated the search OR the request's own
  /// deadline had already expired in the queue (the response then carries
  /// the best-so-far groups; `gap` quantifies how far off they may be).
  bool complete = true;
  bool coalesced = false;   ///< answered by an identical in-flight request
  /// Sound optimality gap of the returned groups (SearchStats::gap): 0
  /// means provably optimal, g > 0 means the best group may cover up to g
  /// more keywords than the best returned one.
  int gap = 0;
  /// Epoch of the snapshot this response was computed against. A
  /// differential checker replays the query against exactly this epoch.
  uint64_t epoch = 0;
};

/// Response builders (one line each, no trailing newline).
std::string QueryResponseJson(uint64_t id, const AttributedGraph& graph,
                              const KtgQuery& query, const KtgResult& result,
                              const ServingInfo& serving);
std::string RejectResponseJson(uint64_t id, double retry_after_ms,
                               uint64_t queue_depth);
std::string ErrorResponseJson(uint64_t id, const std::string& message);
std::string PongResponseJson(uint64_t id);
/// Embeds a pre-serialized ktg.metrics.v1 document under "metrics".
std::string MetricsResponseJson(uint64_t id, const std::string& metrics_json);
/// Embeds a pre-serialized info object under "info".
std::string InfoResponseJson(uint64_t id, const std::string& info_json);
/// The writer path's acknowledgement: the epoch the batch published plus
/// what it rebuilt (SnapshotStore::ApplyInfo, serialized field-for-field).
std::string MutateResponseJson(uint64_t id,
                               const SnapshotStore::ApplyInfo& info);

}  // namespace ktg::server

#endif  // KTG_SERVER_PROTOCOL_H_
