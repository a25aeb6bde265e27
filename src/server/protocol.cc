// Copyright (c) 2026 The ktg Authors.

#include "server/protocol.h"

#include "util/json_parse.h"
#include "util/json_writer.h"

namespace ktg::server {
namespace {

// Request lines come from the network; bound what a single line may nest.
constexpr int kMaxRequestDepth = 16;
constexpr size_t kMaxKeywords = 64;
constexpr size_t kMaxAuthors = 1024;
constexpr size_t kMaxMutationDeltas = 1024;
constexpr size_t kMaxMutationTerm = 256;

Result<SortStrategy> ParseSort(const std::string& algo) {
  if (algo == "vkc-deg") return SortStrategy::kVkcDeg;
  if (algo == "vkc") return SortStrategy::kVkc;
  if (algo == "qkc") return SortStrategy::kQkc;
  return Status::InvalidArgument("unknown algo '" + algo +
                                 "' (expected vkc-deg|vkc|qkc)");
}

const char* SortWireName(SortStrategy sort) {
  switch (sort) {
    case SortStrategy::kQkc:
      return "qkc";
    case SortStrategy::kVkc:
      return "vkc";
    case SortStrategy::kVkcDeg:
      return "vkc-deg";
  }
  return "vkc-deg";
}

void BeginResponse(JsonWriter& w, uint64_t id, const char* status) {
  w.BeginObject();
  w.KV("schema", "ktg.response.v1");
  w.KV("id", id);
  w.KV("status", status);
}

/// Parses an optional `[[u,v],...]` edge-pair array under `field`.
Status ParseEdgeArray(const JsonValue& doc, const char* field,
                      std::vector<std::pair<VertexId, VertexId>>* out) {
  const JsonValue* arr = doc.Find(field);
  if (arr == nullptr) return Status::OK();
  if (!arr->is_array() || arr->AsArray().size() > kMaxMutationDeltas) {
    return Status::InvalidArgument(std::string("'") + field +
                                   "' must be an array of at most 1024 "
                                   "[u, v] pairs");
  }
  for (const JsonValue& pair : arr->AsArray()) {
    if (!pair.is_array() || pair.AsArray().size() != 2 ||
        !pair.AsArray()[0].is_number() || !pair.AsArray()[1].is_number() ||
        pair.AsArray()[0].AsDouble() < 0 || pair.AsArray()[1].AsDouble() < 0) {
      return Status::InvalidArgument(std::string("'") + field +
                                     "' entries must be [u, v] vertex pairs");
    }
    out->emplace_back(static_cast<VertexId>(pair.AsArray()[0].AsDouble()),
                      static_cast<VertexId>(pair.AsArray()[1].AsDouble()));
  }
  return Status::OK();
}

}  // namespace

Result<Request> ParseRequestLine(const std::string& line) {
  auto doc = ParseJson(line, kMaxRequestDepth);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  Request req;
  const auto id = doc->GetInt("id", 0);
  if (!id.ok()) return id.status();
  if (id.value() < 0) {
    return Status::InvalidArgument("field 'id' must be non-negative");
  }
  req.id = static_cast<uint64_t>(id.value());

  const auto op = doc->GetString("op", "");
  if (!op.ok()) return op.status();
  if (op.value() == "ping") {
    req.op = RequestOp::kPing;
    return req;
  }
  if (op.value() == "metrics") {
    req.op = RequestOp::kMetrics;
    return req;
  }
  if (op.value() == "info") {
    req.op = RequestOp::kInfo;
    return req;
  }
  if (op.value() == "mutate") {
    req.op = RequestOp::kMutate;
    KTG_RETURN_IF_ERROR(
        ParseEdgeArray(*doc, "add_edges", &req.mutation.add_edges));
    KTG_RETURN_IF_ERROR(
        ParseEdgeArray(*doc, "remove_edges", &req.mutation.remove_edges));
    if (const JsonValue* kws = doc->Find("add_keywords"); kws != nullptr) {
      if (!kws->is_array() || kws->AsArray().size() > kMaxMutationDeltas) {
        return Status::InvalidArgument(
            "'add_keywords' must be an array of at most 1024 "
            "[vertex, term] pairs");
      }
      for (const JsonValue& pair : kws->AsArray()) {
        if (!pair.is_array() || pair.AsArray().size() != 2 ||
            !pair.AsArray()[0].is_number() ||
            pair.AsArray()[0].AsDouble() < 0 ||
            !pair.AsArray()[1].is_string() ||
            pair.AsArray()[1].AsString().empty() ||
            pair.AsArray()[1].AsString().size() > kMaxMutationTerm) {
          return Status::InvalidArgument(
              "'add_keywords' entries must be [vertex, term] pairs");
        }
        req.mutation.add_keywords.emplace_back(
            static_cast<VertexId>(pair.AsArray()[0].AsDouble()),
            pair.AsArray()[1].AsString());
      }
    }
    if (req.mutation.empty()) {
      return Status::InvalidArgument(
          "mutate requires at least one of add_edges / remove_edges / "
          "add_keywords");
    }
    return req;
  }
  if (op.value() != "query") {
    return Status::InvalidArgument(
        "unknown op '" + op.value() +
        "' (expected ping|query|mutate|metrics|info)");
  }
  req.op = RequestOp::kQuery;

  const JsonValue* kw = doc->Find("keywords");
  if (kw == nullptr || !kw->is_array() || kw->AsArray().empty()) {
    return Status::InvalidArgument(
        "query requires a non-empty 'keywords' array");
  }
  if (kw->AsArray().size() > kMaxKeywords) {
    return Status::InvalidArgument("too many keywords (max 64)");
  }
  for (const JsonValue& term : kw->AsArray()) {
    if (!term.is_string()) {
      return Status::InvalidArgument("'keywords' entries must be strings");
    }
    req.keywords.push_back(term.AsString());
  }

  const auto p = doc->GetInt("p", 3);
  const auto k = doc->GetInt("k", 1);
  const auto n = doc->GetInt("n", 1);
  if (!p.ok()) return p.status();
  if (!k.ok()) return k.status();
  if (!n.ok()) return n.status();
  if (p.value() < 1 || p.value() > 64) {
    return Status::InvalidArgument("field 'p' must be in [1, 64]");
  }
  if (k.value() < 0 || k.value() > 255) {
    return Status::InvalidArgument("field 'k' must be in [0, 255]");
  }
  if (n.value() < 1 || n.value() > 4096) {
    return Status::InvalidArgument("field 'n' must be in [1, 4096]");
  }
  req.group_size = static_cast<uint32_t>(p.value());
  req.tenuity = static_cast<HopDistance>(k.value());
  req.top_n = static_cast<uint32_t>(n.value());

  const auto deadline = doc->GetNumber("deadline_ms", 0.0);
  if (!deadline.ok()) return deadline.status();
  if (deadline.value() < 0) {
    return Status::InvalidArgument("field 'deadline_ms' must be >= 0");
  }
  req.deadline_ms = deadline.value();

  const auto algo = doc->GetString("algo", "vkc-deg");
  if (!algo.ok()) return algo.status();
  const auto sort = ParseSort(algo.value());
  if (!sort.ok()) return sort.status();
  req.sort = sort.value();

  const auto mode = doc->GetString("mode", "");
  if (!mode.ok()) return mode.status();
  if (!mode.value().empty()) {
    if (!ParseEngineMode(mode.value(), &req.mode)) {
      return Status::InvalidArgument(
          "unknown mode '" + mode.value() +
          "' (expected exact|anytime|portfolio)");
    }
    req.has_mode = true;
  }

  if (const JsonValue* authors = doc->Find("authors"); authors != nullptr) {
    if (!authors->is_array()) {
      return Status::InvalidArgument("'authors' must be an array");
    }
    if (authors->AsArray().size() > kMaxAuthors) {
      return Status::InvalidArgument("too many authors");
    }
    for (const JsonValue& a : authors->AsArray()) {
      if (!a.is_number() || a.AsDouble() < 0) {
        return Status::InvalidArgument(
            "'authors' entries must be vertex ids");
      }
      req.authors.push_back(static_cast<VertexId>(a.AsDouble()));
    }
  }
  return req;
}

std::string QueryRequestJson(uint64_t id, const AttributedGraph& graph,
                             const KtgQuery& query, SortStrategy sort,
                             double deadline_ms, EngineMode mode) {
  JsonWriter w;
  w.BeginObject();
  w.KV("op", "query");
  w.KV("id", id);
  w.Key("keywords").BeginArray();
  for (const KeywordId kw : query.keywords) {
    // Unknown terms cannot round-trip through the vocabulary; re-encode
    // them as a term no assigner produces so the server re-derives
    // kInvalidKeyword and |W_Q| is preserved.
    if (kw == kInvalidKeyword) {
      w.Value("\x01unknown");
    } else {
      w.Value(graph.vocabulary().Term(kw));
    }
  }
  w.EndArray();
  w.KV("p", query.group_size);
  w.KV("k", static_cast<uint64_t>(query.tenuity));
  w.KV("n", query.top_n);
  if (!query.query_vertices.empty()) {
    w.Key("authors").BeginArray();
    for (const VertexId v : query.query_vertices) {
      w.Value(static_cast<uint64_t>(v));
    }
    w.EndArray();
  }
  if (deadline_ms > 0) w.KV("deadline_ms", deadline_ms);
  w.KV("algo", SortWireName(sort));
  if (mode != EngineMode::kExact) w.KV("mode", EngineModeName(mode));
  w.EndObject();
  return w.str();
}

std::string PingRequestJson(uint64_t id) {
  JsonWriter w;
  w.BeginObject().KV("op", "ping").KV("id", id).EndObject();
  return w.str();
}

std::string MetricsRequestJson(uint64_t id) {
  JsonWriter w;
  w.BeginObject().KV("op", "metrics").KV("id", id).EndObject();
  return w.str();
}

std::string MutateRequestJson(uint64_t id, const MutationBatch& batch) {
  JsonWriter w;
  w.BeginObject();
  w.KV("op", "mutate");
  w.KV("id", id);
  auto edge_array = [&w](const char* key,
                         const std::vector<std::pair<VertexId, VertexId>>&
                             edges) {
    if (edges.empty()) return;
    w.Key(key).BeginArray();
    for (const auto& [a, b] : edges) {
      w.BeginArray()
          .Value(static_cast<uint64_t>(a))
          .Value(static_cast<uint64_t>(b))
          .EndArray();
    }
    w.EndArray();
  };
  edge_array("add_edges", batch.add_edges);
  edge_array("remove_edges", batch.remove_edges);
  if (!batch.add_keywords.empty()) {
    w.Key("add_keywords").BeginArray();
    for (const auto& [v, term] : batch.add_keywords) {
      w.BeginArray().Value(static_cast<uint64_t>(v)).Value(term).EndArray();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.str();
}

std::string QueryResponseJson(uint64_t id, const AttributedGraph& graph,
                              const KtgQuery& query, const KtgResult& result,
                              const ServingInfo& serving) {
  JsonWriter w;
  BeginResponse(w, id, "ok");

  // Same shape as the CLI's `query --json` groups/stats payload.
  w.Key("groups").BeginArray();
  for (const Group& g : result.groups) {
    w.BeginObject();
    w.KV("covered", g.covered());
    w.KV("coverage", QkcRatio(g, result.query_keyword_count));
    w.Key("members").BeginArray();
    for (const VertexId v : g.members) w.Value(static_cast<uint64_t>(v));
    w.EndArray().EndObject();
  }
  w.EndArray();

  w.Key("stats").BeginObject();
  w.KV("elapsed_ms", result.stats.elapsed_ms)
      .KV("candidates", result.stats.candidates)
      .KV("nodes_expanded", result.stats.nodes_expanded)
      .KV("distance_checks", result.stats.distance_checks);
  w.EndObject();

  w.Key("serving").BeginObject();
  w.KV("queue_ms", serving.queue_ms)
      .KV("exec_ms", serving.exec_ms)
      .KV("complete", serving.complete)
      .KV("coalesced", serving.coalesced)
      .KV("gap", static_cast<int64_t>(serving.gap))
      .KV("epoch", serving.epoch);
  w.EndObject();

  w.KV("query_keywords", static_cast<uint64_t>(query.keywords.size()));
  (void)graph;
  w.EndObject();
  return w.str();
}

std::string RejectResponseJson(uint64_t id, double retry_after_ms,
                               uint64_t queue_depth) {
  JsonWriter w;
  BeginResponse(w, id, "rejected");
  w.KV("retry_after_ms", retry_after_ms);
  w.KV("queue_depth", queue_depth);
  w.EndObject();
  return w.str();
}

std::string ErrorResponseJson(uint64_t id, const std::string& message) {
  JsonWriter w;
  BeginResponse(w, id, "error");
  w.KV("message", message);
  w.EndObject();
  return w.str();
}

std::string PongResponseJson(uint64_t id) {
  JsonWriter w;
  BeginResponse(w, id, "ok");
  w.KV("pong", true);
  w.EndObject();
  return w.str();
}

std::string MetricsResponseJson(uint64_t id,
                                const std::string& metrics_json) {
  JsonWriter w;
  BeginResponse(w, id, "ok");
  w.Key("metrics").RawValue(metrics_json);
  w.EndObject();
  return w.str();
}

std::string InfoResponseJson(uint64_t id, const std::string& info_json) {
  JsonWriter w;
  BeginResponse(w, id, "ok");
  w.Key("info").RawValue(info_json);
  w.EndObject();
  return w.str();
}

std::string MutateResponseJson(uint64_t id,
                               const SnapshotStore::ApplyInfo& info) {
  JsonWriter w;
  BeginResponse(w, id, "ok");
  w.Key("mutate").BeginObject();
  w.KV("epoch", info.epoch)
      .KV("edges_added", info.edges_added)
      .KV("edges_removed", info.edges_removed)
      .KV("keywords_added", info.keywords_added)
      .KV("noop_deltas", info.noop_deltas)
      .KV("affected_vertices", info.affected_vertices)
      .KV("checker_rebuilds", info.checker_rebuilds)
      .KV("publish_ms", info.publish_ms)
      .KV("retired_live", info.retired_live);
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace ktg::server
