// Copyright (c) 2026 The ktg Authors.

#include "obs/schema_check.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <map>

#include "obs/phases.h"
#include "util/json_parse.h"

namespace ktg::obs {
namespace {

void Note(std::vector<std::string>& problems, std::string msg) {
  problems.push_back(std::move(msg));
}

/// Parses and checks the top-level envelope every ktg document shares:
/// an object whose "schema" member equals `schema`. Returns the parsed
/// document, or nullopt after noting the problem.
Result<JsonValue> ParseEnvelope(std::string_view json,
                                const std::string& schema,
                                std::vector<std::string>& problems) {
  auto doc = ParseJson(json);
  if (!doc.ok()) {
    Note(problems, "not valid JSON: " + doc.status().ToString());
    return doc.status();
  }
  if (!doc->is_object()) {
    Note(problems, "top level is not an object");
    return Status::InvalidArgument("not an object");
  }
  const JsonValue* s = doc->Find("schema");
  if (s == nullptr || !s->is_string()) {
    Note(problems, "missing string member 'schema'");
  } else if (s->AsString() != schema) {
    Note(problems, "schema is '" + s->AsString() + "', want '" + schema + "'");
  }
  return doc;
}

void RequireNumber(const JsonValue& obj, const std::string& where,
                   const std::string& key,
                   std::vector<std::string>& problems) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) {
    Note(problems, where + " lacks numeric member '" + key + "'");
  }
}

/// counters/gauges: an object whose every member is a number.
void CheckNumericMap(const JsonValue& doc, const std::string& key,
                     std::vector<std::string>& problems) {
  const JsonValue* map = doc.Find(key);
  if (map == nullptr || !map->is_object()) {
    Note(problems, "missing object member '" + key + "'");
    return;
  }
  for (const auto& [name, value] : map->AsObject()) {
    if (!value.is_number()) {
      Note(problems, key + "." + name + " is not a number");
    }
  }
}

/// True iff `name` is a histogram key the phase breakdown may legally
/// emit: "phase.<known phase>_ms". Engines derive these from
/// obs::PhaseName, so any other phase.* key is a typo or a phase someone
/// forgot to register here.
bool IsKnownPhaseKey(const std::string& name) {
  for (int i = 0; i < kNumPhases; ++i) {
    const std::string want =
        std::string("phase.") + PhaseName(static_cast<Phase>(i)) + "_ms";
    if (name == want) return true;
  }
  return false;
}

}  // namespace

std::vector<std::string> CheckMetricsV1(std::string_view json) {
  std::vector<std::string> problems;
  auto doc = ParseEnvelope(json, "ktg.metrics.v1", problems);
  if (!doc.ok()) return problems;

  CheckNumericMap(*doc, "counters", problems);
  CheckNumericMap(*doc, "gauges", problems);

  const JsonValue* hists = doc->Find("histograms");
  if (hists == nullptr || !hists->is_object()) {
    Note(problems, "missing object member 'histograms'");
    return problems;
  }
  for (const auto& [name, h] : hists->AsObject()) {
    if (!h.is_object()) {
      Note(problems, "histograms." + name + " is not an object");
      continue;
    }
    if (name.starts_with("phase.") && !IsKnownPhaseKey(name)) {
      Note(problems, "histograms." + name + " is not a known phase key");
    }
    for (const char* key :
         {"count", "mean", "min", "max", "p50", "p90", "p99", "sum"}) {
      RequireNumber(h, "histograms." + name, key, problems);
    }
  }
  return problems;
}

std::vector<std::string> CheckTraceV1(std::string_view json) {
  std::vector<std::string> problems;
  auto doc = ParseEnvelope(json, "ktg.trace.v1", problems);
  if (!doc.ok()) return problems;

  for (const char* key : {"capacity", "recorded", "dropped"}) {
    RequireNumber(*doc, "trace", key, problems);
  }
  const JsonValue* events = doc->Find("events");
  if (events == nullptr || !events->is_array()) {
    Note(problems, "missing array member 'events'");
    return problems;
  }
  size_t i = 0;
  for (const JsonValue& e : events->AsArray()) {
    const std::string where = "events[" + std::to_string(i++) + "]";
    if (!e.is_object()) {
      Note(problems, where + " is not an object");
      continue;
    }
    for (const char* key : {"t_ms", "depth", "vertex", "detail"}) {
      RequireNumber(e, where, key, problems);
    }
    const JsonValue* kind = e.Find("kind");
    if (kind == nullptr || !kind->is_string()) {
      Note(problems, where + " lacks string member 'kind'");
    }
  }
  return problems;
}

std::vector<std::string> CheckResponseV1(std::string_view json) {
  std::vector<std::string> problems;
  auto doc = ParseEnvelope(json, "ktg.response.v1", problems);
  if (!doc.ok()) return problems;

  RequireNumber(*doc, "response", "id", problems);
  const JsonValue* status = doc->Find("status");
  if (status == nullptr || !status->is_string()) {
    Note(problems, "missing string member 'status'");
    return problems;
  }
  const std::string& s = status->AsString();
  if (s == "ok") {
    // ping/metrics/info "ok" responses carry their own payload member; a
    // query "ok" carries groups + stats + serving.
    const JsonValue* groups = doc->Find("groups");
    if (groups == nullptr) {
      if (doc->Find("pong") == nullptr && doc->Find("metrics") == nullptr &&
          doc->Find("info") == nullptr) {
        Note(problems, "'ok' carries neither groups, pong, metrics nor info");
      }
      return problems;
    }
    if (!groups->is_array()) {
      Note(problems, "'groups' is not an array");
      return problems;
    }
    size_t i = 0;
    for (const JsonValue& g : groups->AsArray()) {
      const std::string where = "groups[" + std::to_string(i++) + "]";
      if (!g.is_object()) {
        Note(problems, where + " is not an object");
        continue;
      }
      RequireNumber(g, where, "covered", problems);
      RequireNumber(g, where, "coverage", problems);
      const JsonValue* members = g.Find("members");
      if (members == nullptr || !members->is_array() ||
          members->AsArray().empty()) {
        Note(problems, where + " lacks a non-empty 'members' array");
      }
    }
    const JsonValue* stats = doc->Find("stats");
    if (stats == nullptr || !stats->is_object()) {
      Note(problems, "query 'ok' lacks object member 'stats'");
    } else {
      for (const char* key :
           {"elapsed_ms", "candidates", "nodes_expanded", "distance_checks"}) {
        RequireNumber(*stats, "stats", key, problems);
      }
    }
    const JsonValue* serving = doc->Find("serving");
    if (serving == nullptr || !serving->is_object()) {
      Note(problems, "query 'ok' lacks object member 'serving'");
    } else {
      RequireNumber(*serving, "serving", "queue_ms", problems);
      RequireNumber(*serving, "serving", "exec_ms", problems);
      RequireNumber(*serving, "serving", "gap", problems);
      const JsonValue* complete = serving->Find("complete");
      if (complete == nullptr || !complete->is_bool()) {
        Note(problems, "serving lacks boolean member 'complete'");
      }
    }
  } else if (s == "rejected") {
    RequireNumber(*doc, "rejected response", "retry_after_ms", problems);
    RequireNumber(*doc, "rejected response", "queue_depth", problems);
  } else if (s == "timeout") {
    RequireNumber(*doc, "timeout response", "waited_ms", problems);
  } else if (s == "error") {
    const JsonValue* msg = doc->Find("message");
    if (msg == nullptr || !msg->is_string()) {
      Note(problems, "error response lacks string member 'message'");
    }
  } else {
    Note(problems, "unknown status '" + s + "'");
  }
  return problems;
}

std::vector<std::string> CheckLoadgenV1(std::string_view json) {
  std::vector<std::string> problems;
  auto doc = ParseEnvelope(json, "ktg.loadgen.v1", problems);
  if (!doc.ok()) return problems;

  for (const char* key :
       {"sent", "completed", "coalesced", "incomplete", "rejected", "retried",
        "timeouts", "errors", "checked", "mismatches", "mutations_sent",
        "mutations_applied", "mutations_failed", "final_epoch", "wall_s",
        "qps"}) {
    RequireNumber(*doc, "loadgen report", key, problems);
  }
  const JsonValue* lat = doc->Find("latency_ms");
  if (lat == nullptr || !lat->is_object()) {
    Note(problems, "missing object member 'latency_ms'");
    return problems;
  }
  for (const char* key :
       {"count", "mean", "min", "max", "p50", "p90", "p95", "p99"}) {
    RequireNumber(*lat, "latency_ms", key, problems);
  }
  return problems;
}

namespace {

// Quantile q of sorted `v` by linear interpolation between order
// statistics (position q * (n - 1)).
double Quantile(const std::vector<double>& v, double q) {
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

void CheckBenchSide(const JsonValue& side, const std::string& where,
                    std::vector<std::string>& problems) {
  const JsonValue* runs = side.Find("runs");
  if (runs == nullptr || !runs->is_array() || runs->AsArray().empty()) {
    Note(problems, where + " lacks a non-empty array 'runs'");
    return;
  }
  std::map<std::string, std::vector<double>> values;
  for (size_t i = 0; i < runs->AsArray().size(); ++i) {
    const JsonValue& run = runs->AsArray()[i];
    const std::string at = where + ".runs[" + std::to_string(i) + "]";
    if (!run.is_object()) {
      Note(problems, at + " is not an object");
      continue;
    }
    for (const char* key : {"seed", "attempted", "failed"}) {
      RequireNumber(run, at, key, problems);
    }
    const JsonValue* correct = run.Find("correct");
    if (correct == nullptr || !correct->is_bool()) {
      Note(problems, at + " lacks boolean member 'correct'");
    }
    const JsonValue* metrics = run.Find("metrics");
    if (metrics == nullptr || !metrics->is_object()) {
      Note(problems, at + " lacks object member 'metrics'");
      continue;
    }
    for (const auto& [name, value] : metrics->AsObject()) {
      if (!value.is_number()) {
        Note(problems, at + ".metrics." + name + " is not a number");
        continue;
      }
      values[name].push_back(value.AsDouble());
    }
  }
  const JsonValue* summary = side.Find("summary");
  if (summary == nullptr || !summary->is_object()) {
    Note(problems, where + " lacks object member 'summary'");
    return;
  }
  for (const auto& [name, entry] : summary->AsObject()) {
    if (values.find(name) == values.end()) {
      Note(problems, where + ".summary." + name + " has no runs");
    }
  }
  for (auto& [name, v] : values) {
    const std::string at = where + ".summary." + name;
    const JsonValue* entry = summary->Find(name);
    if (entry == nullptr || !entry->is_object()) {
      Note(problems, at + " is missing");
      continue;
    }
    std::sort(v.begin(), v.end());
    const double median = Quantile(v, 0.5);
    const double spread =
        median == 0.0 ? 0.0
                      : (Quantile(v, 0.75) - Quantile(v, 0.25)) / median;
    const std::pair<const char*, double> want[] = {
        {"n", static_cast<double>(v.size())},
        {"min", v.front()},
        {"median", median},
        {"rel_spread", spread}};
    for (const auto& [key, expected] : want) {
      const JsonValue* got = entry->Find(key);
      if (got == nullptr || !got->is_number()) {
        Note(problems, at + " lacks numeric member '" + key + "'");
      } else if (!Near(got->AsDouble(), expected)) {
        Note(problems, at + "." + key + " is " +
                           std::to_string(got->AsDouble()) +
                           ", the runs give " + std::to_string(expected));
      }
    }
  }
}

}  // namespace

std::vector<std::string> CheckBenchV1(std::string_view json) {
  std::vector<std::string> problems;
  auto doc = ParseEnvelope(json, "ktg.bench.v1", problems);
  if (!doc.ok()) return problems;

  const JsonValue* command = doc->Find("command");
  if (command == nullptr || !command->is_string()) {
    Note(problems, "missing string member 'command'");
  }
  RequireNumber(*doc, "ledger", "nproc", problems);
  for (const char* side : {"parent", "change"}) {
    const JsonValue* v = doc->Find(side);
    const JsonValue* commit = v == nullptr ? nullptr : v->Find("commit");
    if (commit == nullptr || !commit->is_string()) {
      Note(problems, std::string(side) + " lacks string member 'commit'");
    }
  }
  const JsonValue* workloads = doc->Find("workloads");
  if (workloads == nullptr || !workloads->is_object() ||
      workloads->AsObject().empty()) {
    Note(problems, "missing non-empty object member 'workloads'");
    return problems;
  }
  for (const auto& [name, workload] : workloads->AsObject()) {
    for (const char* side : {"parent", "change"}) {
      const std::string where = "workloads." + name + "." + side;
      const JsonValue* v = workload.Find(side);
      if (v == nullptr || !v->is_object()) {
        Note(problems, where + " is missing");
        continue;
      }
      CheckBenchSide(*v, where, problems);
    }
  }
  return problems;
}

std::vector<std::string> CheckAnyKnownSchema(std::string_view json) {
  std::vector<std::string> problems;
  auto doc = ParseJson(json);
  if (!doc.ok()) {
    Note(problems, "not valid JSON: " + doc.status().ToString());
    return problems;
  }
  const JsonValue* s = doc->is_object() ? doc->Find("schema") : nullptr;
  if (s == nullptr || !s->is_string()) {
    Note(problems, "document carries no string 'schema' member");
    return problems;
  }
  const std::string& schema = s->AsString();
  if (schema == "ktg.metrics.v1") return CheckMetricsV1(json);
  if (schema == "ktg.trace.v1") return CheckTraceV1(json);
  if (schema == "ktg.response.v1") return CheckResponseV1(json);
  if (schema == "ktg.loadgen.v1") return CheckLoadgenV1(json);
  if (schema == "ktg.bench.v1") return CheckBenchV1(json);
  Note(problems, "unknown schema '" + schema + "'");
  return problems;
}

}  // namespace ktg::obs
