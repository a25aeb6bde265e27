// Copyright (c) 2026 The ktg Authors.

#include "graph/graph_io.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ktg {
namespace {

// Parses one edge line into (u, v). Returns false for blank/comment lines,
// an error status for malformed ones.
enum class LineKind { kEdge, kSkip, kError };

LineKind ParseLine(const std::string& line, uint64_t* u, uint64_t* v) {
  size_t i = 0;
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
    ++i;
  if (i == line.size() || line[i] == '#' || line[i] == '%') {
    return LineKind::kSkip;
  }

  char* end = nullptr;
  *u = std::strtoull(line.c_str() + i, &end, 10);
  if (end == line.c_str() + i) return LineKind::kError;
  const char* p = end;
  while (*p && std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (!*p) return LineKind::kError;
  *v = std::strtoull(p, &end, 10);
  if (end == p) return LineKind::kError;
  return LineKind::kEdge;
}

// The CSR offsets are sized by the largest vertex id, so an id far beyond
// what the edges read can touch would allocate for nothing (one line
// "0 4294967294" asks for 32 GB). Ids up to twice the edge count plus this
// slack pass: sparse SNAP-style ids do (web-Google: largest id 916k, 5.1M
// edges).
constexpr uint64_t kSparseIdSlack = uint64_t{1} << 16;

Result<Graph> ParseStream(std::istream& in, const std::string& origin) {
  GraphBuilder builder;
  std::string line;
  uint64_t line_no = 0;
  uint64_t edges = 0;
  uint64_t max_id = 0;
  while (std::getline(in, line)) {
    ++line_no;
    uint64_t u = 0, v = 0;
    switch (ParseLine(line, &u, &v)) {
      case LineKind::kSkip:
        continue;
      case LineKind::kError:
        return Status::InvalidArgument(origin + ": malformed edge at line " +
                                       std::to_string(line_no) + ": '" +
                                       line + "'");
      case LineKind::kEdge:
        if (u > kInvalidVertex - 1 || v > kInvalidVertex - 1) {
          return Status::OutOfRange(origin +
                                    ": vertex id exceeds 32 bits at line " +
                                    std::to_string(line_no));
        }
        builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
        ++edges;
        max_id = std::max({max_id, u, v});
        break;
    }
  }
  if (max_id >= 2 * edges + kSparseIdSlack) {
    return Status::OutOfRange(origin + ": vertex id " +
                              std::to_string(max_id) + " is far beyond what " +
                              std::to_string(edges) + " edges can touch");
  }
  return builder.Build();
}

}  // namespace

Result<Graph> LoadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open edge list: " + path);
  return ParseStream(in, path);
}

Result<Graph> ParseEdgeList(const std::string& text) {
  std::istringstream in(text);
  return ParseStream(in, "<string>");
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot create edge list: " + path);
  out << "# ktg edge list: " << graph.num_vertices() << " vertices, "
      << graph.num_edges() << " edges\n";
  for (const auto& [u, v] : graph.EdgeList()) {
    out << u << ' ' << v << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("failed writing edge list: " + path);
  return Status::OK();
}

}  // namespace ktg
