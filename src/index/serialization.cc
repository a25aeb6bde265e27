// Copyright (c) 2026 The ktg Authors.

#include "index/serialization.h"

#include <cstdint>
#include <fstream>
#include <span>
#include <vector>

namespace ktg {
namespace {

constexpr uint32_t kMagic = 0x4b544749;  // "KTGI"
constexpr uint32_t kVersion = 1;
constexpr uint8_t kKindNl = 1;
constexpr uint8_t kKindNlrnl = 2;

// FNV-1a over the serialized byte stream.
class Checksum {
 public:
  void Feed(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

class Writer {
 public:
  explicit Writer(const std::string& path) : out_(path, std::ios::binary) {}

  bool ok() const { return static_cast<bool>(out_); }

  void Raw(const void* data, size_t len) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(len));
    checksum_.Feed(data, len);
  }
  void U8(uint8_t v) { Raw(&v, sizeof v); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void Ids(std::span<const VertexId> v) {
    U64(v.size());
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(VertexId));
  }
  void Levels(const std::vector<std::vector<VertexId>>& levels) {
    U64(levels.size());
    for (const auto& level : levels) Ids(level);
  }

  // Appends the checksum (not itself checksummed) and flushes.
  Status Finish(const std::string& path) {
    const uint64_t sum = checksum_.value();
    out_.write(reinterpret_cast<const char*>(&sum), sizeof sum);
    out_.flush();
    if (!out_) return Status::IoError("failed writing index file: " + path);
    return Status::OK();
  }

 private:
  std::ofstream out_;
  Checksum checksum_;
};

class Reader {
 public:
  explicit Reader(const std::string& path)
      : path_(path), in_(path, std::ios::binary | std::ios::ate) {
    if (in_) {
      remaining_ = static_cast<uint64_t>(in_.tellg());
      in_.seekg(0);
    }
  }

  bool open() const { return static_cast<bool>(in_); }
  bool failed() const { return failed_; }
  // Bytes left in the file after what has been read.
  uint64_t remaining() const { return remaining_; }

  void Raw(void* data, size_t len) {
    if (failed_) return;
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
    if (in_.gcount() != static_cast<std::streamsize>(len)) {
      failed_ = true;
      return;
    }
    remaining_ -= len;
    checksum_.Feed(data, len);
  }
  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  std::vector<VertexId> Ids(uint64_t max_size) {
    std::vector<VertexId> v;
    const uint64_t n = U64();
    if (failed_ || n > max_size) {
      failed_ = true;
      return v;
    }
    v.resize(n);
    if (n > 0) Raw(v.data(), n * sizeof(VertexId));
    return v;
  }
  std::vector<std::vector<VertexId>> Levels(uint64_t max_levels,
                                            uint64_t max_ids) {
    std::vector<std::vector<VertexId>> levels;
    const uint64_t n = U64();
    if (failed_ || n > max_levels) {
      failed_ = true;
      return levels;
    }
    levels.reserve(n);
    for (uint64_t i = 0; i < n && !failed_; ++i) {
      levels.push_back(Ids(max_ids));
    }
    return levels;
  }

  // Reads the trailing checksum (not checksummed) and compares.
  Status VerifyChecksum() {
    if (failed_) return Status::IoError(path_ + ": truncated index file");
    const uint64_t expected = checksum_.value();
    uint64_t stored = 0;
    in_.read(reinterpret_cast<char*>(&stored), sizeof stored);
    if (in_.gcount() != sizeof stored) {
      return Status::IoError(path_ + ": missing checksum");
    }
    if (stored != expected) {
      return Status::IoError(path_ + ": checksum mismatch (corrupt file)");
    }
    return Status::OK();
  }

 private:
  std::string path_;
  std::ifstream in_;
  Checksum checksum_;
  uint64_t remaining_ = 0;
  bool failed_ = false;
};

void WriteGraph(Writer& w, const Graph& g) {
  w.U32(g.num_vertices());
  const auto edges = g.EdgeList();
  w.U64(edges.size());
  for (const auto& [u, v] : edges) {
    w.U32(u);
    w.U32(v);
  }
}

// Reads the graph section of an index whose per-vertex records take at
// least `min_vertex_bytes` each. A vertex or edge count the rest of the file
// cannot hold is refused before anything is allocated for it.
Result<Graph> ReadGraph(Reader& r, uint64_t min_vertex_bytes,
                        const std::string& path) {
  const uint32_t n = r.U32();
  const uint64_t m = r.U64();
  if (r.failed() || m > (static_cast<uint64_t>(n) * n) / 2 + 1) {
    return Status::IoError(path + ": corrupt graph header");
  }
  if (m > r.remaining() / 8 ||
      n * min_vertex_bytes > r.remaining() - m * 8) {
    return Status::IoError(path + ": graph header exceeds the file size");
  }
  GraphBuilder builder(n);
  for (uint64_t i = 0; i < m; ++i) {
    const uint32_t u = r.U32();
    const uint32_t v = r.U32();
    if (r.failed()) return Status::IoError(path + ": truncated edge list");
    if (u >= n || v >= n) return Status::IoError(path + ": edge out of range");
    builder.AddEdge(u, v);
  }
  return builder.Build();
}

Status CheckHeader(Reader& r, uint8_t expected_kind, const std::string& path) {
  if (!r.open()) return Status::IoError("cannot open index file: " + path);
  if (r.U32() != kMagic) {
    return Status::InvalidArgument(path + ": not a ktg index file");
  }
  const uint32_t version = r.U32();
  if (version != kVersion) {
    return Status::InvalidArgument(path + ": unsupported format version " +
                                   std::to_string(version));
  }
  const uint8_t kind = r.U8();
  if (kind != expected_kind) {
    return Status::InvalidArgument(path + ": wrong index kind");
  }
  return Status::OK();
}

}  // namespace

Status SaveNlIndex(const NlIndex& index, const std::string& path) {
  Writer w(path);
  if (!w.ok()) return Status::IoError("cannot create index file: " + path);
  w.U32(kMagic);
  w.U32(kVersion);
  w.U8(kKindNl);
  WriteGraph(w, index.graph_);
  w.U32(index.options_.max_stored_hops);
  w.U8(index.options_.memoize_expansions ? 1 : 0);
  const uint32_t n = index.graph_.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    w.Levels(index.lists_[v].levels);
    w.U8(index.lists_[v].exhausted ? 1 : 0);
    w.U32(index.base_h_[v]);
  }
  return w.Finish(path);
}

Result<NlIndex> LoadNlIndex(const std::string& path) {
  Reader r(path);
  KTG_RETURN_IF_ERROR(CheckHeader(r, kKindNl, path));
  // Per vertex: level count (8), exhausted flag (1), base h (4).
  auto graph = ReadGraph(r, /*min_vertex_bytes=*/13, path);
  if (!graph.ok()) return graph.status();

  NlIndex index;
  index.graph_ = std::move(graph).value();
  index.options_.max_stored_hops = r.U32();
  index.options_.memoize_expansions = (r.U8() != 0);
  const uint32_t n = index.graph_.num_vertices();
  index.lists_.resize(n);
  index.base_h_.assign(n, 0);
  for (VertexId v = 0; v < n && !r.failed(); ++v) {
    index.lists_[v].levels = r.Levels(/*max_levels=*/1 << 20, n);
    index.lists_[v].exhausted = (r.U8() != 0);
    index.base_h_[v] = r.U32();
  }
  KTG_RETURN_IF_ERROR(r.VerifyChecksum());
  return index;
}

Status SaveNlrnlIndex(const NlrnlIndex& index, const std::string& path) {
  Writer w(path);
  if (!w.ok()) return Status::IoError("cannot create index file: " + path);
  w.U32(kMagic);
  w.U32(kVersion);
  w.U8(kKindNlrnl);
  WriteGraph(w, index.graph_);
  w.U32(index.options_.max_c);
  const uint32_t n = index.graph_.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    // The packed entry is written as the c, forward-levels, reverse-levels
    // stream of format version 1.
    const uint32_t* entry = index.entries_[v].get();
    const uint32_t nf = entry[1];
    const uint32_t nr = entry[2];
    w.U32(entry[0]);
    w.U64(nf);
    for (uint32_t i = 0; i < nf; ++i) w.Ids(NlrnlIndex::Level(entry, i));
    w.U64(nr);
    for (uint32_t i = nf; i < nf + nr; ++i) {
      w.Ids(NlrnlIndex::Level(entry, i));
    }
  }
  return w.Finish(path);
}

Result<NlrnlIndex> LoadNlrnlIndex(const std::string& path) {
  Reader r(path);
  KTG_RETURN_IF_ERROR(CheckHeader(r, kKindNlrnl, path));
  // Per vertex: c (4), forward and reverse level counts (8 each).
  auto graph = ReadGraph(r, /*min_vertex_bytes=*/20, path);
  if (!graph.ok()) return graph.status();

  NlrnlIndex index;
  index.graph_ = std::move(graph).value();
  index.options_.max_c = r.U32();
  const uint32_t n = index.graph_.num_vertices();
  index.entries_.resize(n);
  for (VertexId v = 0; v < n && !r.failed(); ++v) {
    const uint32_t c = r.U32();
    auto levels = r.Levels(/*max_levels=*/1 << 20, n);
    const auto nf = static_cast<uint32_t>(levels.size());
    for (auto& level : r.Levels(/*max_levels=*/1 << 20, n)) {
      levels.push_back(std::move(level));
    }
    const std::vector<std::span<const VertexId>> spans(levels.begin(),
                                                       levels.end());
    index.entries_[v] = NlrnlIndex::Pack(c, nf, spans);
  }
  KTG_RETURN_IF_ERROR(r.VerifyChecksum());
  // Component labels are derived state; recompute rather than store.
  index.RefreshComponents();
  return index;
}

}  // namespace ktg
