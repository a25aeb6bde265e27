// Copyright (c) 2026 The ktg Authors.
// Binary persistence for the NL and NLRNL indexes.
//
// Building either index costs a full BFS from every vertex (minutes at the
// paper's dataset sizes), so production deployments build once and reload.
// The format is a little-endian binary stream:
//
//   [magic u32][format version u32][kind u8][graph: n, m, edge pairs]
//   [per-vertex payload][FNV-1a checksum u64 over everything before it]
//
// Readers validate magic, version, kind and checksum and return a Status
// instead of crashing on truncated or corrupt files; a vertex or edge count
// the file is too short to hold is refused before anything is allocated.
// The graph topology is embedded so a loaded index is self-consistent
// (NL/NLRNL own their graph copy for dynamic updates).

#ifndef KTG_INDEX_SERIALIZATION_H_
#define KTG_INDEX_SERIALIZATION_H_

#include <string>

#include "index/nl_index.h"
#include "index/nlrnl_index.h"
#include "util/status.h"

namespace ktg {

/// Writes `index` (including its graph copy) to `path`.
Status SaveNlIndex(const NlIndex& index, const std::string& path);

/// Reads an NL index previously written by SaveNlIndex. The returned index
/// answers exactly like the saved one (memoized expansions included).
Result<NlIndex> LoadNlIndex(const std::string& path);

/// Writes `index` to `path`.
Status SaveNlrnlIndex(const NlrnlIndex& index, const std::string& path);

/// Reads an NLRNL index previously written by SaveNlrnlIndex.
Result<NlrnlIndex> LoadNlrnlIndex(const std::string& path);

}  // namespace ktg

#endif  // KTG_INDEX_SERIALIZATION_H_
