// Copyright (c) 2026 The ktg Authors.
// Structural validator for ktg JSON artifacts (metrics/trace/response/
// loadgen documents, and the BENCH_<n>.json perfbench ledgers). CI smoke
// jobs run it over the sidecar files they upload as artifacts, replacing
// ad-hoc grep/python assertions with the same obs/schema_check validators
// the test suites use; a ctest runs it over every committed ledger.
//
// Usage: schema_validate FILE...
//
// Each file is validated as a single JSON document when it parses as
// one; otherwise it is treated as JSON-lines (e.g. a server response
// log) and every non-empty line is validated independently. The schema
// is auto-detected from the document's "schema" member. Prints every
// problem found and exits nonzero if any file is invalid.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/schema_check.h"
#include "util/json_parse.h"

namespace {

// Validates one file; returns the number of problems found (0 = valid).
int ValidateFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();

  int problems = 0;
  auto report = [&](const std::string& where,
                    const std::vector<std::string>& found) {
    for (const std::string& p : found) {
      std::fprintf(stderr, "%s: %s\n", where.c_str(), p.c_str());
      ++problems;
    }
  };

  if (ktg::ParseJson(content).ok()) {
    report(path, ktg::obs::CheckAnyKnownSchema(content));
  } else {
    // JSON-lines fallback: a server response log is one document per line.
    std::istringstream lines(content);
    std::string line;
    int lineno = 0;
    int documents = 0;
    while (std::getline(lines, line)) {
      ++lineno;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      ++documents;
      report(path + ":" + std::to_string(lineno),
             ktg::obs::CheckAnyKnownSchema(line));
    }
    if (documents == 0) {
      std::fprintf(stderr, "%s: no JSON documents found\n", path.c_str());
      ++problems;
    }
  }
  if (problems == 0) std::printf("%s: ok\n", path.c_str());
  return problems;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s FILE...\n", argv[0]);
    return 2;
  }
  int total = 0;
  for (int i = 1; i < argc; ++i) total += ValidateFile(argv[i]);
  return total == 0 ? 0 : 1;
}
