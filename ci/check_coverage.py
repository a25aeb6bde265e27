#!/usr/bin/env python3
"""Line-coverage gate for the CI coverage job.

Walks a KTG_COVERAGE build tree for .gcda files, asks gcov for its JSON
intermediate format (no gcovr/lcov dependency), aggregates per-source-file
line coverage, and enforces the thresholds in ci/coverage_baseline.json:

  * cache_min_line_rate    — floor for src/cache/ (the PR 4 tentpole)
  * bitset_min_line_rate   — floor for src/util/bitset_ops* (the bit-parallel
                             kernel layer; both dispatch targets share these
                             sources, so the scalar CI leg keeps the floor
                             honest even when the gate machine has AVX2)
  * overall_min_line_rate  — ratchet for all of src/ (non-regression:
                             update the baseline when coverage rises,
                             never lower it to make a build pass)

A line counts as covered if any test binary executed it. The merged
per-file report is written to --report for artifact upload.

Usage:
  python3 ci/check_coverage.py --build-dir build-cov [--report out.json]
  python3 ci/check_coverage.py --build-dir build-cov --update-baseline
"""

import argparse
import gzip
import json
import os
import subprocess
import sys

SOURCE_PREFIX = "src/"
CACHE_PREFIX = "src/cache/"
BITSET_PREFIX = "src/util/bitset_ops"


def find_gcda(build_dir):
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                yield os.path.join(root, name)


def gcov_json(gcda, gcov_tool):
    """Returns the parsed gcov JSON document for one .gcda file."""
    cmd = gcov_tool + ["--json-format", "--stdout", "--branch-probabilities",
                       os.path.basename(gcda)]
    proc = subprocess.run(cmd, cwd=os.path.dirname(gcda),
                          capture_output=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"gcov failed on {gcda}: {proc.stderr.decode(errors='replace')}")
    out = proc.stdout
    if out[:2] == b"\x1f\x8b":  # some gcov builds gzip even on stdout
        out = gzip.decompress(out)
    # One JSON document per line (gcov emits one per .gcda processed).
    docs = []
    for line in out.splitlines():
        line = line.strip()
        if line:
            docs.append(json.loads(line))
    return docs


def relativize(path, source_root):
    path = os.path.normpath(os.path.join(source_root, path)
                            if not os.path.isabs(path) else path)
    root = os.path.normpath(os.path.abspath(source_root)) + os.sep
    path = os.path.abspath(path)
    if not path.startswith(root):
        return None
    return os.path.relpath(path, root).replace(os.sep, "/")


def collect(build_dir, source_root, gcov_tool):
    """Merges line hit counts across all translation units, per file."""
    per_file = {}  # rel path -> {line_number: hit_anywhere}
    gcda_files = list(find_gcda(build_dir))
    if not gcda_files:
        sys.exit(f"error: no .gcda files under {build_dir}; "
                 "configure with -DKTG_COVERAGE=ON and run ctest first")
    for gcda in gcda_files:
        for doc in gcov_json(gcda, gcov_tool):
            for f in doc.get("files", []):
                rel = relativize(f["file"], source_root)
                if rel is None or not rel.startswith(SOURCE_PREFIX):
                    continue
                lines = per_file.setdefault(rel, {})
                for ln in f.get("lines", []):
                    no = ln["line_number"]
                    lines[no] = lines.get(no, False) or ln["count"] > 0
    return per_file


def line_rate(per_file, prefix):
    total = covered = 0
    for path, lines in per_file.items():
        if not path.startswith(prefix):
            continue
        total += len(lines)
        covered += sum(1 for hit in lines.values() if hit)
    return (covered / total if total else 0.0), covered, total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--source-root", default=".")
    ap.add_argument("--baseline", default="ci/coverage_baseline.json")
    ap.add_argument("--report", default="coverage_report.json")
    ap.add_argument("--gcov", default="gcov",
                    help='gcov driver, e.g. "gcov" or "llvm-cov gcov"')
    ap.add_argument("--update-baseline", action="store_true")
    args = ap.parse_args()

    per_file = collect(args.build_dir, args.source_root, args.gcov.split())

    report = {}
    for path in sorted(per_file):
        rate, covered, total = line_rate(per_file, path)
        report[path] = {"line_rate": round(rate, 4),
                        "covered": covered, "lines": total}
    overall, o_cov, o_tot = line_rate(per_file, SOURCE_PREFIX)
    cache, c_cov, c_tot = line_rate(per_file, CACHE_PREFIX)
    bitset, b_cov, b_tot = line_rate(per_file, BITSET_PREFIX)

    with open(args.report, "w") as fh:
        json.dump({"overall": {"line_rate": round(overall, 4),
                               "covered": o_cov, "lines": o_tot},
                   "cache": {"line_rate": round(cache, 4),
                             "covered": c_cov, "lines": c_tot},
                   "bitset_ops": {"line_rate": round(bitset, 4),
                                  "covered": b_cov, "lines": b_tot},
                   "files": report}, fh, indent=2)
        fh.write("\n")

    width = max((len(p) for p in report), default=10)
    for path, r in report.items():
        print(f"{path:<{width}}  {100 * r['line_rate']:6.1f}%  "
              f"({r['covered']}/{r['lines']})")
    print(f"{'src/ overall':<{width}}  {100 * overall:6.1f}%  "
          f"({o_cov}/{o_tot})")
    print(f"{'src/cache/':<{width}}  {100 * cache:6.1f}%  "
          f"({c_cov}/{c_tot})")
    print(f"{'src/util/bitset_ops*':<{width}}  {100 * bitset:6.1f}%  "
          f"({b_cov}/{b_tot})")

    if args.update_baseline:
        with open(args.baseline, "w") as fh:
            json.dump({"cache_min_line_rate": 0.90,
                       "bitset_min_line_rate": 0.90,
                       # Ratchet: floor slightly under the measured rate so
                       # unrelated refactors don't flake, but regressions trip.
                       "overall_min_line_rate": round(overall - 0.02, 4)},
                      fh, indent=2)
            fh.write("\n")
        print(f"baseline written to {args.baseline}")
        return

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    failures = []
    if cache < baseline["cache_min_line_rate"]:
        failures.append(f"src/cache/ line rate {cache:.3f} < "
                        f"{baseline['cache_min_line_rate']} floor")
    if bitset < baseline.get("bitset_min_line_rate", 0.0):
        failures.append(f"src/util/bitset_ops* line rate {bitset:.3f} < "
                        f"{baseline['bitset_min_line_rate']} floor")
    if overall < baseline["overall_min_line_rate"]:
        failures.append(f"src/ line rate {overall:.3f} < "
                        f"{baseline['overall_min_line_rate']} baseline")
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        sys.exit(1)
    print("coverage gate passed")


if __name__ == "__main__":
    main()
