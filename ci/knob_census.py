#!/usr/bin/env python3
"""Counts the configuration knobs a checkout exposes.

    python3 ci/knob_census.py [--root DIR] [--list]

A knob is anything a user can set without editing code. Four kinds are
counted, each by a fixed textual rule so the count compares between
checkouts:

  fields  data members of every struct or class named *Options declared in
          a header under src/ (one per member name and struct); a nested
          one is qualified by its enclosing classes
          (SnapshotStore::Options::checker);
  flags   (command, flag) pairs the CLI accepts: the allow-lists of the
          command registry in src/cli/commands.cc;
  env     distinct names read with getenv() by C++ code, or with
          os.environ / os.getenv by Python code, under src/, bench/,
          tools/, examples/, perfbench/ and ci/;
  cmake   option() and CACHE variables declared by the CMakeLists.txt
          files (build trees excluded).

Prints one line per kind and the total; --list prints every knob too.
Compile-time constants are not knobs and are not counted.
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "bench", "tools", "examples", "perfbench", "ci")
SKIP_DIRS = {".git", ".bench_build", "__pycache__"}

MEMBER = re.compile(
    r"^\s*(?:const\s+)?[\w:<>,\s\*&]+?[\s\*&](\w+)\s*(?:=[^;]*|\{[^;]*\})?;")
NOT_MEMBER = re.compile(r"^\s*(static|using|friend|return|typedef|enum)\b")


def walk(root, dirs, suffixes):
    for top in dirs:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in SKIP_DIRS
                                 and not d.startswith("build"))
            for name in sorted(filenames):
                if name.endswith(suffixes):
                    yield os.path.join(dirpath, name)


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def enclosing_classes(text, pos):
    """Names of the structs and classes whose bodies contain `pos`,
    outermost first."""
    stack, head = [], 0
    for i in range(pos):
        ch = text[i]
        if ch == "{":
            # A class body opens after "struct|class Name ..." with no
            # parameter list in between; any other brace names nothing.
            m = re.match(r".*\b(?:struct|class)\s+(\w+)[^()]*$",
                         text[head:i], flags=re.S)
            stack.append(m.group(1) if m else None)
        elif ch == "}" and stack:
            stack.pop()
        if ch in "{};":
            head = i + 1
    return [name for name in stack if name]


def option_fields(root):
    knobs = []
    for path in walk(root, ("src",), (".h",)):
        text = strip_comments(open(path, encoding="utf-8").read())
        for m in re.finditer(r"\b(?:struct|class)\s+(\w*Options)\b[^;{]*\{",
                             text):
            name = "::".join(enclosing_classes(text, m.start()) +
                             [m.group(1)])
            # The body at depth 1; nested braces (initializers, inline
            # bodies) are kept as an empty pair.
            depth, i, body = 1, m.end(), []
            while i < len(text) and depth > 0:
                ch = text[i]
                if ch == "{":
                    depth += 1
                    if depth == 2:
                        body.append("{")
                elif ch == "}":
                    depth -= 1
                    if depth == 1:
                        body.append("}")
                elif depth == 1:
                    body.append(ch)
                i += 1
            for decl in "".join(body).split(";"):
                decl = " ".join(decl.split())
                decl = re.sub(r"^(public|private|protected):\s*", "", decl)
                if not decl or "(" in decl or NOT_MEMBER.match(decl):
                    continue
                mm = MEMBER.match(decl + ";")
                if mm:
                    knobs.append(f"{name}::{mm.group(1)}")
    return sorted(set(knobs))


def cli_flags(root):
    path = os.path.join(root, "src", "cli", "commands.cc")
    if not os.path.exists(path):
        return []
    text = strip_comments(open(path, encoding="utf-8").read())
    knobs = []
    # Each registry entry: {"name", &Cmd..., "usage"..., {"flag", ...}}
    for m in re.finditer(r'\{"([\w-]+)",\s*&Cmd\w+,(.*?)\{([^{}]*)\}\}',
                         text, flags=re.S):
        for flag in re.findall(r'"([\w-]+)"', m.group(3)):
            knobs.append(f"{m.group(1)} --{flag}")
    return sorted(set(knobs))


def env_names(root):
    names = set()
    for path in walk(root, SCAN_DIRS, (".cc", ".h", ".py")):
        text = open(path, encoding="utf-8").read()
        if path.endswith(".py"):
            pats = (r'os\.environ(?:\.get)?[\[\(]\s*"(\w+)"',
                    r'os\.getenv\(\s*"(\w+)"')
        else:
            pats = (r'getenv\(\s*"(\w+)"',)
        for pat in pats:
            names.update(re.findall(pat, text))
    return sorted(names)


def cmake_knobs(root):
    knobs = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in SKIP_DIRS and not d.startswith("build"))
        if "CMakeLists.txt" not in filenames:
            continue
        text = open(os.path.join(dirpath, "CMakeLists.txt"),
                    encoding="utf-8").read()
        text = re.sub(r"#[^\n]*", "", text)
        knobs.update(re.findall(r"\boption\(\s*(\w+)", text))
        knobs.update(re.findall(r"\bset\(\s*(\w+)[^)]*\bCACHE\b", text))
    return sorted(knobs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args()
    kinds = [("fields", option_fields(args.root)),
             ("flags", cli_flags(args.root)),
             ("env", env_names(args.root)),
             ("cmake", cmake_knobs(args.root))]
    total = 0
    for name, knobs in kinds:
        print(f"{name}: {len(knobs)}")
        total += len(knobs)
        if args.list:
            for knob in knobs:
                print(f"  {knob}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
