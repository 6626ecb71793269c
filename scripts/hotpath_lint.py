#!/usr/bin/env python3
"""Hot-path allocation lint: budget heap allocations in ZS_HOT functions.

Scans every first-party source file for functions marked ZS_HOT (see
src/common/macros.h) and counts the heap-allocation sites inside each
body: `new`, make_unique/make_shared, and allocating string/container
operations (push_back, emplace*, insert, resize, reserve, append,
assign, substr, to_string). The per-function counts are compared to the
committed baseline BENCH_hotpath_allocs.json:

  - a count above the baseline (or a new ZS_HOT function with
    allocations) FAILS — new allocation debt on a per-event path must be
    an explicit decision, recorded by re-running with --update;
  - a count below the baseline is reported as progress (run --update to
    ratchet the budget down);
  - `// zs-hotpath-allow(reason)` on an allocation's line excludes it
    from the count (use for one-time/amortized allocations, never for
    true per-event ones).

Engines:
  - lexical (default): a deterministic comment/string-stripping token
    scanner — no dependencies, used by CI and the committed baseline.
  - libclang (--engine=libclang): resolves the same ZS_HOT regions via
    the clang AST over compile_commands.json; needs the `clang` python
    package + libclang. A cross-check, not the source of truth.

Usage:
  scripts/hotpath_lint.py --check            # CI gate (default mode)
  scripts/hotpath_lint.py --list             # show every counted site
  scripts/hotpath_lint.py --update           # rewrite the baseline
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_hotpath_allocs.json")
SCAN_DIRS = ("src",)
SOURCE_EXTENSIONS = (".h", ".cc")
ALLOW_MARKER = "zs-hotpath-allow"

# One alternation, compiled once. `new` must be an expression keyword
# (not `new_...` identifiers); member ops must look like calls.
ALLOC_RE = re.compile(
    r"""
    \bnew\b(?!\s*\()?                                  # new T / new (nothrow)
    | \bmake_unique\s*<
    | \bmake_shared\s*<
    | \bto_string\s*\(
    | (?:\.|->)\s*(?:push_back|emplace_back|emplace|insert|resize
                     |reserve|append|assign|substr)\s*\(
    """,
    re.VERBOSE,
)


def strip_code(text):
    """Blanks comments, string/char literals, and preprocessor lines.

    Offsets and line structure are preserved (every stripped char becomes
    a space), so token positions map back to real lines. Lines carrying a
    `zs-hotpath-allow` marker are recorded BEFORE comments are removed.
    """
    allow_lines = set()
    for i, line in enumerate(text.splitlines(), start=1):
        if ALLOW_MARKER in line:
            allow_lines.add(i)

    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                        i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        elif c == "#" and (i == 0 or text[i - 1] == "\n"):
            # Preprocessor line (incl. the ZS_HOT macro definition);
            # honor line continuations.
            while i < n:
                if text[i] == "\n":
                    if i > 0 and text[i - 1] == "\\":
                        out[i - 1] = " "
                        i += 1
                        continue
                    break
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out), allow_lines


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def find_hot_functions(path, text):
    """Yields (qualified_name, body_start, body_end) for ZS_HOT functions."""
    code, _ = strip_code(text)
    for marker in re.finditer(r"\bZS_HOT\b", code):
        sig_start = marker.end()
        # The body opens at the first '{' outside parens after the
        # marker (the signature may contain parenthesized attribute
        # arguments, e.g. ZS_REQUIRES(mu_)).
        depth = 0
        body_open = -1
        for i in range(sig_start, len(code)):
            c = code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "{" and depth == 0:
                body_open = i
                break
            elif c == ";" and depth == 0:
                break  # declaration only — body lives elsewhere
        if body_open < 0:
            continue
        sig = code[sig_start:body_open]
        params_at = sig.find("(")
        name_m = re.search(r"[~A-Za-z_][\w:~]*\s*$", sig[:params_at]) if params_at > 0 else None
        if name_m is None:
            print(f"warning: {path}:{line_of(text, marker.start())}: "
                  f"could not parse ZS_HOT signature", file=sys.stderr)
            continue
        name = name_m.group().strip()
        # Brace-match the body.
        depth = 0
        body_end = len(code)
        for i in range(body_open, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    body_end = i + 1
                    break
        yield name, body_open, body_end


def scan_file(path, relpath):
    """Returns ({key: count}, [(key, line, token, allowed)]) for one file."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if "ZS_HOT" not in text:
        return {}, []
    code, allow_lines = strip_code(text)
    counts = {}
    sites = []
    for name, start, end in find_hot_functions(path, text):
        key = f"{relpath}:{name}"
        counts.setdefault(key, 0)
        for m in ALLOC_RE.finditer(code, start, end):
            line = line_of(code, m.start())
            token = m.group().strip().lstrip(".->").rstrip("(<").strip()
            allowed = line in allow_lines
            sites.append((key, line, token, allowed))
            if not allowed:
                counts[key] += 1
    return counts, sites


def scan_tree_lexical():
    counts, sites = {}, []
    for scan_dir in SCAN_DIRS:
        for dirpath, _, files in os.walk(os.path.join(REPO_ROOT, scan_dir)):
            for fname in sorted(files):
                if not fname.endswith(SOURCE_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, REPO_ROOT)
                c, s = scan_file(path, rel)
                for k in c:
                    counts[k] = counts.get(k, 0) + c[k]
                sites.extend(s)
    return counts, sites


def scan_tree_libclang(compile_commands):
    """AST-based cross-check: same keys, counts from clang cursors."""
    try:
        from clang import cindex  # noqa: PLC0415
    except ImportError:
        sys.exit("error: --engine=libclang needs the clang python package "
                 "(and libclang); use the default lexical engine instead")
    with open(compile_commands, encoding="utf-8") as f:
        commands = json.load(f)
    index = cindex.Index.create()
    alloc_calls = {"make_unique", "make_shared", "to_string", "push_back",
                   "emplace_back", "emplace", "insert", "resize", "reserve",
                   "append", "assign", "substr"}
    counts = {}
    seen_files = set()
    for entry in commands:
        path = os.path.normpath(os.path.join(entry["directory"], entry["file"]))
        if not path.startswith(REPO_ROOT + os.sep) or path in seen_files:
            continue
        seen_files.add(path)
        args = [a for a in entry["command"].split()[1:]
                if not a.endswith((".cc", ".o")) and a not in ("-c", "-o")]
        tu = index.parse(path, args=args)
        # Hot regions come from the lexical marker scan; the AST supplies
        # accurate function extents and allocation nodes within them.
        with open(path, encoding="utf-8") as f:
            text = f.read()
        regions = list(find_hot_functions(path, text))
        if not regions:
            continue
        rel = os.path.relpath(path, REPO_ROOT)

        def visit(node):
            for child in node.get_children():
                if child.location.file and os.path.normpath(
                        str(child.location.file)) == path:
                    k = None
                    if child.kind == cindex.CursorKind.CXX_NEW_EXPR:
                        k = "new"
                    elif child.kind == cindex.CursorKind.CALL_EXPR and \
                            child.spelling in alloc_calls:
                        k = child.spelling
                    if k is not None:
                        off = child.location.offset
                        for name, start, end in regions:
                            if start <= off < end:
                                counts[f"{rel}:{name}"] = counts.get(
                                    f"{rel}:{name}", 0) + 1
                                break
                visit(child)

        visit(tu.cursor)
        for name, _, _ in regions:
            counts.setdefault(f"{rel}:{name}", 0)
    return counts, []


def load_baseline():
    if not os.path.exists(BASELINE_PATH):
        return None
    with open(BASELINE_PATH, encoding="utf-8") as f:
        return json.load(f)


def write_baseline(counts):
    doc = {
        "_comment": (
            "Per-function heap-allocation counts inside ZS_HOT bodies "
            "(scripts/hotpath_lint.py, lexical engine). CI fails when a "
            "count rises; re-run with --update to accept a change. "
            "Mark amortized sites with zs-hotpath-allow(reason); a count "
            "here is a per-call allocation site still to remove."
        ),
        "functions": dict(sorted(counts.items())),
        "total": sum(counts.values()),
    }
    with open(BASELINE_PATH, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare against the baseline (default)")
    mode.add_argument("--update", action="store_true",
                      help="rewrite BENCH_hotpath_allocs.json")
    mode.add_argument("--list", action="store_true",
                      help="print every counted allocation site")
    parser.add_argument("--engine", choices=("lexical", "libclang"),
                        default="lexical")
    parser.add_argument("--compile-commands",
                        default=os.path.join(REPO_ROOT, "build",
                                             "compile_commands.json"),
                        help="compile_commands.json (libclang engine only)")
    args = parser.parse_args()

    if args.engine == "libclang":
        counts, sites = scan_tree_libclang(args.compile_commands)
    else:
        counts, sites = scan_tree_lexical()

    if not counts:
        sys.exit("error: no ZS_HOT functions found — marker scan broken?")

    if args.list:
        for key, line, token, allowed in sorted(sites):
            flag = " (allowed)" if allowed else ""
            print(f"{key.split(':')[0]}:{line}: {token} in "
                  f"{key.split(':', 1)[1]}{flag}")
        total = sum(counts.values())
        print(f"\n{len(counts)} ZS_HOT functions, {total} counted "
              f"allocation sites")
        return

    if args.update:
        write_baseline(counts)
        print(f"baseline written: {len(counts)} functions, "
              f"{sum(counts.values())} allocation sites "
              f"-> {os.path.relpath(BASELINE_PATH, REPO_ROOT)}")
        return

    baseline = load_baseline()
    if baseline is None:
        sys.exit("error: BENCH_hotpath_allocs.json missing; run "
                 "scripts/hotpath_lint.py --update and commit it")
    base = baseline.get("functions", {})
    failures = []
    improved = []
    for key, count in sorted(counts.items()):
        if key not in base:
            if count > 0:
                failures.append(
                    f"{key}: NEW ZS_HOT function with {count} allocation "
                    f"site(s) and no baseline entry")
        elif count > base[key]:
            failures.append(
                f"{key}: {count} allocation site(s), baseline {base[key]} "
                f"(+{count - base[key]})")
        elif count < base[key]:
            improved.append(f"{key}: {base[key]} -> {count}")
    removed = sorted(set(base) - set(counts))

    if improved:
        print("improved (run --update to ratchet the budget down):")
        for line in improved:
            print(f"  {line}")
    if removed:
        print("baseline entries with no matching ZS_HOT function "
              "(renamed/deleted; run --update):")
        for key in removed:
            print(f"  {key}")
    if failures:
        print("hotpath_lint: allocation budget exceeded:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        print("\nEither remove the allocation (preferred), annotate the "
              "line with // zs-hotpath-allow(reason) if it is amortized, "
              "or accept the debt with scripts/hotpath_lint.py --update.",
              file=sys.stderr)
        sys.exit(1)
    print(f"hotpath_lint: OK ({len(counts)} ZS_HOT functions, "
          f"{sum(counts.values())} allocation sites within budget)")


if __name__ == "__main__":
    main()
