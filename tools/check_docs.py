#!/usr/bin/env python3
"""Docs gate: keep docs/ and the wire code from drifting apart silently.

Checks, each grep-level simple so failures are self-explanatory:

1. Every relative markdown link in README.md and docs/*.md resolves to a
   file that exists (anchors are stripped; http(s) links are skipped).
2. Every wire tag enumerated in the protocol headers — the RequestTag /
   ResponseTag enumerators of src/service/message.h — appears by name in
   docs/wire-format.md.
3. Every payload type with an Encode*/Decode* pair in src/wire/wire.h
   appears by name in docs/wire-format.md.
4. Every util::StatusCode enumerator appears in docs/wire-format.md (the
   codes are a stable wire table).
5. Every on-disk format constant of src/store/proof_store.h (the
   `inline constexpr k*` declarations: magics, header size, record
   bound) appears by name in docs/proof-store.md — the log layout is a
   second normative spec that must not drift either.
6. The tier rows of the ladder diagram in docs/architecture.md (lines
   "│ name — ...", top to bottom) are exactly the arithmetic tiers of the
   exact-simplex escalation ladder (the kName of each Ops* struct of
   src/lp/ladder_simplex.cc, in declaration order), so a tier can neither
   go undocumented nor linger in the diagram once gone.
7. The serving surface cannot drift from its ops guide: every `--flag`
   the bagcq_server usage text declares appears in docs/serving.md, and
   every StatsResponse field name (src/service/message.h) appears there
   too — the flag table and the observability section are what an
   operator actually reads.
8. Every BAGCQ_* annotation macro defined in
   src/util/thread_annotations.h appears by name in
   docs/static-analysis.md — the annotation vocabulary is only usable
   if the document a reviewer is pointed at actually lists it.
9. No doc names code that is gone: every CamelCase identifier (one with
   an upper-case letter after its first character, and a lower-case one)
   and every a::b name inside a backticked span of README.md or docs/*.md
   occurs as a word (each a::b part as one) in the code, build or CI
   files: src/, tools/, tests/, bench/, examples/, perfbench/, .github/,
   CMakeLists.txt and .clang-tidy. Fenced blocks are skipped.

It also prints, without gating on it, the served-closure line count: the
lines of every src/ file reachable by #include from tools/bagcq_server.cc
and tools/bagcq_client.cc, each header counted with its .cc (whose own
includes are followed too), next to the line count of all of src/.

Exit status: 0 = docs and code agree, 1 = drift (or missing files).

Usage: tools/check_docs.py [REPO_ROOT]
"""

import os
import re
import sys


# Fenced code blocks of a markdown file.
FENCE_RE = re.compile(r"^```.*?^```", re.S | re.M)


def read(root, rel):
    path = os.path.join(root, rel)
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as err:
        sys.exit(f"error: cannot read {path}: {err}")


def check_links(root, failures):
    link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    code_span_re = re.compile(r"`[^`]*`")
    doc_files = ["README.md"] + sorted(
        os.path.join("docs", name)
        for name in os.listdir(os.path.join(root, "docs"))
        if name.endswith(".md"))
    checked = 0
    for doc in doc_files:
        base = os.path.dirname(os.path.join(root, doc))
        # Code spans and fenced blocks hold expressions like `f[i](x)` that
        # only look like links.
        text = code_span_re.sub("", FENCE_RE.sub("", read(root, doc)))
        for target in link_re.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            checked += 1
            if not os.path.exists(os.path.normpath(os.path.join(base, path))):
                failures.append(f"{doc}: broken link -> {target}")
    print(f"links: {checked} relative links checked "
          f"across {len(doc_files)} files")
    return doc_files


def enum_names(source, enum_name):
    match = re.search(
        r"enum\s+class\s+" + enum_name + r"[^{]*\{(.*?)\}", source, re.S)
    if match is None:
        sys.exit(f"error: enum {enum_name} not found")
    return re.findall(r"\b(k[A-Z]\w*)\b", match.group(1))


def served_closure(root):
    """The src/ files (repo-relative) the server and client compile in."""
    include_re = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
    pending = [os.path.join("tools", "bagcq_server.cc"),
               os.path.join("tools", "bagcq_client.cc")]
    seen = set()
    while pending:
        rel = pending.pop()
        if rel in seen:
            continue
        seen.add(rel)
        for include in include_re.findall(read(root, rel)):
            header = os.path.join("src", include)
            if not os.path.exists(os.path.join(root, header)):
                continue
            pending.append(header)
            source = os.path.splitext(header)[0] + ".cc"
            if os.path.exists(os.path.join(root, source)):
                pending.append(source)
    return [rel for rel in seen if rel.startswith("src" + os.sep)]


def report_served_lines(root):
    src_files = [os.path.relpath(os.path.join(directory, name), root)
                 for directory, _, names in os.walk(os.path.join(root, "src"))
                 for name in names]
    served = sum(read(root, rel).count("\n") for rel in served_closure(root))
    total = sum(read(root, rel).count("\n") for rel in src_files)
    print(f"served closure: {served:,} of {total:,} lines in src/")


CODE_DIRS = ("src", "tools", "tests", "bench", "examples", "perfbench",
             ".github")
CODE_FILES = ("CMakeLists.txt", ".clang-tidy")


def code_words(root):
    """Every word (run of [A-Za-z0-9_]) of the code, build and CI files."""
    paths = [os.path.join(root, name) for name in CODE_FILES]
    for top in CODE_DIRS:
        for directory, _, names in os.walk(os.path.join(root, top)):
            paths.extend(os.path.join(directory, name) for name in names)
    words = set()
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            words.update(re.findall(r"\w+", f.read()))
    return words


def check_doc_names(root, doc_files, failures):
    span_re = re.compile(r"`([^`]+)`")
    name_re = re.compile(r"\b[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*")
    words = code_words(root)
    names = {}
    for doc in doc_files:
        for span in span_re.findall(FENCE_RE.sub("", read(root, doc))):
            for name in name_re.findall(span):
                camel = (re.search(r"[a-z]", name) and
                         re.search(r".[A-Z]", name))
                if "::" in name or camel:
                    names.setdefault(name, set()).add(doc)
    missing = [name for name in sorted(names)
               if not all(part in words for part in name.split("::"))]
    for name in missing:
        for doc in sorted(names[name]):
            failures.append(f"{doc}: `{name}` names nothing in the code")
    print(f"doc code names: {len(names) - len(missing)}/{len(names)} "
          f"found in the code")


def check_mentions(names, spec, what, failures):
    missing = [name for name in names if name not in spec]
    for name in missing:
        failures.append(f"wire-format.md: {what} '{name}' is undocumented")
    print(f"{what}s: {len(names) - len(missing)}/{len(names)} documented")


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    failures = []

    doc_files = check_links(root, failures)
    check_doc_names(root, doc_files, failures)

    spec = read(root, os.path.join("docs", "wire-format.md"))
    message_h = read(root, os.path.join("src", "service", "message.h"))
    check_mentions(enum_names(message_h, "RequestTag"), spec,
                   "request tag", failures)
    check_mentions(enum_names(message_h, "ResponseTag"), spec,
                   "response tag", failures)

    wire_h = read(root, os.path.join("src", "wire", "wire.h"))
    wire_h = re.sub(r"//[^\n]*", "", wire_h)  # declarations, not prose
    types = sorted(set(re.findall(r"\bEncode([A-Z]\w*)\s*\(", wire_h)))
    if not types:
        sys.exit("error: no Encode* declarations found in wire.h")
    check_mentions(types, spec, "wire type", failures)

    status_h = read(root, os.path.join("src", "util", "status.h"))
    check_mentions(enum_names(status_h, "StatusCode"), spec,
                   "status code", failures)

    # The ladder tiers are normative names (stats fields, bench rows, docs):
    # each tier's arithmetic struct Ops* names its tier in kName, and the
    # diagram has one row per tier in escalation (declaration) order.
    arch = read(root, os.path.join("docs", "architecture.md"))
    ladder_cc = read(root, os.path.join("src", "lp", "ladder_simplex.cc"))
    tier_names = []
    for body in re.findall(r"^struct\s+Ops\w+\s*\{(.*?)^\};", ladder_cc,
                           re.S | re.M):
        name = re.search(r'\bkName\s*=\s*"(\w+)"', body)
        if name is None:
            sys.exit("error: an Ops struct in ladder_simplex.cc has no kName")
        tier_names.append(name.group(1))
    if not tier_names:
        sys.exit("error: no Ops structs found in ladder_simplex.cc")
    section = re.search(r"^### The exact-arithmetic escalation ladder$"
                        r"(.*?)(?=^#{1,3} |\Z)", arch, re.S | re.M)
    if section is None:
        sys.exit("error: ladder section not found in architecture.md")
    diagram_rows = re.findall(r"│ (\w+)\s+—", section.group(1))
    if diagram_rows != tier_names:
        failures.append(
            f"architecture.md: ladder diagram rows {diagram_rows} are not "
            f"the Ops*::kName tiers {tier_names}")
    documented = [name for name in tier_names if name in diagram_rows]
    print(f"ladder tiers: {len(documented)}/{len(tier_names)} documented")

    # Server flags and stats counters are the operator's contract: every
    # --flag in the bagcq_server usage text and every StatsResponse field
    # must appear in docs/serving.md.
    serving = read(root, os.path.join("docs", "serving.md"))
    server_cc = read(root, os.path.join("tools", "bagcq_server.cc"))
    flags = sorted(set(re.findall(r"(--[a-z][a-z-]*)", server_cc)))
    missing_flags = [flag for flag in flags if flag not in serving]
    for flag in missing_flags:
        failures.append(f"serving.md: server flag '{flag}' is undocumented")
    print(f"server flags: {len(flags) - len(missing_flags)}/{len(flags)} "
          f"documented")

    stats_match = re.search(r"struct\s+StatsResponse\s*\{(.*?)\n\};",
                            read(root, os.path.join(
                                "src", "service", "message.h")), re.S)
    if stats_match is None:
        sys.exit("error: StatsResponse not found in message.h")
    body = re.sub(r"//[^\n]*", "", stats_match.group(1))
    stats_fields = re.findall(r"\b(\w+)\s*(?:=[^;]*)?;", body)
    if not stats_fields:
        sys.exit("error: no StatsResponse fields parsed from message.h")
    # DebugString renders queue_depth_hwm as queue_hwm=[...]; accept the
    # field name or its rendered spelling.
    renders = {"queue_depth_hwm": ("queue_depth_hwm", "queue_hwm")}
    missing_fields = [
        field for field in stats_fields
        if not any(spelling in serving
                   for spelling in renders.get(field, (field,)))]
    for field in missing_fields:
        failures.append(
            f"serving.md: stats field '{field}' is undocumented")
    print(f"stats fields: {len(stats_fields) - len(missing_fields)}"
          f"/{len(stats_fields)} documented")

    # The thread-safety annotation vocabulary must be documented: every
    # macro thread_annotations.h #defines appears by name in
    # static-analysis.md. The dispatch helper the user-facing macros
    # expand through is implementation, not vocabulary.
    analysis_doc = read(root, os.path.join("docs", "static-analysis.md"))
    annotations_h = read(root, os.path.join(
        "src", "util", "thread_annotations.h"))
    macros = sorted(set(
        re.findall(r"^#\s*define\s+(BAGCQ_\w+)", annotations_h, re.M))
        - {"BAGCQ_THREAD_ANNOTATION_ATTRIBUTE"})
    if not macros:
        sys.exit("error: no BAGCQ_* macros found in thread_annotations.h")
    missing_macros = [m for m in macros if m not in analysis_doc]
    for macro in missing_macros:
        failures.append(
            f"static-analysis.md: annotation macro '{macro}' is "
            f"undocumented")
    print(f"annotation macros: {len(macros) - len(missing_macros)}"
          f"/{len(macros)} documented")

    store_spec = read(root, os.path.join("docs", "proof-store.md"))
    store_h = read(root, os.path.join("src", "store", "proof_store.h"))
    constants = re.findall(r"inline\s+constexpr\s+\S+\s+(k\w+)", store_h)
    if not constants:
        sys.exit("error: no inline constexpr constants found in "
                 "proof_store.h")
    missing = [name for name in constants if name not in store_spec]
    for name in missing:
        failures.append(
            f"proof-store.md: store constant '{name}' is undocumented")
    print(f"store constants: {len(constants) - len(missing)}"
          f"/{len(constants)} documented")

    report_served_lines(root)

    if failures:
        print("\ndocs gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ndocs gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
