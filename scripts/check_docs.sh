#!/usr/bin/env bash
# Documentation gate (ctest label `docs`). Six checks:
#
#   1.  Markdown link integrity — every intra-repo link target in the
#       checked .md files exists on disk (external http(s) links are
#       skipped), every `#anchor` (pure or `file#anchor`) resolves to a
#       heading in the target file, and no dead `[[...]]` wiki-style
#       anchors survive.
#   1b. Table-of-contents coverage — every `##` section of DESIGN.md and
#       EXPERIMENTS.md is linked from that file's ToC.
#   2.  Header doc coverage — every public header under HEADER_DIRS has a
#       file-level comment, and every namespace-scope declaration (struct/
#       class/enum/free function) is immediately preceded by a doc comment.
#   3.  README bench catalog — the bench catalog table in README.md lists
#       every bench binary that exists under bench/.
#   4.  Durability error codes — the svc.journal.*, svc.snapshot.*,
#       svc.recover.* and svc.overload.* codes that src/svc returns are
#       exactly the rows of the "Error codes" table in docs/durability.md
#       (obs::Counter names such as svc.overload.shed are not codes).
#   5.  Metric, span and code names — every backticked dotted name with a
#       layer prefix (`graph.`, `mcf.`, `sim.`, ... see LAYERS) in README,
#       DESIGN, EXPERIMENTS and docs/ starts a string literal in src/,
#       bench/ or perfbench/src/, so a doc cannot cite a counter, span or
#       error code the program no longer has. Names with `*` or `{...}`
#       are families and are not checked.
#
# Usage: scripts/check_docs.sh [repo-root]   (defaults to the script's parent)

set -u
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

python3 - "$root" <<'PYEOF'
import os
import re
import sys

root = sys.argv[1]
failures = []


def fail(msg):
    failures.append(msg)


# -- 1. markdown link integrity ---------------------------------------------

MD_FILES = ["README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md"]
MD_FILES += sorted(
    os.path.join("docs", f) for f in os.listdir(os.path.join(root, "docs"))
    if f.endswith(".md")
) if os.path.isdir(os.path.join(root, "docs")) else []

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$", re.M)


def github_anchor(heading):
    """GitHub's heading -> anchor rule: lowercase, drop everything but
    word chars / spaces / hyphens, spaces become hyphens."""
    a = heading.strip().lower()
    a = re.sub(r"[^\w\s-]", "", a)
    return a.replace(" ", "-")


def md_text(md):
    text = open(os.path.join(root, md), encoding="utf-8").read()
    # Strip fenced code blocks: their bracket/paren text is not links.
    # (Inline code spans stay — headings keep their `code` text, which
    # GitHub includes when deriving anchors.)
    return re.sub(r"```.*?```", "", text, flags=re.S)


def md_anchors(md):
    return {github_anchor(h) for _, h in HEADING_RE.findall(md_text(md))}


def resolve(md, rel):
    """Path of a relative link target, or None when it doesn't exist."""
    for base in (os.path.dirname(md), ""):
        p = os.path.normpath(os.path.join(base, rel))
        if os.path.exists(os.path.join(root, p)):
            return p
    return None


for md in MD_FILES:
    if not os.path.exists(os.path.join(root, md)):
        continue  # optional files may not exist yet
    text = md_text(md)
    # Dead wiki-style anchors: a [[...]] never renders as a link
    # (inline code spans are exempt — docs may *mention* the syntax).
    for m in re.finditer(r"\[\[[^\]]+\]\]", re.sub(r"`[^`\n]*`", "", text)):
        fail(f"{md}: dead [[...]] anchor: {m.group(0)[:60]}")
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        rel, _, anchor = target.partition("#")
        if rel:
            resolved = resolve(md, rel)
            if resolved is None:
                fail(f"{md}: broken link -> {target}")
                continue
        else:
            resolved = md  # pure intra-file anchor
        if anchor and resolved.endswith(".md"):
            if anchor not in md_anchors(resolved):
                fail(f"{md}: dangling anchor -> {target}")

# -- 1b. ToC coverage: every ## section linked from the file's ToC -----------

for md in ["DESIGN.md", "EXPERIMENTS.md"]:
    text = md_text(md)
    for level, heading in HEADING_RE.findall(text):
        if level != "##" or heading.strip() == "Contents":
            continue
        if f"](#{github_anchor(heading)})" not in text:
            fail(f"{md}: section not in the ToC: {heading[:60]}")

# -- 2. header doc coverage (HEADER_DIRS below) ------------------------------

DECL_RE = re.compile(
    r"^(struct|class|enum)\s+\w+"          # type declarations
    r"|^[A-Za-z_][\w:<>,\s*&]*\s+\w+\("    # free function declarations
)
SKIP_RE = re.compile(r"^(using|namespace|#|template|typedef|}|{|//|///|\*|/\*)")

def covered(lines, i):
    """A declaration at line i counts as documented when the nearest
    non-blank line above it is part of a comment."""
    j = i - 1
    while j >= 0 and lines[j].strip() == "":
        j -= 1
    if j < 0:
        return False
    prev = lines[j].strip()
    return prev.startswith(("//", "///", "/*", "*", "*/")) or prev.endswith("*/")

HEADER_DIRS = ["src/graph", "src/mcf", "src/fault", "src/svc",
               "src/svc/durable", "src/te", "src/design", "src/routing",
               "src/sim", "src/check"]
for d in HEADER_DIRS:
    for name in sorted(os.listdir(os.path.join(root, d))):
        if not name.endswith(".hpp"):
            continue
        rel = os.path.join(d, name)
        lines = open(os.path.join(root, rel), encoding="utf-8").read().splitlines()
        # File-level comment: a comment line within the first 3 lines.
        head = [l.strip() for l in lines[:3]]
        if not any(l.startswith(("//", "/*")) for l in head):
            fail(f"{rel}: missing file-level comment")
        depth = 0          # brace depth; only depth<=1 (namespace scope) is public API
        in_block_comment = False
        for i, raw in enumerate(lines):
            line = raw.strip()
            if in_block_comment:
                if "*/" in line:
                    in_block_comment = False
                continue
            if line.startswith("/*") and "*/" not in line:
                in_block_comment = True
                continue
            if depth <= 1 and DECL_RE.match(line) and not SKIP_RE.match(line):
                # `else`/`return` lines can false-match the function regex.
                if not line.startswith(("else", "return", "if", "for", "while")):
                    if not covered(lines, i):
                        fail(f"{rel}:{i + 1}: undocumented public declaration: {line[:60]}")
            depth += raw.count("{") - raw.count("}")

# -- 3. README bench catalog completeness -----------------------------------

bench_dir = os.path.join(root, "bench")
benches = sorted(
    f[:-4] for f in os.listdir(bench_dir) if f.startswith("bench_") and f.endswith(".cpp")
)
readme = open(os.path.join(root, "README.md"), encoding="utf-8").read()
for b in benches:
    if b not in readme:
        fail(f"README.md: bench catalog is missing `{b}`")

# -- 4. durability error codes vs the docs/durability.md table ---------------

CODE_RE = re.compile(r'"(svc\.(?:journal|snapshot|recover|overload)\.[a-z_]+)')
returned = set()
for dirpath, _, names in os.walk(os.path.join(root, "src", "svc")):
    for name in names:
        if not name.endswith((".cpp", ".hpp")):
            continue
        for line in open(os.path.join(dirpath, name), encoding="utf-8"):
            if "obs::Counter" not in line:
                returned.update(CODE_RE.findall(line))
durability = md_text(os.path.join("docs", "durability.md"))
table = durability.split("\n## Error codes", 1)[-1].split("\n## ", 1)[0]
documented = set(re.findall(r"^\| `([^`]+)` \|", table, re.M))
for code in sorted(returned - documented):
    fail(f"docs/durability.md: error code `{code}` is returned by src/svc but has no row")
for code in sorted(documented - returned):
    fail(f"docs/durability.md: error code `{code}` has a row but src/svc never returns it")

# -- 5. documented metric/span/code names exist in the program ---------------

LAYERS = ["graph", "mcf", "sim", "te", "routing", "core", "fault", "svc",
          "check", "exec", "design", "durable"]
NAME_RE = re.compile(r"`((?:%s)(?:\.[A-Za-z0-9_]+)+)`" % "|".join(LAYERS))
# The dotted run that opens a string literal: "mcf.gk.phases", and the
# "svc.recover.bad_snapshot: ..." codes built as message prefixes.
LITERAL_HEAD_RE = re.compile(r'"([A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)+)')
literal_heads = set()
for src_dir in ["src", "bench", os.path.join("perfbench", "src")]:
    for dirpath, _, names in os.walk(os.path.join(root, src_dir)):
        for name in names:
            if name.endswith((".cpp", ".hpp")):
                text = open(os.path.join(dirpath, name), encoding="utf-8").read()
                literal_heads.update(LITERAL_HEAD_RE.findall(text))
NAME_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + [
    md for md in MD_FILES if md.startswith("docs" + os.sep)]
for md in NAME_DOCS:
    for name in sorted(set(NAME_RE.findall(md_text(md)))):
        if name not in literal_heads:
            fail(f"{md}: `{name}` names no string literal in src/, bench/ or perfbench/src/")

# ---------------------------------------------------------------------------

if failures:
    print(f"check_docs: FAILED ({len(failures)} problem(s))")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print(f"check_docs: OK ({len(MD_FILES)} md files, "
      f"{sum(1 for d in HEADER_DIRS for f in os.listdir(os.path.join(root, d)) if f.endswith('.hpp'))} headers, "
      f"{len(benches)} benches)")
PYEOF
exit $?
