#!/usr/bin/env bash
# README bench-flag gate (ctest label `docs`): for every row of README's
# bench catalog, run `<bench> --help` and fail when a flag the row names is
# not in the help.
# Rows list only their main flags, so the reverse direction (a registered
# flag the row leaves out) is not checked.
#
# Usage: scripts/check_bench_flags.sh <repo-root> <bench-binary-dir>

set -u
if [ $# -ne 2 ]; then
  echo "usage: $0 <repo-root> <bench-binary-dir>" >&2
  exit 2
fi

python3 - "$1" "$2" <<'PYEOF'
import os
import re
import subprocess
import sys

root, bench_dir = sys.argv[1], sys.argv[2]
readme = open(os.path.join(root, "README.md"), encoding="utf-8").read()
rows = re.findall(r"^\| `(bench_\w+)` \|[^|\n]*\|([^|\n]*)\|\s*$", readme, re.M)
if not rows:
    print("check_bench_flags: no bench catalog rows found in README.md")
    sys.exit(1)

failures = []
checked = 0
for bench, flags_cell in rows:
    binary = os.path.join(bench_dir, bench)
    if not os.path.exists(binary):
        failures.append(f"{bench}: binary not built at {binary}")
        continue
    run = subprocess.run([binary, "--help"], capture_output=True, text=True, timeout=60)
    help_text = run.stdout + run.stderr
    if run.returncode != 0:
        failures.append(f"{bench}: --help exited {run.returncode}")
    for cell in re.findall(r"`([^`]*)`", flags_cell):
        for flag in re.findall(r"--[a-z0-9][a-z0-9-]*", cell):
            checked += 1
            if not re.search(r"^\s*" + re.escape(flag) + r"(\s|$)", help_text, re.M):
                failures.append(f"{bench}: README names {flag}, --help does not list it")

if failures:
    print(f"check_bench_flags: FAILED ({len(failures)} problem(s))")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print(f"check_bench_flags: OK ({len(rows)} rows, {checked} flags)")
PYEOF
exit $?
