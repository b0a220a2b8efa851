#!/usr/bin/env bash
# Dead-code gate: src/ keeps only what a binary runs.
#
# Every flattree:: function that a src/ library (libft_*.a) defines must be
# kept by at least one program: a bench under bench/, an example under
# examples/, the service binary flattree_svc, or perfbench (configured in a
# tree of its own from perfbench/CMakeLists.txt as it is). The `deadcode`
# preset compiles at -O0 with -ffunction-sections -fdata-sections
# -fkeep-inline-functions, so every function, inline ones included, gets a
# section of its own, and links with --gc-sections, so a program keeps
# exactly the functions it can reach from main. A library function that no
# program keeps is dead.
#
#   - Out-of-line functions (nm type T) that no program keeps fail the
#     gate. There is no allowlist.
#   - Inline functions (nm type W: members defined in a header, template
#     instantiations) are listed apart. One that a test binary keeps is
#     listed as test-only and may stay; one that no test keeps either is
#     listed as unreferenced and fails the gate.
#
# What it cannot see:
#   - virtual overrides: a class's vtable references every override, so
#     once anything constructs the class, all of them are kept;
#   - templates that are never instantiated: they emit no code, so there
#     is no symbol to find;
#   - file-local functions (nm type t): an unused one is not emitted, and
#     one that only dead code calls goes with that code;
#   - inline special members (constructors, destructors, assignments):
#     the compiler writes the implicit and defaulted ones, and a program
#     may build an aggregate in place without calling them, so they are
#     not listed; out-of-line ones are;
#   - functions a program keeps but never calls at run time.
#
# Usage:
#   cmake --preset deadcode
#   scripts/check_dead_code.sh [build-dir]   (default: build-deadcode)
#   scripts/check_dead_code.sh --self-test
#
# The first form builds the configured tree (programs and tests) with
# JOBS (default 4) parallel jobs and perfbench in <build-dir>/perfbench,
# then reports. --self-test needs only a C++ compiler (CXX, default c++):
# it compiles a two-function fixture in a temp dir, one function called
# and one not, and passes when the report names exactly the uncalled one.

set -u
root="$(cd "$(dirname "$0")/.." && pwd)"

# analyze --lib A [--lib B ...] --prog P [...] [--test T ...]
# Prints the report; exits 1 when anything fails the gate.
analyze() {
  python3 - "$@" <<'PYEOF'
import re
import subprocess
import sys

libs, progs, tests = [], [], []
args = sys.argv[1:]
for flag, value in zip(args[::2], args[1::2]):
    {"--lib": libs, "--prog": progs, "--test": tests}[flag].append(value)


def defined(path):
    """Mangled name -> nm type of every symbol `path` defines."""
    out = subprocess.run(["nm", "-P", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    syms = {}
    for line in out.splitlines():
        f = line.split()
        if len(f) >= 2 and len(f[1]) == 1:
            syms[f[0]] = f[1]
    return syms


def demangle(names):
    out = subprocess.run(["c++filt"], input="".join(n + "\n" for n in names),
                         capture_output=True, text=True, check=True).stdout
    return dict(zip(names, out.splitlines()))


# A flattree:: function's mangled name opens its nested name with the
# namespace (_ZN8flattree, after any cv- or ref-qualifiers); a local entity
# such as a lambda opens with _ZZN. Instantiations of std:: templates over
# flattree types do not match, even where the demangled name starts with
# a flattree:: return type.
OURS = re.compile(r"_ZZ?N[rVKRO]*8flattree")


def kept(paths):
    """Demangled names of the functions the linked binaries kept. Names,
    not symbols: a constructor's complete- and base-object symbols demangle
    alike, and a binary may keep either."""
    names = set()
    for p in paths:
        names |= defined(p).keys()
    return set(demangle(sorted(n for n in names if OURS.match(n))).values())


functions = {}
for lib in libs:
    for name, kind in defined(lib).items():
        if kind in "TW" and OURS.match(name):
            functions[name] = kind
ours = demangle(sorted(functions))

in_progs = kept(progs)
in_tests = kept(tests)
dead = [m for m in ours if ours[m] not in in_progs]


# Constructors, destructors and assignment operators.
SPECIAL = re.compile(r"::(\w+)::~?\1\(|::operator=\(")


def listing(kind):
    rows = [("test-only" if ours[m] in in_tests else "unreferenced", ours[m])
            for m in dead if functions[m] == kind
            and not (kind == "W" and SPECIAL.search(ours[m]))]
    return sorted(set(rows), key=lambda r: (r[1], r[0]))


outline, inline = listing("T"), listing("W")
print(f"check_dead_code: {len(progs)} programs, {len(tests)} test binaries, "
      f"{len(set(ours.values()))} flattree:: functions in {len(libs)} libraries")
print(f"out-of-line functions no program keeps: {len(outline)}")
for tag, name in outline:
    print(f"  [{tag}] {name}")
print(f"inline functions no program keeps: {len(inline)}")
for tag, name in inline:
    print(f"  [{tag}] {name}")
failed = len(outline) + sum(tag == "unreferenced" for tag, _ in inline)
print("check_dead_code: " + (f"FAIL ({failed})" if failed else "ok"))
sys.exit(1 if failed else 0)
PYEOF
}

flags=(-O0 -ffunction-sections -fdata-sections -fkeep-inline-functions)

if [ "${1:-}" = "--self-test" ]; then
  cxx="${CXX:-c++}"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  cat > "$tmp/lib.cpp" <<'EOF'
namespace flattree {
int called(int x) { return x + 1; }
int planted_uncalled(int x) { return x * 2; }
}
EOF
  cat > "$tmp/main.cpp" <<'EOF'
namespace flattree { int called(int x); }
int main() { return flattree::called(-1); }
EOF
  "$cxx" "${flags[@]}" -c "$tmp/lib.cpp" -o "$tmp/lib.o" &&
    "$cxx" "${flags[@]}" -c "$tmp/main.cpp" -o "$tmp/main.o" &&
    ar rcs "$tmp/libft_fixture.a" "$tmp/lib.o" &&
    "$cxx" "$tmp/main.o" "$tmp/libft_fixture.a" -Wl,--gc-sections -o "$tmp/prog" ||
    { echo "check_dead_code --self-test: cannot build the fixture" >&2; exit 2; }
  report="$(analyze --lib "$tmp/libft_fixture.a" --prog "$tmp/prog")"
  status=$?
  echo "$report"
  listed="$(echo "$report" | grep '^  \[')"
  if [ "$status" -eq 1 ] &&
     [ "$listed" = "  [unreferenced] flattree::planted_uncalled(int)" ]; then
    echo "check_dead_code --self-test: ok"
    exit 0
  fi
  echo "check_dead_code --self-test: FAIL (expected exactly flattree::planted_uncalled(int))" >&2
  exit 1
fi

build="${1:-$root/build-deadcode}"
cache="$build/CMakeCache.txt"
if [ ! -f "$cache" ]; then
  echo "check_dead_code: $build is not configured; run: cmake --preset deadcode" >&2
  exit 2
fi
cache_value() { sed -n "s/^$1:[A-Z]*=//p" "$cache"; }
cxx_flags="$(cache_value CMAKE_CXX_FLAGS)"
link_flags="$(cache_value CMAKE_EXE_LINKER_FLAGS)"
# Without these a program keeps every function and the gate passes vacuously.
for f in "${flags[@]}" -Wl,--gc-sections; do
  case " $cxx_flags $link_flags " in
    *" $f "*) ;;
    *) echo "check_dead_code: $build lacks $f; configure it with the deadcode preset" >&2
       exit 2 ;;
  esac
done

jobs="${JOBS:-4}"
cmake --build "$build" -j "$jobs" > "$build/check_dead_code.build.log" 2>&1 ||
  { echo "check_dead_code: build failed, see $build/check_dead_code.build.log" >&2; exit 2; }
{ cmake -S "$root/perfbench" -B "$build/perfbench" \
    -DCMAKE_BUILD_TYPE="$(cache_value CMAKE_BUILD_TYPE)" \
    -DCMAKE_CXX_FLAGS="$cxx_flags" \
    -DCMAKE_EXE_LINKER_FLAGS="$link_flags" &&
  cmake --build "$build/perfbench" -j "$jobs" --target perfbench; } \
  > "$build/check_dead_code.perfbench.log" 2>&1 ||
  { echo "check_dead_code: perfbench build failed, see $build/check_dead_code.perfbench.log" >&2; exit 2; }

executables() { find "$@" -maxdepth 1 -type f -perm -u+x 2>/dev/null | sort; }
args=()
for lib in "$build"/src/libft_*.a; do args+=(--lib "$lib"); done
for prog in $(executables "$build/bench" "$build/examples") \
            "$build/src/flattree_svc" "$build/perfbench/perfbench"; do
  args+=(--prog "$prog")
done
for t in $(executables "$build/tests"); do args+=(--test "$t"); done
analyze "${args[@]}"
