#!/usr/bin/env python3
"""List the src/ functions that only tests link, or that nothing links.

A function that no command, bench, example or perfbench workload reaches is
code that only its own tests keep alive. This sweep finds them from the
linker's point of view: it compares the global text symbols (`nm`, type T)
that the src/ libraries define with those that survive in each executable
after `--gc-sections`, and sorts every library function by who links it.

It needs two sweep builds, made at -O0 so that no call is inlined away, with
one section per function so that the linker drops what nothing calls:

  for tree in "build-sweep ." "build-sweep-perfbench perfbench"; do
    set -- $tree
    cmake -B "$1" -S "$2" -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
      -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build "$1"
  done
  tools/test_only_symbols.py --build build-sweep \
      --perfbench-build build-sweep-perfbench

Executables under the main build's tests/ directory count as tests; every
other executable (the CLI, the benches, the examples, phoebe_bench) counts as
production. The libraries are the main build's src/*/libphoebe_*.a.

Every function that only tests link, or that nothing links, is printed. One
that the allowlist (tools/test_only_symbols.allow) does not name fails the
sweep, and so does an allowlist entry that names no such function: the list
stays exact, so an entry is dropped once production code calls it.

Exit status: 0 = every test-only function is allowed, 1 = a function outside
the allowlist or a stale entry, 2 = usage / input error. Stdlib only.
"""

import argparse
import os
import re
import subprocess
import sys

DEFAULT_ALLOWLIST = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "test_only_symbols.allow"
)


def run_lines(cmd, stdin_text=None):
    proc = subprocess.run(
        cmd, input=stdin_text, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)}: {proc.stderr.strip()}")
    return proc.stdout.splitlines()


def text_symbols(nm_lines):
    """Mangled names of the global text (type T) symbols in `nm -P` output."""
    out = set()
    for line in nm_lines:
        fields = line.split()
        # Archive member headers ("lib.a[x.o]:") have no type field.
        if len(fields) >= 2 and fields[1] == "T":
            out.add(fields[0])
    return out


def qualified_name(demangled):
    """Strip the parameter list, qualifiers and ABI tags.

    `ns::C::f[abi:cxx11](int) const` -> `ns::C::f`.
    """
    demangled = re.sub(r"\[abi:[^\]]*\]", "", demangled)
    depth = 0
    i = 0
    while i < len(demangled):
        c = demangled[i]
        if demangled.startswith("operator()", i):
            i += len("operator()")
            continue
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            return demangled[:i]
        i += 1
    return demangled


def parse_allowlist(lines):
    """Allowlist lines are `<entry> <reason>`; `#` starts a comment line.

    An entry is a qualified function name (every overload matches) or a
    library directory ending in `/` (every function it defines matches).
    """
    entries = {}
    for n, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) < 2:
            raise ValueError(f"allowlist line {n}: '{parts[0]}' has no reason")
        if parts[0] in entries:
            raise ValueError(f"allowlist line {n}: duplicate entry '{parts[0]}'")
        entries[parts[0]] = parts[1]
    return entries


def find_executables(root):
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "CMakeFiles")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if not os.access(path, os.X_OK) or os.path.islink(path):
                continue
            with open(path, "rb") as f:
                if f.read(4) != b"\x7fELF":
                    continue
            found.append(path)
    return found


def classify(lib_functions, exe_symbols, is_test):
    """Sort each library function by who links it.

    `lib_functions` maps mangled name -> library dir, `exe_symbols` maps an
    executable -> its set of text symbols. Returns {mangled: "unlinked" |
    "test-only"} for every function no production executable links.
    """
    linked_by_test = set()
    linked_by_prod = set()
    for exe, symbols in exe_symbols.items():
        (linked_by_test if is_test(exe) else linked_by_prod).update(symbols)
    out = {}
    for sym in lib_functions:
        if sym in linked_by_prod:
            continue
        out[sym] = "test-only" if sym in linked_by_test else "unlinked"
    return out


def check(flagged, lib_functions, demangled, allow):
    """Return (rows, disallowed, stale) for the flagged functions."""
    used = set()
    rows = []
    disallowed = 0
    for sym in sorted(flagged, key=lambda s: (lib_functions[s], demangled[s])):
        lib_dir = lib_functions[sym]
        name = qualified_name(demangled[sym])
        entry = name if name in allow else lib_dir if lib_dir in allow else None
        if entry is not None:
            used.add(entry)
        else:
            disallowed += 1
        rows.append((flagged[sym], lib_dir, demangled[sym], entry is not None))
    stale = sorted(set(allow) - used)
    return rows, disallowed, stale


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", required=True, help="main-tree sweep build dir")
    ap.add_argument("--perfbench-build", required=True,
                    help="perfbench/ sweep build dir")
    ap.add_argument("--allowlist", default=DEFAULT_ALLOWLIST)
    ap.add_argument("--nm", default="nm")
    ap.add_argument("--cxxfilt", default="c++filt")
    args = ap.parse_args(argv)

    try:
        with open(args.allowlist) as f:
            allow = parse_allowlist(f.read().splitlines())

        src_root = os.path.join(args.build, "src")
        lib_functions = {}
        for lib_dir in sorted(os.listdir(src_root)):
            path = os.path.join(src_root, lib_dir)
            if not os.path.isdir(path):
                continue
            libs = [n for n in sorted(os.listdir(path))
                    if n.startswith("libphoebe_") and n.endswith(".a")]
            for lib in libs:
                lines = run_lines([args.nm, "-g", "--defined-only", "-P",
                                   os.path.join(path, lib)])
                for sym in text_symbols(lines):
                    lib_functions[sym] = f"src/{lib_dir}/"
        if not lib_functions:
            raise RuntimeError(f"no libphoebe_*.a under {src_root}")

        tests_root = os.path.join(os.path.abspath(args.build), "tests") + os.sep
        exes = find_executables(args.build) + find_executables(args.perfbench_build)
        if not exes:
            raise RuntimeError("no executables in the sweep builds")
        exe_symbols = {}
        for exe in exes:
            lines = run_lines([args.nm, "-g", "--defined-only", "-P", exe])
            exe_symbols[exe] = text_symbols(lines) & lib_functions.keys()
        num_tests = sum(os.path.abspath(e).startswith(tests_root) for e in exes)

        flagged = classify(lib_functions, exe_symbols,
                           lambda e: os.path.abspath(e).startswith(tests_root))
        names = sorted(flagged)
        demangled = dict(zip(names, run_lines([args.cxxfilt], "\n".join(names) + "\n")))
    except (OSError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    rows, disallowed, stale = check(flagged, lib_functions, demangled, allow)
    for kind, lib_dir, name, allowed in rows:
        print(f"{'allowed' if allowed else 'NEW':8} {kind:10} {lib_dir:16} {name}")
    for entry in stale:
        print(f"STALE    allowlist entry '{entry}' names no test-only function")
    unlinked = sum(1 for k in flagged.values() if k == "unlinked")
    print(f"{len(lib_functions)} functions in src/ libraries; "
          f"{len(exes)} executables ({num_tests} tests); "
          f"{unlinked} unlinked, {len(flagged) - unlinked} test-only; "
          f"{disallowed} not in the allowlist, {len(stale)} stale entries")
    return 1 if disallowed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
