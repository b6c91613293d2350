#!/usr/bin/env python3
"""List the src/ code that no figure, table or benchmark run reaches.

    python3 tools/reach.py [--work DIR] > reach.txt

Builds the repository with --coverage into DIR/main and perfbench/ into
DIR/perfbench (both outside the checkout, nothing under perfbench/ is
edited; DIR defaults to a new temporary directory), then runs, one job per
CPU this process may use:

  * every figure `gimbal_figs --list` prints, with --quick;
  * `table1_overheads --benchmark_min_time=0.01s`;
  * each perfbench workload for 1 second, with --trace 0 and --trace 1.

Tests are not run: code that only a test reaches counts as unreached.
Coverage is read with `gcov --json-format --stdout` (no gcovr needed) and
merged over both trees. The report lists, per src/ file, the functions no
run entered and the line ranges inside entered functions that no run
executed, then the reached/total line counts, on stdout; progress goes to
stderr. Needs python3, cmake, a C++ compiler with gcov, GTest and
google-benchmark (as the main build does).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
WORKLOADS = ("fio_frag_rw", "kv_ycsb_a", "fleet_churn")
COVERAGE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
    "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O1 -g -DNDEBUG",
    "-DCMAKE_CXX_FLAGS=--coverage",
    "-DCMAKE_EXE_LINKER_FLAGS=--coverage",
]


def log(msg):
    print(f"reach.py: {msg}", file=sys.stderr, flush=True)


def run(cmd, cwd):
    """Run `cmd` and return its stdout; exit with its output on failure."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        sys.exit(f"reach.py: failed ({proc.returncode}): {' '.join(cmd)}")
    return proc.stdout


def gcda_files(build_dir):
    for dirpath, _, files in os.walk(build_dir):
        for name in sorted(files):
            if name.endswith(".gcda"):
                yield os.path.join(dirpath, name)


def build(source, build_dir, targets, jobs):
    log(f"building {', '.join(targets)} in {build_dir}")
    run(["cmake", "-S", source, "-B", build_dir] + COVERAGE_FLAGS, ROOT)
    run(["cmake", "--build", build_dir, "-j", str(jobs), "--target"] +
        targets, ROOT)


def run_all(work, jobs):
    main = os.path.join(work, "main")
    bench = os.path.join(work, "perfbench")
    scratch = os.path.join(work, "run")
    os.makedirs(scratch, exist_ok=True)
    build(ROOT, main, ["gimbal_figs", "table1_overheads"], jobs)
    build(os.path.join(ROOT, "perfbench"), bench, ["perfbench"], jobs)
    for tree in (main, bench):  # counts of an earlier run in this DIR
        for path in gcda_files(tree):
            os.remove(path)

    figs_bin = os.path.join(main, "bench", "gimbal_figs")
    figures = run([figs_bin, "--list"], scratch).split()
    cmds = [[figs_bin, f"--fig={f}", "--quick"] for f in figures]
    cmds.append([os.path.join(main, "bench", "table1_overheads"),
                 "--benchmark_min_time=0.01s"])
    for w in WORKLOADS:
        for trace in ("0", "1"):
            cmds.append([os.path.join(bench, "perfbench"), "--workload", w,
                         "--seed", "1", "--seconds", "1", "--trace", trace,
                         "--commit", "reach", "--spans-out",
                         os.path.join(scratch, f"spans-{w}.json")])
    log(f"running {len(cmds)} programs, {jobs} at a time")
    # libgcov merges each process's counters into the .gcda files under a
    # file lock, so concurrent runs add up.
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for done in [pool.submit(run, cmd, scratch) for cmd in cmds]:
            done.result()  # re-raises a failed run's exit
    return [main, bench]


def gcov_records(build_dir):
    """Yield gcov's JSON record for every object file that ran."""
    for path in gcda_files(build_dir):
        out = run(["gcov", "--json-format", "--stdout", path],
                  os.path.dirname(path))
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def source_path(record_cwd, path):
    full = os.path.normpath(os.path.join(record_cwd, path))
    return full[len(ROOT) + 1:] if full.startswith(SRC) else None


def collect(build_dirs):
    """Merge line and function counts over every object of every tree.

    lines: {file: {line: count}}; funcs: {(file, start): [name, end, count]}
    """
    lines, funcs = {}, {}
    for build_dir in build_dirs:
        for rec in gcov_records(build_dir):
            cwd = rec.get("current_working_directory", build_dir)
            for f in rec.get("files", []):
                path = source_path(cwd, f["file"])
                if path is None:
                    continue
                counts = lines.setdefault(path, {})
                for ln in f.get("lines", []):
                    n = ln["line_number"]
                    counts[n] = counts.get(n, 0) + ln["count"]
                for fn in f.get("functions", []):
                    key = (path, fn["start_line"])
                    entry = funcs.setdefault(
                        key, [fn.get("demangled_name", fn["name"]),
                              fn["end_line"], 0])
                    entry[2] += fn["execution_count"]
    return lines, funcs


def ranges(numbers):
    """Collapse sorted line numbers into 'a-b' / 'a' strings."""
    out, start, prev = [], None, None
    for n in numbers:
        if start is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(f"{start}-{prev}" if prev > start else str(start))
        start = prev = n
    if start is not None:
        out.append(f"{start}-{prev}" if prev > start else str(start))
    return out


def report(lines, funcs):
    out = []
    total = sum(len(c) for c in lines.values())
    reached = sum(1 for c in lines.values() for n in c.values() if n > 0)
    for path in sorted(lines):
        counts = lines[path]
        dead_funcs = sorted((start, name, end)
                            for (p, start), (name, end, n) in funcs.items()
                            if p == path and n == 0)
        in_dead = set()
        listed = []
        for start, name, end in dead_funcs:
            # A lambda inside a listed function is not listed again.
            if start not in in_dead:
                listed.append(f"  function {start}-{end}  {name}")
            in_dead.update(range(start, end + 1))
        dead_lines = sorted(n for n, c in counts.items()
                            if c == 0 and n not in in_dead)
        if not listed and not dead_lines:
            continue
        out.append(path)
        out.extend(listed)
        if dead_lines:
            out.append("  lines " + ", ".join(ranges(dead_lines)))
    out.append(f"reached {reached} of {total} src/ lines "
               f"({100.0 * reached / max(total, 1):.1f}%)")
    return "\n".join(out) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", help="build and run directory, outside the "
                    "checkout (default: a new temporary directory)")
    args = ap.parse_args()
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="reach-"))
    if work == ROOT or work.startswith(ROOT + os.sep):
        sys.exit("reach.py: --work must be outside the checkout")
    build_dirs = run_all(work, len(os.sched_getaffinity(0)))
    sys.stdout.write(report(*collect(build_dirs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
