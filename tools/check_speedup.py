#!/usr/bin/env python3
"""CI gate on the sharded engine's measured speedup (ROADMAP item 1).

Reads BENCH_sim.json (written by `bench_sim --bench-json=...`) and checks
the rows of its "Sharded-engine threads sweep" table against
per-thread-count thresholds. A point measured with fewer hardware threads
than worker threads is SKIPPED with a logged reason — an
oversubscribed runner measures epoch-barrier overhead, not parallelism, so
gating on it would be noise in both directions (spurious failures on a
starved runner, spurious passes if a slowdown hid behind the skip logic).

Usage: check_speedup.py [BENCH_sim.json]
Exit codes: 0 pass/skip, 1 gate failure, 2 malformed input.
"""

import json
import sys

# threads -> minimum speedup_vs_serial. The threads=4 gate is set below the
# ROADMAP's 3x-at-6-shards target to keep shared-runner jitter from flaking
# the job; the threads=2 gate only asserts parallelism is not a *loss*.
GATES = {2: 1.0, 4: 1.8}


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_sim.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_speedup: cannot read {path}: {e}")
        return 2

    sweeps = [t for t in doc.get("tables", [])
              if t.get("title", "").startswith("Sharded-engine threads sweep")]
    if not sweeps or not sweeps[0].get("rows"):
        print(f"check_speedup: no threads-sweep rows in {path}")
        return 2
    columns = sweeps[0].get("columns", [])
    if "threads" not in columns or "speedup_vs_serial" not in columns:
        print(f"check_speedup: threads-sweep table in {path} lacks the "
              "threads/speedup_vs_serial columns")
        return 2
    points = [dict(zip(columns, row)) for row in sweeps[0]["rows"]]
    hw = doc.get("hardware_threads", 0)

    failures = 0
    gated = 0
    for p in points:
        threads = p.get("threads")
        if threads not in GATES:
            continue
        speedup = p.get("speedup_vs_serial", 0.0)
        if hw < threads:
            print(
                f"SKIP  threads={threads}: runner has {hw} hardware "
                f"thread(s) < {threads} workers — measured {speedup:.2f}x "
                "is oversubscription overhead, not parallel speedup; "
                "not gated"
            )
            continue
        gated += 1
        need = GATES[threads]
        verdict = "ok" if speedup >= need else "FAIL"
        print(
            f"{verdict:4}  threads={threads}: speedup_vs_serial "
            f"{speedup:.2f}x (need >= {need}, {hw} hardware threads)"
        )
        if speedup < need:
            failures += 1

    if gated == 0:
        print("check_speedup: every gated point skipped (starved runner); "
              "gate not evaluated")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
