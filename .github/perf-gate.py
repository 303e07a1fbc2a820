#!/usr/bin/env python3
"""The repository's one performance gate: paired perfbench runs.

    python3 .github/perf-gate.py PARENT_PERFBENCH CHANGE_PERFBENCH

Both arguments are perfbench executables, one built at the parent commit
and one at the change. Build them in the same directory, one after the
other (CI checks out each commit in turn): symbol hashes, and with them the
code layout, depend on the build path, and two builds of the same source
at different paths read 10-21 % apart on figure-grid on a 2-core host.

For every workload declared in BENCHMARK.json the script runs PAIRS
alternating pairs -- the parent first in even pairs, the change first in
odd ones -- with the same seed and `--seconds` on both sides, and compares
each end-to-end metric's median on the change with the parent's.

It exits 1 when
  * a metric's change median is worse than the parent's by more than that
    metric's `bound` in BENCHMARK.json,
  * either side exits non-zero on any run, or
  * the change fails more operations than the parent on a workload.

Bounds come from BENCHMARK.json and nowhere else.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

# Same on both sides; a gate run takes about 5 min on a 2-core host. An
# even pair count puts each side first equally often. Shorter runs were
# too noisy: at five pairs of five seconds, two of three runs comparing a
# binary with itself failed, on p90s that rest on ~20 sweeps.
PAIRS = 6
SECONDS = 10

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(binary, workload, seed):
    """One untraced perfbench run: (exit code, result line or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def adverse_move(metric, parent, change):
    """How much worse the change reads, as a fraction of the parent."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    if metric["better"] == "higher":
        return (parent - change) / parent
    return (change - parent) / parent


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: perf-gate.py PARENT_PERFBENCH CHANGE_PERFBENCH")
    binaries = {"parent": sys.argv[1], "change": sys.argv[2]}
    bench = json.loads(BENCHMARK.read_text())
    metrics = bench["end_to_end"]
    problems = []
    worst = (float("-inf"), None)

    print("per run: " + " ".join(m["name"] for m in metrics))
    for workload in (w["name"] for w in bench["workloads"]):
        values = {side: {m["name"]: [] for m in metrics} for side in binaries}
        failed = {side: 0 for side in binaries}
        for pair in range(PAIRS):
            seed = pair + 1
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                code, result = run(binaries[side], workload, seed)
                if code != 0 or result is None:
                    problems.append(f"{workload} seed {seed}: {side} exited {code}")
                if result is None:
                    print(f"{workload} seed {seed} {side}: exit {code}", flush=True)
                    continue
                failed[side] += result["failed"]
                row = []
                for m in metrics:
                    v = result["metrics"][m["name"]]["value"]
                    values[side][m["name"]].append(v)
                    row.append(f"{v:.4g}")
                print(f"{workload} seed {seed} {side}: exit {code}, failed "
                      f"{result['failed']}/{result['attempted']}: {' '.join(row)}",
                      flush=True)

        print(f"\n{workload} (medians of {PAIRS} pairs at --seconds {SECONDS})")
        print(f"  {'metric':<22}{'parent':>12}{'change':>12}{'worse by':>10}{'bound':>8}")
        for m in metrics:
            name = m["name"]
            if not values["parent"][name] or not values["change"][name]:
                continue
            parent = statistics.median(values["parent"][name])
            change = statistics.median(values["change"][name])
            move = adverse_move(m, parent, change)
            verdict = "FAIL" if move > m["bound"] else "ok"
            print(f"  {name:<22}{parent:>12.4g}{change:>12.4g}{move:>+10.1%}"
                  f"{m['bound']:>8.0%}  {verdict}")
            if move > worst[0]:
                worst = (move, f"{workload} {name}")
            if verdict == "FAIL":
                problems.append(f"{workload} {name}: change median {change:.4g} is "
                                f"{move:.1%} worse than the parent's {parent:.4g} "
                                f"(bound {m['bound']:.0%})")
        print(f"  failed operations: parent {failed['parent']}, change {failed['change']}")
        if failed["change"] > failed["parent"]:
            problems.append(f"{workload}: the change failed {failed['change']} operations, "
                            f"the parent {failed['parent']}")
        print(flush=True)

    print(f"largest adverse move: {worst[0]:+.1%} ({worst[1]})")
    if problems:
        print("perf gate FAILED:")
        for p in problems:
            print(f"  {p}")
        sys.exit(1)
    print("perf gate passed")


if __name__ == "__main__":
    main()
