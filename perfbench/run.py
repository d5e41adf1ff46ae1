#!/usr/bin/env python3
"""The repository benchmark: one workload, one closed-loop run.

Run from the repository root::

    python3 perfbench/run.py --workload corridor-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload all`` runs the three workloads one after another, each in a
process of its own, prints their tables and ends with one JSON line whose
metrics are named ``<workload>.<metric>``.

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same operations with every layer wrapped and
reports per-layer self times and counts.  The tables go to stdout; the
last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Each run also writes its full result to
``perfbench/out/<workload>-seed<seed>-trace<t>.json`` and, when traced,
every span to ``...-spans.npz`` next to it.

The library is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _import_library() -> bool:
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def _table(name: str, seed: int, trace: int, res: dict, catalog) -> None:
    known = catalog.by_name()
    print(f"== {name}  seed={seed}  trace={trace}  attempted="
          f"{res['attempted']}  failed={res['failed']}  "
          f"checked={res['checked']}")
    for metric, m in res["metrics"].items():
        extra = ""
        if "samples" in m:
            extra = f"  n={m['samples']}"
        if "beyond" in m:
            extra += f" beyond={m['beyond']}"
        what = known[metric].what if metric in known else ""
        print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']:<8}{extra:<18}"
              f" {what}")
    if "counters" in res:
        print(f"  counters over the first {res['prefix_ops']} ops "
              f"(digest {res['digest']}): "
              + ", ".join(f"{k}={v}" for k, v in res["counters"].items()))
    if "shares" in res:
        print(f"  traced: {res['spans']} spans, execute wall "
              f"{res['execute_wall_s']:.4f} s = sum of self times "
              f"{res['self_total_s']:.4f} s")
        for span, share in sorted(res["shares"].items(),
                                  key=lambda kv: -kv[1]):
            print(f"    {span:<28} {100 * share:6.2f}% of traced op wall")
    for failure in res["failures"][:10]:
        print(f"  FAILED {failure}")


def run_all(args) -> int:
    """Run every workload in a process of its own, as the single-workload
    command would, so that each one's peak RSS is its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="corridor-mixed, lattice-kinds, churn or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_library():
        print(f"perfbench: library sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    import catalog
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    name = args.workload
    stem = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        res = harness.measure_traced(WORKLOADS[name], args.seed, args.seconds,
                                     spans_path=f"{stem}-spans.npz")
    else:
        res = harness.measure(WORKLOADS[name], args.seed, args.seconds)
    _table(name, args.seed, args.trace, res, catalog)
    with open(f"{stem}.json", "w") as fh:
        json.dump(res, fh, indent=1, default=str)

    wanted = catalog.PER_LAYER if args.trace else catalog.GATED
    metrics = {m.name: {"value": res["metrics"][m.name]["value"],
                        "unit": m.unit} for m in wanted}
    correct = res["failed"] == 0 and all(
        math.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    os.chdir(HERE.parent)
    sys.exit(main())
