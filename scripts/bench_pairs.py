#!/usr/bin/env python3
"""Run a workload of the benchmark in alternating parent/change pairs
and compare their end-to-end metrics.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload kernel-yeast3 --seeds 41-45

PARENT_DIR and CHANGE_DIR are two checkouts. For each seed the script
runs `perfbench/run.py --workload W --seed S --trace 0` of each
checkout, with that checkout's own benchmark and library, one after the
other; the side that goes first alternates from seed to seed. It reads
the JSON object on the last line of each run's output and prints, for
each end-to-end metric, the parent and change medians, their ratio
(change over parent), the distance between the quartiles of the
parent's runs, and how many pairs the change won (ties count for
neither), then both sides' failed operations. Which direction is better
comes from BENCHMARK.json beside this script. It only reads
perfbench/; the runs write their reports under each checkout's
.perfbench/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'41-45' or '41,43,50-52' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """{"parent", "change", "ratio", "parent_iqr", "wins"} of one metric's
    values over the pairs: both medians, their ratio (change over
    parent), the distance between the quartiles of the parent's values,
    and the pairs whose change value is strictly better, `better` being
    "lower" or "higher"."""
    sign = -1 if better == "lower" else 1
    q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                 else (parent[0],) * 3)
    return {
        "parent": statistics.median(parent),
        "change": statistics.median(change),
        "ratio": statistics.median(change) / statistics.median(parent),
        "parent_iqr": q3 - q1,
        "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
    }


def alternate(keys, run, log) -> list[tuple]:
    """The (parent, change) results of run(side, key) for each key, the
    side that goes first alternating from key to key; log(key, side,
    result) follows each run. A run's RuntimeError or ValueError comes
    back as a RuntimeError that names its side."""
    pairs = []
    for i, key in enumerate(keys):
        result = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            try:
                result[side] = run(side, key)
            except (RuntimeError, ValueError) as exc:
                raise RuntimeError(f"{side}: {exc}") from exc
            log(key, side, result[side])
        pairs.append((result["parent"], result["change"]))
    return pairs


def summarize(pairs: list[tuple[dict, dict]],
              better: dict[str, str]) -> dict:
    """Compare (parent, change) results of run.py, one pair per seed.

    `better` maps each end-to-end metric to "lower" or "higher". Returns
    {"n", "metrics": {name: compare(...)}, "failed": {side: (failed,
    attempted)}}."""
    out = {"n": len(pairs), "metrics": {}, "failed": {}}
    for name, direction in better.items():
        parent, change = ([pair[i]["metrics"][name]["value"]
                           for pair in pairs] for i in (0, 1))
        out["metrics"][name] = compare(parent, change, direction)
    for i, side in enumerate(SIDES):
        out["failed"][side] = (sum(pair[i]["failed"] for pair in pairs),
                               sum(pair[i]["attempted"] for pair in pairs))
    return out


def report(summary: dict) -> str:
    n = summary["n"]
    lines = [f"{'metric':<20} {'parent':>12} {'change':>12} {'ratio':>7} "
             f"{'parent IQR':>11} {'change wins':>12}"]
    for name, m in summary["metrics"].items():
        lines.append(f"{name:<20} {m['parent']:>12.6g} {m['change']:>12.6g} "
                     f"{m['ratio']:>7.3f} {m['parent_iqr']:>11.3g} "
                     f"{m['wins']:>9}/{n}")
    lines.append("failed operations: " + ", ".join(
        f"{side} {f} of {a}" for side, (f, a) in summary["failed"].items()))
    return "\n".join(lines)


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: seed {seed} exited with code "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return last_json(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="e.g. 41-45 or 41,43")
    args = ap.parse_args(argv)
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}
    dirs = dict(zip(SIDES, (args.parent, args.change)))

    def log(seed, side, result):
        print(f"seed {seed} {side}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr)

    try:
        pairs = alternate(args.seeds, lambda side, seed: run_side(
            dirs[side], args.workload, seed), log)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(pairs)} pairs, seeds "
          f"{','.join(map(str, args.seeds))}")
    print(report(summarize(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
