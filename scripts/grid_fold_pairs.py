#!/usr/bin/env python3
"""Time one outer fold's grid search in alternating parent/change pairs,
and check that both sides give the same means and alive flags.

    python3 scripts/grid_fold_pairs.py PARENT_DIR CHANGE_DIR --shape pima

PARENT_DIR and CHANGE_DIR are two checkouts. The fold is the one the
ROADMAP baseline times: the rows of perfbench/datagen.py
make_dataset(shape, 1), the training part of outer fold 0 of
stratified_kfold(ds, 10, 0), and experiment._grid_search over 9 inner
folds with inner seed 123, on the grid that `frlstsvm cv` runs without
grid flags (21 tau x 20 gamma x 9 c, linear). No benchmark workload
runs that grid.

Each pair runs the search once per side, each in a fresh process that
imports that checkout's src/ with one BLAS thread; the side that goes
first alternates from pair to pair. Both sides read the datagen.py
beside this script, so they search the same rows. The script prints
each run's seconds, both medians, their ratio (change over parent), the
distance between the quartiles of the parent's runs and how many pairs
the change won, and exits 1 if any run's means or alive flags differ
in any byte from the first parent run's. `--grid gaussian` searches
the criterion-5 grid (tau {0, 0.2, 0.4} x gamma {0.5, 1} x c {0.25, 1,
4}) with the gaussian kernel and sigma {0.5, 1, 2}, 54 points over 3
inner folds: about 6 s a run on `--shape yeast3`, the fold on which to
measure a change to the gaussian fit. `--grid criterion5` searches
the grid of the benchmark's cv-pima workload (linear, the criterion-5
grid over 9 inner folds), read from perfbench/workloads.py: one outer
fold of that job. `--grid tiny` searches a 2 x 2 x 2 grid over 3 inner
folds, a quick check of the script itself.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTER_FOLDS, OUTER_SEED, DATA_SEED, INNER_SEED = 10, 0, 1, 123

def _load(path: Path, name: str):
    """A module imported by path: neither perfbench/ nor scripts/ is a
    package."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench(name: str):
    """perfbench/<name>.py beside this script."""
    return _load(REPO_ROOT / "perfbench" / f"{name}.py", f"perfbench_{name}")


# the grid of the cv-pima workload, as the benchmark reads it
_workloads = _perfbench("workloads")

# name -> (ExperimentConfig grid fields, inner folds); {} is the default
GRIDS = {
    "default": ({}, 9),
    "criterion5": (dict(tau_grid=_workloads.TAU_GRID,
                        gamma_grid=_workloads.GAMMA_GRID,
                        c1_grid=_workloads.C_GRID), _workloads.INNER_FOLDS),
    "gaussian": (dict(tau_grid=(0.0, 0.2, 0.4), gamma_grid=(0.5, 1.0),
                      c1_grid=(0.25, 1.0, 4.0), kernel="gaussian",
                      sigma_grid=(0.5, 1.0, 2.0)), 3),
    "tiny": (dict(tau_grid=(0.0, 0.4), gamma_grid=(0.5, 1.0),
                  c1_grid=(0.25, 4.0)), 3),
}


# the alternating pair loop and the statistics of scripts/bench_pairs.py
bench_pairs = _load(REPO_ROOT / "scripts" / "bench_pairs.py", "bench_pairs")


def search_once(checkout: Path, shape: str, grid: str) -> dict:
    """Run the fold's grid search with the library of `checkout` (in
    this process, which must not have imported another frlstsvm) and
    return its seconds, its point and alive counts, and a digest of the
    bytes of its means and alive flags."""
    sys.path.insert(0, str(checkout / "src"))
    from frlstsvm.dataset import (LabeledDataset, fold_rows,
                                  stratified_kfold, subset)
    from frlstsvm.experiment import (ExperimentConfig, _grid_search,
                                     grid_points)

    ds = LabeledDataset(*_perfbench("datagen").make_dataset(shape,
                                                            DATA_SEED))
    train, _ = fold_rows(stratified_kfold(ds, OUTER_FOLDS, OUTER_SEED), 0)
    fields, inner_k = GRIDS[grid]
    config = ExperimentConfig(**fields)
    points = grid_points(config)
    t0 = time.perf_counter()
    means, alive = _grid_search(subset(ds, train), config, points, inner_k,
                                INNER_SEED)
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(means.tobytes() + alive.tobytes()).hexdigest()
    return {"seconds": seconds, "points": len(points),
            "alive": int(alive.sum()), "digest": digest}


def run_side(checkout: Path, shape: str, grid: str) -> dict:
    """search_once in a fresh process with one BLAS thread."""
    env = dict(os.environ)
    env.update(dict.fromkeys(_perfbench("child").THREAD_VARS, "1"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           str(checkout), "--shape", shape, "--grid", grid]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exited with code "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(pairs: list[tuple[dict, dict]]) -> dict:
    """Medians, ratio, parent quartile spread and change wins of
    (parent, change) runs, and whether every run's digest is the first
    parent run's."""
    parent, change = ([pair[i]["seconds"] for pair in pairs] for i in (0, 1))
    first = pairs[0][0]["digest"]
    return {
        "n": len(pairs),
        **bench_pairs.compare(parent, change, "lower"),
        "identical": all(run["digest"] == first
                         for pair in pairs for run in pair),
    }


def report(summary: dict) -> str:
    return (f"median seconds: parent {summary['parent']:.3f}, change "
            f"{summary['change']:.3f}, ratio {summary['ratio']:.3f}, "
            f"parent IQR {summary['parent_iqr']:.3f}, change wins "
            f"{summary['wins']}/{summary['n']}\n"
            "means and alive flags: "
            + ("identical" if summary["identical"] else "DIFFER"))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    if argv[:1] == ["--child"]:
        # one side's run, in the process run_side starts
        ap.add_argument("--child", type=Path, required=True)
    else:
        ap.add_argument("parent", type=Path)
        ap.add_argument("change", type=Path)
        ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--shape", default="pima")
    ap.add_argument("--grid", choices=sorted(GRIDS), default="default")
    args = ap.parse_args(argv)
    if "child" in args:
        print(json.dumps(search_once(args.child, args.shape, args.grid)))
        return 0
    dirs = dict(zip(bench_pairs.SIDES, (args.parent, args.change)))

    def log(i, side, run):
        print(f"pair {i} {side}: {run['seconds']:.3f} s, "
              f"{run['alive']} of {run['points']} points alive",
              file=sys.stderr)

    try:
        pairs = bench_pairs.alternate(range(args.pairs), lambda side, _: (
            run_side(dirs[side], args.shape, args.grid)), log)
    except RuntimeError as exc:
        print(f"grid_fold_pairs: {exc}", file=sys.stderr)
        return 1
    summary = summarize(pairs)
    print(f"{args.shape} {args.grid}-grid fold: {len(pairs)} pairs")
    print(report(summary))
    return 0 if summary["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
