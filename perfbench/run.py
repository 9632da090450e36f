#!/usr/bin/env python3
"""Benchmark of frlstsvm: nested CV, training and model serving on
seeded synthetic data shaped like the paper's KEEL sets.

    python3 perfbench/run.py --workload cv-pima --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere; it uses the library under ``src/`` of the checkout
that holds this file and writes only under ``.perfbench/`` there.

Each run generates its inputs from ``--seed``, then starts several
child processes that only import the package and load the workload's
CSV (set-up time), then one child that runs the workload and checks its
outputs. Every child gets one BLAS thread, set in its environment
before numpy is imported (see README.md for why). With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run. The lines before it print every metric by name with its unit, the
machine facts and the output checks; a full report goes to
``.perfbench/reports/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

BLAS_THREADS = "1"
THREAD_ENV = {name: BLAS_THREADS for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Also for this process, before datagen imports numpy.
os.environ.update(THREAD_ENV)

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_CHILDREN = 3
RUN_DEADLINE_S = 170.0

# End-to-end metrics taken as the best (fastest) sample; the rest are
# medians. predict_rows_per_s is the batch size over the best batch time.
BEST_OF = ("load_s", "predict_rows_per_s")

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "gmean": "ratio",
    "predict_rows_per_s": "rows/s",
    "load_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dataset.load_csv_s": "s",
    "dataset.scale_s": "s",
    "fuzzy_rough.similarity_s": "s",
    "fuzzy_rough.similarity_calls": "count",
    "fuzzy_rough.similarity_pairs": "count",
    "fuzzy_rough.scores_s": "s",
    "fuzzy_rough.weights_s": "s",
    "fuzzy_rough.subsample_s": "s",
    "fuzzy_rough.kept_fraction": "ratio",
    "fuzzy_rough.peak_traced_mb": "MB",
    "linalg.spd_solve_s": "s",
    "linalg.spd_solve_calls": "count",
    "linalg.factor_attempts": "count",
    "linalg.ridge_escalations": "count",
    "linalg.max_order": "count",
    "linalg.flops_computed": "flop",
    "classifier.fit_s": "s",
    "classifier.fit_calls": "count",
    "classifier.fit_self_s": "s",
    "classifier.predict_s": "s",
    "classifier.predict_rows": "rows",
    "classifier.save_s": "s",
    "classifier.load_s": "s",
    "classifier.model_bytes": "bytes",
    "metrics.report_s": "s",
    "experiment.grid_points": "count",
    "experiment.grid_points_invalid": "count",
    "experiment.invalid_empty_majority": "count",
    "experiment.invalid_singular": "count",
    "experiment.invalid_degenerate": "count",
    "job.self_s": "s",
    "trace.overhead_s": "s",
}


def summary(samples: list[float]) -> dict:
    """Median, minimum, the highest of p90/p99/p99.9 that has at least
    ten samples beyond it (nearest rank), and the sample count."""
    n = len(samples)
    out = {"median": statistics.median(samples), "min": min(samples), "n": n}
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0):
        rank = math.ceil(round(n * p / 100, 6))
        if n - rank >= 10:
            out[f"p{p:g}"] = ordered[rank - 1]
            break
    return out


def spawn(args: list[str], timeout: float) -> int:
    """Run a child in its own process group; on timeout kill the whole
    group (pool workers too) and wait for it."""
    env = {**os.environ, **THREAD_ENV}
    proc = subprocess.Popen(args, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload and return its report; raises RuntimeError when
    the run produced no result."""
    from datagen import make_dataset, write_csv
    deadline = time.monotonic() + RUN_DEADLINE_S
    wl = WORKLOADS[name]
    work = STATE / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        csv = work / "train.csv"
        write_csv(csv, *make_dataset(wl.shape, seed))
        base = [sys.executable, str(HERE / "child.py"), "--workload", name,
                "--seed", str(seed), "--csv", str(csv), "--work", str(work),
                "--seconds", str(seconds), "--trace", str(trace)]
        # Set-up-only children before and after the workload child, so
        # the set-up samples span the run.
        roles = ["setup"] * SETUP_CHILDREN + ["main"] + ["setup"] * SETUP_CHILDREN
        setup = []
        for i, role in enumerate(roles):
            out = work / f"child-{i}.json"
            cmd = base + ["--out", str(out)]
            if role == "setup":
                cmd.append("--setup-only")
            code = spawn(cmd + ["--t0", repr(time.monotonic())],
                         deadline - time.monotonic())
            if code != 0 or not out.exists():
                raise RuntimeError(f"child exited with code {code}")
            with open(out, encoding="utf-8") as fh:
                child = json.load(fh)
            setup.append(child["setup_s"])
            if role == "main":
                result = child
        result["setup_samples"] = setup
        spans = work / "spans.json"
        if spans.exists():
            reports = STATE / "reports"
            reports.mkdir(parents=True, exist_ok=True)
            target = reports / f"{name}-seed{seed}-spans.json"
            shutil.move(spans, target)
            result["spans_file"] = str(target.relative_to(ROOT))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metrics_of(name: str, result: dict, trace: int) -> tuple[dict, dict]:
    """(metrics for the JSON line, extra figures for the table)."""
    jobs = result.get("job_samples", [])
    extra = {}
    if result.get("reference_workers") == 2 and jobs:
        # The single-process repeat over twice the 2-worker one.
        extra["experiment.parallel_efficiency"] = (
            statistics.median(jobs) / (2 * result["reference_s"]))
    if trace:
        values = dict(result.get("per_layer", {}))
        if jobs and result.get("job_traced"):
            values["trace.overhead_s"] = (
                statistics.median(result["job_traced"])
                - statistics.median(jobs))
        extra.update(result.get("per_layer_extra", {}))
        units = PER_LAYER
    else:
        values = {
            "job_s": statistics.median(jobs) if jobs else None,
            "setup_s": statistics.median(result["setup_samples"]),
            "gmean": result.get("gmean"),
            # A serving call takes 0.05-200 ms. On a shared VM the CPU
            # can run ~1.8x slower for seconds at a time, so the median
            # of such calls flips between the two speeds from run to run;
            # the best of many calls spread over the run does not (see
            # README.md).
            "predict_rows_per_s": (
                result["predict_rows"] / min(result["predict_samples"])
                if result.get("predict_samples") else None),
            "load_s": (min(result["load_samples"])
                       if result.get("load_samples") else None),
            "peak_rss_mb": result.get("peak_rss_mb"),
        }
        units = END_TO_END
    missing = [m for m in units if values.get(m) is None]
    if missing:
        raise RuntimeError(f"{name}: no value for {', '.join(missing)}")
    return ({m: {"value": values[m], "unit": u} for m, u in units.items()},
            extra)


def print_table(name: str, seed: int, trace: int, result: dict,
                metrics: dict, extra: dict) -> None:
    wl = WORKLOADS[name]
    facts = result.get("facts", {})
    print(f"== perfbench {name} seed={seed} trace={trace}: {wl.why}")
    print(f"machine: nproc={facts.get('nproc')} python={facts.get('python')} "
          f"numpy={facts.get('numpy')} scipy={facts.get('scipy')}")
    print(f"blas: numpy {facts.get('numpy_blas')}, scipy "
          f"{facts.get('scipy_blas')}, threads reported "
          f"{facts.get('blas_threads')}")
    print(f"thread env set before numpy import: {facts.get('thread_env')}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio {failed / max(1, attempted):g} "
          f"({failed} failed of {attempted} attempted)")
    for check, ok in sorted(result.get("checks", {}).items()):
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    for line in result.get("failures", []):
        print(f"failure: {line}")
    samples = {"job_s": result.get("job_samples"),
               "setup_s": result.get("setup_samples"),
               "load_s": result.get("load_samples"),
               "predict_rows_per_s": result.get("predict_samples")}
    alias = {"job_s": "cv_s" if wl.kind == "cv" else "fit_s"}
    for metric, v in metrics.items():
        label = f"{metric} ({alias[metric]})" if metric in alias else metric
        line = f"{label:<40} {v['value']:.6g} {v['unit']}"
        if not trace and samples.get(metric):
            s = summary(samples[metric])
            stat = "best" if metric in BEST_OF else "median"
            line += (f"  ({stat} of n={s['n']}; " + ", ".join(
                f"{k} {val:.6g} s" for k, val in s.items() if k != "n")
                + ")")
            if metric == "predict_rows_per_s":
                line += f" per batch of {result['predict_rows']} rows"
        print(line)
    for metric, value in extra.items():
        print(f"{metric:<40} {value:.6g}")


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    result = run_workload(name, seed, seconds, trace)
    metrics, extra = metrics_of(name, result, trace)
    print_table(name, seed, trace, result, metrics, extra)
    reports = STATE / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "metrics": metrics, "extra": extra,
              "result": result}
    with open(reports / f"{name}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "frlstsvm" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'frlstsvm'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
