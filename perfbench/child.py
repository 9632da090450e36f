"""One benchmark process: set-up, one workload, and its output checks.

``run.py`` starts this script with the BLAS thread variables already in
its environment, so they are in force before numpy is imported. It
writes one JSON result file and exits 0, or exits non-zero when the
library cannot be imported from the checkout.

    python3 perfbench/child.py --workload NAME --seed N --csv FILE
        --out FILE --work DIR --t0 MONOTONIC [--seconds S] [--trace 0|1]
        [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Serving bursts come before every job and fill the run after the last
# one; at least this many seconds of them per untraced run.
SERVING_MIN_S = 3.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class Ledger:
    """Operations attempted and failed; a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: dict[str, bool] = {}
        self.last_error: Exception | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed {detail}".strip())

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn; an exception is counted and re-raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            self.last_error = exc
            raise


def _blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library."""
    import ctypes
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def machine_facts(thread_env: dict) -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "blas_threads": _blas_threads(),
        "thread_env": thread_env,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Bench:
    """Runs one workload.

    An untraced run alternates short bursts of model loads and batch
    predictions with jobs (one nested-CV repeat, or one fit), starts no
    job that would end after the deadline, and fills the time left with
    bursts (at least SERVING_MIN_S seconds of them in all), so the
    serving samples spread over the whole run. A traced
    run does a fixed amount of work, so its per-layer sums are
    comparable from run to run: the workload's jobs untraced, the same
    jobs traced, then one traced round of serving.
    """

    def __init__(self, frl, wl, args, ds, tracer):
        from workloads import (C_GRID, FIT_C, FIT_GAMMA, FIT_TAU, GAMMA_GRID,
                               INNER_FOLDS, KERNEL_SIGMA, OUTER_FOLDS,
                               TAU_GRID)
        self.frl = frl
        self.wl = wl
        self.args = args
        self.ds = ds
        self.tracer = tracer
        self.ledger = Ledger()
        self.out: dict = {"job_samples": [], "load_samples": [],
                          "predict_samples": []}
        self.cv_config = frl.experiment.ExperimentConfig(
            tau_grid=TAU_GRID, gamma_grid=GAMMA_GRID, c1_grid=C_GRID,
            folds=OUTER_FOLDS, inner_folds=INNER_FOLDS, repeats=1,
            seed=args.seed, workers=wl.workers)
        gaussian = wl.kernel == "gaussian"
        self.fit_config = frl.classifier.TrainConfig(
            c1=FIT_C, c2=FIT_C, tau=FIT_TAU,
            fuzzy=frl.fuzzy_rough.FuzzyParams(gamma=FIT_GAMMA),
            kernel=wl.kernel, sigma=KERNEL_SIGMA if gaussian else None)
        self.reference: str | None = None
        self.model = None
        self.loaded = None
        self.serving_s = 0.0

    # -- jobs --------------------------------------------------------

    def job(self) -> float:
        """One nested-CV repeat (checked) or one fit; returns seconds."""
        traced = self.tracer is not None and self.tracer.installed
        span = (self.tracer.span("bench.job") if traced
                else contextlib.nullcontext())
        t0 = time.monotonic()
        with span:
            result = self._job_body(self.cv_config)
        dt = time.monotonic() - t0
        if self.wl.kind == "cv":
            self._check_cv(result, (
                f"cv_csv_identical_to_workers_{self.wl.check_workers}"
                if self.wl.check_workers else "cv_csv_identical_on_rerun"))
        else:
            self.model = result
        return dt

    def _job_body(self, config):
        if self.wl.kind == "cv":
            return self.ledger.run("run_nested_cv",
                                   self.frl.experiment.run_nested_cv,
                                   config, self.ds)
        return self.ledger.run("fit_frlstsvm",
                               self.frl.classifier.fit_frlstsvm,
                               self.ds, self.fit_config)

    def _check_cv(self, result, label: str) -> None:
        from workloads import CV_GMEAN_FLOOR, OUTER_FOLDS
        lg = self.ledger
        values = [v for pair in result.aggregates.values() for v in pair]
        lg.check("cv_aggregates_finite",
                 all(math.isfinite(v) for v in values))
        gmean = result.aggregates["gmean"][0]
        lg.check("cv_gmean_floor", gmean >= CV_GMEAN_FLOOR,
                 f"(gmean {gmean:.4f} < {CV_GMEAN_FLOOR})")
        lg.check("cv_record_count", len(result.records) == OUTER_FOLDS)
        text = self.frl.experiment.cv_csv_text(result)
        if self.reference is None:
            self.reference = text
        else:
            lg.check(label, text == self.reference)
        self.out["gmean"] = gmean

    def reference_run(self) -> None:
        """Criterion 8 from outside: one repeat with check_workers
        workers, whose result file every job's must equal byte for byte.
        Also times it for the parallel efficiency."""
        config = dataclasses.replace(self.cv_config,
                                     workers=self.wl.check_workers)
        t0 = time.monotonic()
        result = self._job_body(config)
        self.out["reference_s"] = time.monotonic() - t0
        self.out["reference_workers"] = self.wl.check_workers
        self._check_cv(result, "")

    # -- serving -----------------------------------------------------

    def prepare_serving(self) -> None:
        """Save the model twice, load it, predict a labelled batch with
        both models and check the outputs."""
        import numpy as np
        from datagen import make_batch
        from workloads import HOLDOUT_GMEAN_FLOOR, PREDICT_ROWS
        cls = self.frl.classifier
        mets = self.frl.metrics
        lg = self.ledger
        self.batch, yb = make_batch(self.wl.shape, self.args.seed,
                                    PREDICT_ROWS)
        self.path = os.path.join(self.args.work, "model-a.txt")
        path_b = os.path.join(self.args.work, "model-b.txt")
        lg.run("save_model", cls.save_model, self.model, self.path)
        lg.run("save_model", cls.save_model, self.model, path_b)
        with open(self.path, "rb") as fa, open(path_b, "rb") as fb:
            lg.check("save_twice_identical", fa.read() == fb.read())
        self.loaded = lg.run("load_model", cls.load_model, self.path)
        mem = lg.run("predict", cls.predict, self.model, self.batch, True)
        got = lg.run("predict", cls.predict, self.loaded, self.batch, True)
        lg.check("loaded_matches_in_memory_bitwise", all(
            a.dtype == b.dtype and a.tobytes() == b.tobytes()
            for a, b in zip(mem, got)))
        labels = got[0]
        lg.check("predict_labels_valid",
                 labels.shape == (PREDICT_ROWS,)
                 and bool(np.all(np.isin(labels, (1, -1)))))
        holdout = mets.report(mets.confusion(yb, labels)).gmean
        lg.check("holdout_gmean_floor", holdout >= HOLDOUT_GMEAN_FLOOR,
                 f"(gmean {holdout:.4f} < {HOLDOUT_GMEAN_FLOOR})")
        self.out["predict_rows"] = PREDICT_ROWS
        if self.wl.kind == "fit":
            self.out["gmean"] = holdout

    def burst(self, min_samples: int = 2, budget_s: float = 0.25) -> None:
        """Time loads of the saved model, then batch predictions with
        the loaded one: at least min_samples of each and budget_s
        seconds on each."""
        cls = self.frl.classifier
        lg = self.ledger
        for key, fn in (
                ("load_samples",
                 lambda: lg.run("load_model", cls.load_model, self.path)),
                ("predict_samples",
                 lambda: lg.run("predict", cls.predict, self.loaded,
                                self.batch))):
            begin = time.monotonic()
            n = 0
            while n < min_samples or time.monotonic() < begin + budget_s:
                t0 = time.monotonic()
                fn()
                self.out[key].append(time.monotonic() - t0)
                n += 1
            self.serving_s += time.monotonic() - begin

    # -- runs --------------------------------------------------------

    def run(self) -> None:
        """Run the workload; the figures accumulate in self.out."""
        start = time.monotonic()
        if self.wl.kind == "cv":
            self.model = self.ledger.run("fit_frlstsvm",
                                         self.frl.classifier.fit_frlstsvm,
                                         self.ds, self.fit_config)
            self.prepare_serving()
        if self.args.trace:
            self.run_traced()
        else:
            self.run_timed(start + self.args.seconds)
        self.out["peak_rss_mb"] = peak_rss_mb()

    def run_timed(self, deadline: float) -> None:
        if self.wl.check_workers:
            self.burst()
            self.reference_run()
        while True:
            if self.loaded is not None:
                self.burst()
            dt = self.job()
            self.out["job_samples"].append(dt)
            if self.loaded is None:
                self.prepare_serving()
            if time.monotonic() + dt > deadline:
                break
        while (time.monotonic() < deadline
               or self.serving_s < SERVING_MIN_S):
            self.burst()

    def run_traced(self) -> None:
        if self.wl.check_workers:
            self.reference_run()
        for _ in range(self.wl.traced_jobs):
            self.out["job_samples"].append(self.job())
        self.tracer.install(self.frl)
        self.out["job_traced"] = [self.job()
                                  for _ in range(self.wl.traced_jobs)]
        self.prepare_serving()
        self.burst(min_samples=10, budget_s=0.0)


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--csv", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import frlstsvm
    import frlstsvm.classifier
    import frlstsvm.dataset
    import frlstsvm.experiment
    import frlstsvm.fuzzy_rough
    import frlstsvm.metrics
    if not Path(frlstsvm.__file__).resolve().is_relative_to(src.resolve()):
        print(f"frlstsvm imported from {frlstsvm.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    tracer = None
    if args.trace and not args.setup_only:
        from tracer import Tracer
        tracer = Tracer(args.work)
        tracer.install(frlstsvm)
    ds = frlstsvm.dataset.load_csv(args.csv, positive_label="positive",
                                   has_header=True)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if tracer is not None:
            tracer.uninstall()
        from workloads import WORKLOADS
        bench = Bench(frlstsvm, WORKLOADS[args.workload], args, ds, tracer)
        lg = bench.ledger
        try:
            bench.run()
        except Exception as exc:
            # A library call that raised is already counted; anything
            # else is a failure of the run itself.
            if exc is not lg.last_error:
                lg.attempted += 1
                lg.failed += 1
                lg.failures.append(traceback.format_exc())
        result.update(bench.out)
        result.update(attempted=lg.attempted, failed=lg.failed,
                      failures=lg.failures, checks=lg.checks,
                      facts=machine_facts(thread_env))
        if tracer is not None:
            from tracer import derive
            tracer.uninstall()
            spans = tracer.collect()
            common, extra = derive(spans)
            result["per_layer"] = common
            result["per_layer_extra"] = extra
            with open(os.path.join(args.work, "spans.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(spans, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
