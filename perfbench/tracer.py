"""Outside-in tracing of the library's public functions.

The tracer replaces functions at the module attributes their callers
look up (``frlstsvm.experiment.fit_linear``, ``frlstsvm.classifier.
spd_solve``, ...) with wrappers that record a span per call: name,
start, end, parent span and a few attributes read from the arguments or
the result. Nothing inside the library changes. A function imported
into several modules is wrapped at each site under one span name,
``<defining module>.<function>``.

Spans stay in memory. Process-pool workers forked while the tracer is
installed inherit the wrappers; each worker writes its spans to a spool
file when it exits, and :meth:`Tracer.collect` merges them. The clock
is ``time.monotonic``, which on Linux is one system-wide clock, so spans
from different processes share a time axis.

Calls into the fuzzy-rough layer also run under ``tracemalloc`` (started
at the outermost fuzzy-rough call, stopped when it returns), which gives
that layer's peak traced allocation without slowing the other layers.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from multiprocessing import util as mp_util

# module -> attributes wrapped there. Every attribute the library's own
# modules use to reach another layer is listed at the module that looks
# it up, plus the entry points the benchmark calls directly.
SITES = {
    "experiment": (
        "run_nested_cv", "grid_points", "stratified_kfold", "fold_rows",
        "subset", "minmax_fit", "minmax_apply", "positive_region_scores",
        "class_weights", "subsample_majority", "fit_linear", "fit_kernel",
        "fit_frlstsvm", "predict", "confusion", "report",
    ),
    "classifier": (
        "minmax_fit", "minmax_apply", "positive_region_scores",
        "class_weights", "subsample_majority", "spd_solve", "gaussian_gram",
        "fit_linear", "fit_kernel", "fit_frlstsvm", "predict", "save_model",
        "load_model",
    ),
    "fuzzy_rough": ("indiscernibility_matrix",),
    "dataset": ("load_csv",),
    "metrics": ("confusion", "report"),
}

JOB = "bench.job"


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) == 1 else int(shape[0])


def _attrs_spd_solve(args, result, exc):
    a, b = args[0], args[1]
    n = int(a.shape[0])
    k = 1 if getattr(b, "ndim", 1) == 1 else int(b.shape[1])
    rep = result[1] if result is not None else getattr(exc, "report", None)
    out = {"n": n, "k": k}
    if rep is not None:
        out["attempts"] = rep.factorization_attempts
        out["ridge"] = rep.ridge_added
    return out


def _attrs_subsample(args, result, exc):
    scores = args[0]
    out = {"tau": float(args[1]), "gamma": float(scores.params.gamma),
           "total": int(scores.scores.shape[0])}
    if result is not None:
        out["kept"] = int(result.kept_indices.shape[0])
    return out


def _attrs_grid_points(args, result, exc):
    if exc is not None:
        return {}
    config = args[0]
    inner = (config.inner_folds if config.inner_folds is not None
             else config.folds - 1)
    first = result[0]
    per_group = sum(1 for p in result
                    if (p.tau, p.gamma) == (first.tau, first.gamma))
    return {"points": len(result), "inner_folds": inner,
            "per_group": per_group}


ATTRS = {
    "linalg.spd_solve": _attrs_spd_solve,
    "fuzzy_rough.indiscernibility_matrix":
        lambda args, result, exc: {"p": _rows(args[0])},
    "fuzzy_rough.subsample_majority": _attrs_subsample,
    "classifier.predict": lambda args, result, exc: {"rows": _rows(args[1])},
    "classifier.save_model": lambda args, result, exc: (
        {} if exc is not None else {"bytes": os.path.getsize(args[1])}),
    "experiment.grid_points": _attrs_grid_points,
}


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []
        self._fuzzy_depth = 0
        self._fork_hook = False

    # -- recording --------------------------------------------------

    def _open(self) -> tuple[str, str | None, float]:
        sid = f"{self.pid}:{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.monotonic()

    def _close(self, sid, parent, name, start, attrs, error) -> None:
        end = time.monotonic()
        self._stack.pop()
        self.spans.append({
            "id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "pid": self.pid, "attrs": attrs,
            "error": error,
        })

    @contextmanager
    def span(self, name: str):
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, {}, None)

    def _wrap(self, fn, name: str):
        attrs_of = ATTRS.get(name)
        fuzzy = name.startswith("fuzzy_rough.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost_fuzzy = fuzzy and self._fuzzy_depth == 0
            if fuzzy:
                self._fuzzy_depth += 1
                if outermost_fuzzy:
                    tracemalloc.start()
            sid, parent, start = self._open()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                attrs = attrs_of(args, result, exc) if attrs_of else {}
                if fuzzy:
                    self._fuzzy_depth -= 1
                    if outermost_fuzzy:
                        attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                self._close(sid, parent, name, start, attrs,
                            type(exc).__name__ if exc is not None else None)

        return wrapper

    # -- installing -------------------------------------------------

    def install(self, package) -> None:
        """Wrap every site in SITES on the imported package."""
        for mod_name, attrs in SITES.items():
            module = getattr(package, mod_name)
            for attr in attrs:
                fn = getattr(module, attr)
                short = fn.__module__.rsplit(".", 1)[-1]
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{short}.{fn.__name__}"))
        if not self._fork_hook:
            mp_util.register_after_fork(self, Tracer._after_fork)
            self._fork_hook = True

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _after_fork(self) -> None:
        # Runs in a multiprocessing child. It keeps the inherited
        # wrappers, records into a fresh list and spools it at exit.
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._fuzzy_depth = 0
        if self.installed:
            mp_util.Finalize(self, self._spool, exitpriority=10)

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def collect(self) -> list[dict]:
        """This process's spans plus every spooled worker span; spool
        files are consumed."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spool_dir,
                                                  "spans-*.json"))):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.load(fh))
            os.remove(path)
        return spans


# -- derived metrics ----------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def derive(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from a list of spans.

    Returns (common, extra): ``common`` holds the metrics every workload
    produces, ``extra`` those that exist only where their layer runs
    (k-fold planning, the kernel path, nested CV).
    """
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(*names):
        return sum(_dur(s) for s in named(*names))

    def self_time(span_list):
        return sum(_dur(s) - sum(_dur(c) for c in children.get(s["id"], []))
                   for s in span_list)

    sim = named("fuzzy_rough.indiscernibility_matrix")
    subs = [s for s in named("fuzzy_rough.subsample_majority")
            if s["error"] is None]
    fuzzy_peaks = [s["attrs"]["peak_bytes"] for s in spans
                   if "peak_bytes" in s["attrs"]]
    solves = named("linalg.spd_solve")
    fits = named("classifier.fit_linear", "classifier.fit_kernel")
    predicts = named("classifier.predict")
    saves = named("classifier.save_model")
    grids = named("experiment.grid_points")

    # A grid point is invalid on an inner fold when tau empties the
    # majority (subsample raises, killing every point of that
    # (gamma, tau) group), the system is singular (the fit raises), or
    # the model is degenerate (predict raises). Only failures below a
    # grid search count; the outer refit inside fit_frlstsvm does not.
    names_by_id = {s["id"]: s["name"] for s in spans}

    def in_search(s):
        return names_by_id.get(s["parent"]) != "classifier.fit_frlstsvm"

    per_group = grids[0]["attrs"]["per_group"] if grids else 0
    empty = per_group * sum(
        1 for s in named("fuzzy_rough.subsample_majority")
        if s["error"] == "ConfigurationError" and in_search(s))
    singular = sum(1 for s in fits
                   if s["error"] == "SingularSystemError" and in_search(s))
    degenerate = sum(1 for s in predicts
                     if s["error"] == "DegenerateModelError"
                     and in_search(s))

    # job.self_s: time inside the job's library entry point that no
    # other span (in any process) covers.
    job_ids = {s["id"] for s in named(JOB)}
    entries = [s for s in spans if s["parent"] in job_ids]
    job_self = 0.0
    for e in entries:
        inside = [(s["start"], s["end"]) for s in spans
                  if s["id"] != e["id"] and s["start"] >= e["start"]
                  and s["end"] <= e["end"]]
        job_self += _dur(e) - _union_length(inside)

    common = {
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.scale_s": total("dataset.minmax_fit", "dataset.minmax_apply"),
        "fuzzy_rough.similarity_s": total("fuzzy_rough.indiscernibility_matrix"),
        "fuzzy_rough.similarity_calls": len(sim),
        "fuzzy_rough.similarity_pairs": sum(s["attrs"]["p"] ** 2 for s in sim),
        "fuzzy_rough.scores_s": total("fuzzy_rough.positive_region_scores"),
        "fuzzy_rough.weights_s": total("fuzzy_rough.class_weights"),
        "fuzzy_rough.subsample_s": total("fuzzy_rough.subsample_majority"),
        "fuzzy_rough.kept_fraction": (
            sum(s["attrs"]["kept"] for s in subs)
            / max(1, sum(s["attrs"]["total"] for s in subs))),
        "fuzzy_rough.peak_traced_mb": max(fuzzy_peaks, default=0) / 2 ** 20,
        "linalg.spd_solve_s": total("linalg.spd_solve"),
        "linalg.spd_solve_calls": len(solves),
        "linalg.factor_attempts": sum(s["attrs"].get("attempts", 0)
                                      for s in solves),
        "linalg.ridge_escalations": sum(1 for s in solves
                                        if s["attrs"].get("ridge", 0) > 0),
        "linalg.max_order": max((s["attrs"]["n"] for s in solves), default=0),
        "linalg.flops_computed": sum(
            s["attrs"]["n"] ** 3 / 3 + 2 * s["attrs"]["n"] ** 2 * s["attrs"]["k"]
            for s in solves),
        "classifier.fit_s": sum(_dur(s) for s in fits),
        "classifier.fit_calls": len(fits),
        "classifier.fit_self_s": self_time(fits),
        "classifier.predict_s": total("classifier.predict"),
        "classifier.predict_rows": sum(s["attrs"]["rows"] for s in predicts),
        "classifier.save_s": total("classifier.save_model"),
        "classifier.load_s": total("classifier.load_model"),
        "classifier.model_bytes": saves[-1]["attrs"]["bytes"] if saves else 0,
        "metrics.report_s": total("metrics.report", "metrics.confusion"),
        "experiment.grid_points": sum(
            s["attrs"]["points"] * s["attrs"]["inner_folds"] for s in grids),
        "experiment.grid_points_invalid": empty + singular + degenerate,
        "experiment.invalid_empty_majority": empty,
        "experiment.invalid_singular": singular,
        "experiment.invalid_degenerate": degenerate,
        "job.self_s": job_self,
    }

    kept = {}
    for s in subs:
        key = f"fuzzy_rough.kept_fraction.gamma{s['attrs']['gamma']:g}" \
              f".tau{s['attrs']['tau']:g}"
        k, t = kept.get(key, (0, 0))
        kept[key] = (k + s["attrs"]["kept"], t + s["attrs"]["total"])
    extra = {
        "dataset.kfold_s": total("dataset.stratified_kfold",
                                 "dataset.fold_rows", "dataset.subset"),
        "classifier.fit_linear_s": total("classifier.fit_linear"),
        "classifier.fit_linear_calls": len(named("classifier.fit_linear")),
        "classifier.fit_kernel_s": total("classifier.fit_kernel"),
        "classifier.fit_kernel_calls": len(named("classifier.fit_kernel")),
        "classifier.gram_s": total("classifier.gaussian_gram"),
        "classifier.gram_calls": len(named("classifier.gaussian_gram")),
        "experiment.self_s": self_time(named("experiment.run_nested_cv")),
    }
    extra.update({k: v[0] / v[1] for k, v in sorted(kept.items())})
    return common, extra
