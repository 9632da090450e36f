"""The benchmark's tracer wraps library functions by module attribute
(perfbench/tracer.py, SITES) before a traced run, and reads a few
arguments and results of theirs (ATTRS) into per-layer metrics. Every
name it lists must resolve on the library, and a traced run must still
yield every per-layer metric that BENCHMARK.json declares."""
from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from helpers import count_threads, make_circles

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def traced_sites() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["SITES"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SITES assignment in {TRACER}")


def test_every_traced_site_resolves():
    sites = traced_sites()
    assert sites
    missing = []
    for mod_name, attrs in sites.items():
        module = importlib.import_module(f"frlstsvm.{mod_name}")
        missing += [f"frlstsvm.{mod_name}.{attr}" for attr in attrs
                    if not callable(getattr(module, attr, None))]
    assert missing == []


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_derives_every_per_layer_metric(tmp_path):
    # What the benchmark's child does, in miniature: a nested CV, then a
    # fit, save, load and predict per kernel, all under one job span.
    # Calls go through the module attributes the tracer wraps.
    import frlstsvm
    from frlstsvm import classifier, dataset, experiment, fuzzy_rough

    tracing = load_tracer_module()
    x, y = make_circles(95, m1=12, m2=36)
    ds = dataset.LabeledDataset(x, y)
    cv_config = experiment.ExperimentConfig(
        tau_grid=(0.0, 0.3), gamma_grid=(1.0,), c1_grid=(1.0,), folds=3,
        repeats=1, seed=1, workers=1)
    # min-t-norm fits at gamma 1, whose clip is idle on scaled rows,
    # read both classes' weights off distance sums and build no
    # similarity; the product t-norm builds the minority's similarity
    fit_configs = [
        classifier.TrainConfig(c1=1.0, c2=1.0, tau=0.2,
                               fuzzy=fuzzy_rough.FuzzyParams(gamma=1.0,
                                                             tnorm=tnorm),
                               kernel=kernel, sigma=sigma)
        for kernel, sigma, tnorm in (("linear", None, "minimum"),
                                     ("gaussian", 0.5, "minimum"),
                                     ("linear", None, "product"))
    ]
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install(frlstsvm)
    try:
        with tracer.span(tracing.JOB):
            experiment.run_nested_cv(cv_config, ds)
            for cfg in fit_configs:
                model = classifier.fit_frlstsvm(ds, cfg)
                path = str(tmp_path / f"{cfg.kernel}_{cfg.fuzzy.tnorm}.model")
                classifier.save_model(model, path)
                classifier.predict(classifier.load_model(path), x, True)
    finally:
        tracer.uninstall()
    assert not hasattr(classifier.predict, "__wrapped__")

    common, _ = tracing.derive(tracer.collect())
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    # run.py computes trace.overhead_s from a traced and an untraced run
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    assert wanted - set(common) == set()
    for name in ("classifier.fit_calls", "classifier.predict_rows",
                 "classifier.model_bytes", "linalg.spd_solve_calls",
                 "fuzzy_rough.similarity_calls", "experiment.grid_points"):
        assert common[name] > 0, name


def test_a_gaussian_predict_opens_no_span_inside_its_own(tmp_path,
                                                         monkeypatch):
    # predict runs its row blocks on worker threads, and the tracer's
    # span stack is one per process: a wrapped site called from a worker
    # would record a span under predict's, or under whatever the caller
    # has open at that moment
    import frlstsvm.experiment  # install() wraps its sites too
    from frlstsvm import classifier, dataset, fuzzy_rough, linalg

    tracing = load_tracer_module()
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: [0, 1, 2, 3])
    x, y = make_circles(96, m1=30, m2=90)
    cfg = classifier.TrainConfig(c1=1.0, c2=1.0, tau=0.0,
                                 fuzzy=fuzzy_rough.FuzzyParams(gamma=1.0),
                                 kernel="gaussian", sigma=0.5)
    model = classifier.fit_frlstsvm(dataset.LabeledDataset(x, y), cfg)
    # rows taken as scaled, so the calling thread opens no minmax_apply
    # span either
    model = dataclasses.replace(model, scaling=None)
    batch = np.random.default_rng(97).uniform(0, 1, size=(5000, 2))
    assert len(classifier._block_bounds(5000, model.x_ref.shape[0])) >= 4
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install(frlstsvm)
    try:
        classifier.predict(model, batch, True)
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    assert [s["name"] for s in spans] == ["classifier.predict"]
    assert spans[0]["attrs"] == {"rows": 5000}


def test_a_threaded_lone_fit_records_the_spans_of_one_cpu(tmp_path,
                                                          monkeypatch):
    # a majority of at least 1024 rows has its row sums summed on worker
    # threads, and the tracer's span stack is one per process: no block
    # may call a wrapped site. Under the product t-norm each block is
    # the similarity of its rows, built by an unwrapped helper
    import frlstsvm.experiment  # install() wraps its sites too
    from frlstsvm import classifier, dataset, fuzzy_rough, linalg

    tracing = load_tracer_module()
    x, y = make_circles(98, m1=30, m2=1100)
    cfg = classifier.TrainConfig(
        c1=1.0, c2=1.0, tau=0.37,
        fuzzy=fuzzy_rough.FuzzyParams(gamma=1.0, tnorm="product"))
    started, _ = count_threads(monkeypatch)
    names = {}
    for cpus in ([0], [0, 1, 2, 3]):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        tracer = tracing.Tracer(str(tmp_path / str(len(cpus))))
        tracer.install(frlstsvm)
        try:
            model = classifier.fit_frlstsvm(dataset.LabeledDataset(x, y),
                                            cfg)
        finally:
            tracer.uninstall()
        spans = tracer.collect()
        by_id = {s["id"]: s["name"] for s in spans}
        names[len(cpus)] = [(s["name"], by_id.get(s["parent"]))
                            for s in spans]
        assert 0 < model.summary.m2_kept < 1100
    # the full rows' pass and the kept rows' pass on four threads each
    assert model.summary.m2_kept ** 2 >= fuzzy_rough._THREADED_ENTRIES
    assert len(started) == 8
    assert ("classifier.fit_frlstsvm", None) in names[1]
    # each span under the same parent as on one CPU
    assert names[4] == names[1]
