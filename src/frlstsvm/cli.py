"""Command-line surface: train, predict, eval, subsample, cv.

The cv command's flags are generated from experiment.CONFIG_KEYS: one
per config key, taking the config file's text, so parse_config and
ExperimentConfig check a flag's value as they check a file's.
"""

from __future__ import annotations

import argparse
import os
import sys

from .classifier import (
    KERNELS,
    PreparedFold,
    TrainConfig,
    fit_frlstsvm,
    load_model,
    predict,
    save_model,
)
from .dataset import FORMATS, atomic_write, load_labeled, load_matrix_csv
from .errors import ExperimentError, FrlstsvmError
from .experiment import (
    CONFIG_KEYS,
    CvResult,
    _aggregate,
    format_cv_table,
    parse_config,
    run_nested_cv,
    write_cv_result,
)
from .fuzzy_rough import T_NORMS, FuzzyParams, check_tau
from .metrics import CONVENTIONS, confusion, csv_line, format_report, report


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input data file")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--positive-label", default=None,
                   help="raw label mapped to +1 (default: smaller class)")
    p.add_argument("--label-column", type=CONFIG_KEYS["label_column"][1],
                   default=-1,
                   help="CSV label column index or header name")
    p.add_argument("--header", action="store_true",
                   help="CSV file starts with a header row")


def _add_fuzzy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--tnorm", choices=T_NORMS, default="minimum")
    p.add_argument("--score-mode", type=CONFIG_KEYS["score_mode"][1],
                   default="density", help="density or lower-approx")


def _load_labeled(args):
    return load_labeled(args.data, args.format, args.label_column,
                        args.positive_label, args.header)


def _fuzzy_from_args(args) -> FuzzyParams:
    return FuzzyParams(gamma=args.gamma, tnorm=args.tnorm,
                       score_mode=args.score_mode)


def _config_from_args(args) -> TrainConfig:
    return TrainConfig(
        c1=args.c1, c2=args.c2, tau=args.tau, fuzzy=_fuzzy_from_args(args),
        delta=args.delta, kernel=args.kernel, sigma=args.sigma,
        weights_enabled=not args.no_weights,
    )


def cmd_train(args) -> int:
    ds = _load_labeled(args)
    model = fit_frlstsvm(ds, _config_from_args(args))
    save_model(model, args.out)
    s = model.summary
    print(
        f"trained {args.kernel} model on {ds.n_rows} rows "
        f"({s.m1} minority, {s.m2_kept}/{s.m2_total} majority kept), "
        f"saved to {args.out}"
    )
    for plane, rep in s.solver_reports.items():
        if rep.ridge_added:
            print(f"{plane}: solver added ridge {rep.ridge_added:.3g} "
                  f"after {rep.factorization_attempts} factorizations")
    return 0


def _prediction_features(args):
    """The rows to label: a CSV file without --label-column is all
    features, any other file loses its label column."""
    if args.format == "csv" and args.label_column is None:
        return load_matrix_csv(args.data, args.header)
    return _load_labeled(args).features


def cmd_predict(args) -> int:
    model = load_model(args.model)
    x = _prediction_features(args)
    labels, d1, d2 = predict(model, x, return_distances=True)
    lines = ["row,label,dist1,dist2"]
    for i in range(labels.shape[0]):
        lines.append(f"{i},{labels[i]},{d1[i]:.17g},{d2[i]:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write(args.out, text)
        print(f"wrote {labels.shape[0]} predictions to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _short_config(model) -> str:
    cfg = model.config
    parts = [
        f"tau={cfg.tau:g}", f"gamma={cfg.fuzzy.gamma:g}",
        f"c1={cfg.c1:g}", f"c2={cfg.c2:g}", f"kernel={cfg.kernel}",
    ]
    if cfg.sigma is not None:
        parts.append(f"sigma={cfg.sigma:g}")
    return ";".join(parts)


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = _load_labeled(args)
    pred = predict(model, ds.features)
    rep = report(confusion(ds.labels, pred), args.metric_convention)
    dataset_name = os.path.basename(args.data)
    print(format_report(rep, dataset=dataset_name,
                        config=_short_config(model)))
    if args.out:
        header = "dataset,config,acc,sen,spe,gmean,convention"
        line = csv_line(rep, dataset=dataset_name,
                        config=_short_config(model))
        atomic_write(args.out, header + "\n" + line + "\n")
    return 0


def cmd_subsample(args) -> int:
    check_tau(args.tau)
    fuzzy = _fuzzy_from_args(args)
    ds = _load_labeled(args)
    # a fold for one fit's scores holds no m2 x m2 similarity
    scores = PreparedFold(ds.features, ds.labels, hold=False).scores(fuzzy)
    kept = scores.scores >= args.tau
    lines = ["index,row,score,kept"]
    for i, (row, score) in enumerate(
            zip(scores.row_indices, scores.scores)):
        lines.append(f"{i},{int(row)},{score:.17g},{int(kept[i])}")
    text = "\n".join(lines) + "\n"
    print(f"{'index':>6} {'row':>6} {'score':>10} kept")
    for i, (row, score) in enumerate(
            zip(scores.row_indices, scores.scores)):
        mark = "yes" if kept[i] else "no"
        print(f"{i:>6} {int(row):>6} {score:>10.6f} {mark}")
    print(
        f"tau={args.tau:g}: kept {int(kept.sum())} of {kept.size} "
        "majority instances"
    )
    if args.out:
        atomic_write(args.out, text)
    return 0


def cmd_cv(args) -> int:
    # each cv flag stores under its config key
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS
                 if getattr(args, key) is not None}
    config = parse_config(args.config, overrides)
    try:
        result = run_nested_cv(config)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.out and exc.partial_records:
            partial = CvResult(
                records=exc.partial_records,
                aggregates=_aggregate(exc.partial_records),
                folds=config.folds, repeats=config.repeats,
                convention=config.convention, wall_time=0.0,
            )
            write_cv_result(partial, args.out)
            print(
                f"partial results ({len(exc.partial_records)} folds) "
                f"written to {args.out}",
                file=sys.stderr,
            )
        return 1
    print(format_cv_table(result))
    if args.out:
        write_cv_result(result, args.out)
        print(f"results written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frlstsvm",
        description=(
            "Fuzzy-rough weighted least-squares twin SVM for imbalanced "
            "binary classification"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and save it")
    _add_data_flags(p)
    _add_fuzzy_flags(p)
    p.add_argument("--tau", type=float, default=0.0,
                   help="keep the majority rows scoring at least tau "
                        "(default 0: keep every row)")
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--kernel", choices=KERNELS, default="linear")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--no-weights", action="store_true")
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label new rows with a model")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--out", default=None)
    # without --label-column every CSV column is a feature
    p.set_defaults(func=cmd_predict, label_column=None)

    p = sub.add_parser("eval", help="score a model on labeled data")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--metric-convention", choices=CONVENTIONS,
                   default="standard")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "subsample",
        help="inspect majority positive-region scores at a threshold",
    )
    _add_data_flags(p)
    _add_fuzzy_flags(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser(
        "cv", help="nested repeated cross-validation",
        description="Every flag but --config and --out sets the config "
                    "key of its name (--metric-convention sets "
                    "convention) and takes the config file's text.")
    p.add_argument("--config", default=None, help="key = value file")
    for key in CONFIG_KEYS:
        flag = ("--metric-convention" if key == "convention"
                else "--" + key.replace("_", "-"))
        p.add_argument(flag, dest=key, default=None)
    p.add_argument("--out", default=None, help=".csv or .jsonl results")
    p.set_defaults(func=cmd_cv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FrlstsvmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
