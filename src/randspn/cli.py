"""Command-line front end for desk-scale experiments.

Subcommands: ``train`` (fit or warm-start a model, emit per-epoch metrics),
``eval`` (accuracy / cross-entropy / normalized nLL / mean input
log-likelihood), ``sweep-missing`` (accuracy as a function of the fraction
of randomly discarded features) and ``ood`` (input log-likelihood histograms
and a ranking statistic separating two datasets).

Every run writes ``<out>.manifest.json`` recording the argv, configuration,
seeds, sha256 fingerprints of all input files, output paths and wall-clock,
which is enough to reproduce the run exactly.

Dataset specs: ``idx:IMAGES,LABELS`` | ``idx-nolabel:IMAGES`` | ``csv:PATH``
(labels in the last column, read as 0-based ids) | ``csv-nolabel:PATH``.

Exit codes: 0 ok, 1 standard output closed early (broken pipe), 2
usage/configuration error, 3 data or format error, 4 numeric failure during
training.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import (
    Dataset,
    TrainConfig,
    apply_scaling,
    classify,
    construct_circuit,
    count_parameters,
    cross_entropy,
    empirical_log_prior,
    forward_log,
    init_parameters,
    load_csv,
    load_idx,
    load_model,
    log_marginal_input,
    neg_log_likelihood,
    random_missing_mask,
    random_region_graph,
    save_model,
    scale_features,
    split_dataset,
    train,
    uniform_log_prior,
)
from .data import Scaling, check_labels
from .errors import DataFormatError, InvalidInput, NumericFailure
from .inference import check_log_prior, logsumexp


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest exact decimal, numpy scalars included
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def parse_data_spec(spec: str):
    """Split a dataset spec into (kind, [paths], labeled)."""
    if ":" not in spec:
        raise InvalidInput(
            f"dataset spec {spec!r} needs a prefix "
            "(idx:, idx-nolabel:, csv:, csv-nolabel:)"
        )
    prefix, rest = spec.split(":", 1)
    if prefix == "idx":
        paths = rest.split(",")
        if len(paths) != 2:
            raise InvalidInput("idx: spec needs IMAGES,LABELS paths")
        return "idx", paths, True
    if prefix == "idx-nolabel":
        return "idx", [rest], False
    if prefix == "csv":
        return "csv", [rest], True
    if prefix == "csv-nolabel":
        return "csv", [rest], False
    raise InvalidInput(f"unknown dataset prefix {prefix!r} in {spec!r}")


def load_data_spec(spec: str, require_samples=True) -> Dataset:
    kind, paths, labeled = parse_data_spec(spec)
    if kind == "idx":
        data = load_idx(paths[0], paths[1] if labeled else None)
    else:
        data = load_csv(paths[0], label_column="last" if labeled else None)
    if require_samples and len(data) == 0:
        raise DataFormatError(f"dataset {spec!r} is empty")
    return data


def _fingerprints(specs: dict[str, str]):
    out = {}
    for role, spec in specs.items():
        if spec is None:
            continue
        _, paths, _ = parse_data_spec(spec)
        out[role] = {"spec": spec, "sha256": {p: _sha256(p) for p in paths}}
    return out


def _write_manifest(args, outputs, data_specs, started, extra=None):
    manifest = {
        "command": args.command,
        "argv": list(args.effective_argv),
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("command", "func")
        },
        "datasets": _fingerprints(data_specs),
        "outputs": sorted(outputs),
        "wall_clock_seconds": time.perf_counter() - started,
    }
    if extra:
        manifest.update(extra)
    path = args.out + ".manifest.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _prior_from_flag(args, circuit, meta, data):
    if args.prior == "uniform":
        return uniform_log_prior(circuit.classes_C)
    stored = (meta or {}).get("provenance", {}).get("class_log_prior")
    if stored is not None:
        try:
            # a class absent from the training labels has prior log 0, stored as null
            stored = [-np.inf if v is None else v for v in stored]
            return check_log_prior(stored, circuit.classes_C)
        except (TypeError, ValueError) as exc:  # InvalidInput included
            raise DataFormatError(f"model provenance class_log_prior: {exc}") from exc
    if data.labels is None:
        raise InvalidInput(
            "--prior empirical needs label frequencies, but neither the model "
            "provenance nor the dataset carries labels"
        )
    return empirical_log_prior(data.labels, circuit.classes_C)


def cmd_train(args):
    started = time.perf_counter()
    parse_data_spec(args.data)  # config check before any work
    if not 0 <= args.valid_fraction < 1:  # NaN fails too
        raise InvalidInput("--valid-fraction must lie in [0, 1)")
    if args.classes is not None and args.classes < 1:
        raise InvalidInput(f"--classes must be >= 1, got {args.classes}")
    raw = load_data_spec(args.data)
    if raw.labels is None:
        raise DataFormatError("training data must carry labels")

    if args.warm_start:
        circuit, params, meta = load_model(args.warm_start)
        train_set = _model_scaled(raw, circuit, meta)
    else:
        train_set = scale_features(raw, args.scale)
        num_classes = args.classes or int(raw.labels.max())
        graph = random_region_graph(
            train_set.num_features, args.depth, args.repetitions, args.seed
        )
        circuit = construct_circuit(graph, num_classes, args.sums, args.leaves)
        try:
            params = init_parameters(
                circuit,
                seed=args.seed,
                feature_stats=train_set.feature_stats() if args.init == "data" else None,
                train_variance=args.train_variance,
            )
        except MemoryError as exc:  # the size flags ask for more than can be allocated
            raise InvalidInput(f"model too large: {exc}") from exc
        meta = None
    scaling = train_set.scaling

    valid_set = None
    if args.valid_fraction > 0:
        try:
            train_set, valid_set = split_dataset(train_set, args.valid_fraction, args.seed)
        except InvalidInput as exc:
            raise InvalidInput(f"--valid-fraction: {exc}") from exc

    config = TrainConfig(
        lam=args.hybrid_lambda,
        epochs=args.epochs,
        batch_size=args.batch_size,
        input_keep=args.keep_input,
        sum_keep=args.keep_sum,
        learning_rate=args.lr,
        beta1=args.beta1,
        beta2=args.beta2,
        epsilon=args.eps,
        seed=args.seed,
    )
    params, metrics = train(circuit, params, train_set, valid_set, config)

    provenance = {
        "lambda": config.lam,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "input_keep": config.input_keep,
        "sum_keep": config.sum_keep,
        "seed": config.seed,
        "warm_start": args.warm_start,
        "class_log_prior": [  # null for log 0: strict JSON has no -Infinity
            float(v) if np.isfinite(v) else None
            for v in empirical_log_prior(train_set.labels, circuit.classes_C)
        ],
    }
    model_path = args.out + ".model.json"
    save_model(circuit, params, model_path, scaling=scaling, provenance=provenance,
               encoding=args.encoding)

    metrics_path = args.out + ".metrics.csv"
    header = ["epoch", "objective", "ce", "nll", "train_accuracy", "valid_accuracy"]
    _write_csv(metrics_path, header, [[row[h] for h in header] for row in metrics])

    manifest = _write_manifest(
        args, [model_path, metrics_path], {"train": args.data}, started,
        {"param_counts": count_parameters(circuit, args.train_variance)},
    )
    if metrics:
        last = metrics[-1]
        print(
            f"epoch {last['epoch']}: objective={last['objective']:.6f} "
            f"ce={last['ce']:.6f} nll={last['nll']:.6f} "
            f"train_acc={last['train_accuracy']:.4f}"
        )
    print(f"model: {model_path}\nmetrics: {metrics_path}\nmanifest: {manifest}")
    return 0


def _model_scaled(raw, circuit, meta, what="data"):
    """``raw`` under the model's scaling; DataFormatError unless it has the model's features."""
    if raw.num_features != circuit.num_vars:  # before scaling, which needs the same width
        raise DataFormatError(
            f"model expects {circuit.num_vars} features, {what} has {raw.num_features}"
        )
    return apply_scaling(raw, meta["scaling"] or Scaling(mode="none"))


def _load_model_and_data(args, spec, require_labels):
    parse_data_spec(spec)  # config check before touching any file
    circuit, params, meta = load_model(args.model)
    raw = load_data_spec(spec)
    if require_labels:
        if raw.labels is None:
            raise DataFormatError(f"dataset {spec!r} must carry labels")
        check_labels(raw.labels, circuit.classes_C)  # before any pass over the data
    return circuit, params, meta, _model_scaled(raw, circuit, meta)


def cmd_eval(args):
    started = time.perf_counter()
    circuit, params, meta, data = _load_model_and_data(args, args.data, True)
    log_prior = _prior_from_flag(args, circuit, meta, data)

    roots = forward_log(circuit, params, data.features)
    predicted = np.argmax(roots + log_prior[None, :], axis=1) + 1
    record = {
        "accuracy": float((predicted == data.labels).mean()),
        "ce": cross_entropy(roots, data.labels),
        "nll": neg_log_likelihood(roots, data.labels, circuit.num_vars),
        # log_marginal_input's formula, applied to the roots above
        "mean_log_px": float(logsumexp(roots + log_prior[None, :]).mean()),
    }
    path = args.out + ".eval.csv"
    _write_csv(path, list(record), [list(record.values())])
    manifest = _write_manifest(args, [path], {"eval": args.data}, started)
    print(
        " ".join(f"{k}={record[k]:.6f}" for k in record)
        + f"\nresults: {path}\nmanifest: {manifest}"
    )
    return 0


def cmd_sweep_missing(args):
    started = time.perf_counter()
    try:
        fractions = [float(v) for v in args.p_list.split(",")]
    except ValueError:
        raise InvalidInput(f"--p-list {args.p_list!r} is not a comma-separated "
                           "list of numbers") from None
    if any(not 0.0 <= p <= 1.0 for p in fractions):
        raise InvalidInput("missing fractions must lie in [0, 1]")
    circuit, params, meta, data = _load_model_and_data(args, args.data, True)
    log_prior = _prior_from_flag(args, circuit, meta, data)

    rows = []
    seeds = np.random.SeedSequence(args.seed).spawn(len(fractions))
    for p, seed in zip(fractions, seeds):
        missing = random_missing_mask(data, p, seed)
        predicted = classify(circuit, params, data.features, log_prior, missing)
        rows.append([p, float((predicted == data.labels).mean())])
        print(f"p={p}: accuracy={rows[-1][1]:.4f}")

    path = args.out + ".sweep.csv"
    _write_csv(path, ["missing_fraction", "accuracy"], rows)
    manifest = _write_manifest(args, [path], {"eval": args.data}, started)
    print(f"results: {path}\nmanifest: {manifest}")
    return 0


def ranking_statistic(scores_in, scores_out) -> float:
    """P(score_in > score_out) + 0.5 P(equal): the area under the ROC curve."""
    n_in, n_out = len(scores_in), len(scores_out)
    _, tie, counts = np.unique(
        np.concatenate([scores_in, scores_out]), return_inverse=True, return_counts=True
    )
    # a tie spanning 1-based ranks last - count + 1 .. last gets their average
    last = np.cumsum(counts)
    ranks = last - 0.5 * (counts - 1)
    rank_sum = ranks[tie[:n_in]].sum()
    return float((rank_sum - n_in * (n_in + 1) / 2) / (n_in * n_out))


def cmd_ood(args):
    started = time.perf_counter()
    if args.bins < 1:
        raise InvalidInput(f"--bins must be >= 1, got {args.bins}")
    if not 0.0 <= args.outlier_percentile <= 100.0:
        raise InvalidInput(
            f"--outlier-percentile must lie in [0, 100], got {args.outlier_percentile}"
        )
    parse_data_spec(args.out_data)
    circuit, params, meta, data_in = _load_model_and_data(args, args.in_data, False)
    data_out = _model_scaled(load_data_spec(args.out_data), circuit, meta, "out-of-domain data")
    log_prior = _prior_from_flag(args, circuit, meta, data_in)

    scores_in = log_marginal_input(circuit, params, data_in.features, log_prior)
    scores_out = log_marginal_input(circuit, params, data_out.features, log_prior)
    auc = ranking_statistic(scores_in, scores_out)

    # a -inf score (an observation of density 0) counts as the lowest finite one
    scores = np.concatenate([scores_in, scores_out])
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        raise DataFormatError("the model gives every sample density 0 (log p(x) = -inf)")
    lo, hi = finite.min(), finite.max()
    edges = np.linspace(lo, hi, args.bins + 1)
    counts_in, _ = np.histogram(np.maximum(scores_in, lo), bins=edges)
    counts_out, _ = np.histogram(np.maximum(scores_out, lo), bins=edges)

    threshold = np.percentile(np.maximum(scores_in, lo), args.outlier_percentile)
    outputs = []

    hist_path = args.out + ".ood_hist.csv"
    _write_csv(
        hist_path,
        ["bin_left", "bin_right", "count_in", "count_out"],
        [
            [edges[i], edges[i + 1], int(counts_in[i]), int(counts_out[i])]
            for i in range(args.bins)
        ],
    )
    outputs.append(hist_path)

    for name, scores in (("in", scores_in), ("out", scores_out)):
        path = args.out + f".ood_scores_{name}.csv"
        _write_csv(
            path,
            ["sample", "log_px", "outlier"],
            [[i, float(s), int(s < threshold)] for i, s in enumerate(scores)],
        )
        outputs.append(path)

    summary_path = args.out + ".ood_summary.csv"
    _write_csv(
        summary_path,
        ["ranking_statistic", "outlier_threshold", "n_in", "n_out"],
        [[auc, float(threshold), len(scores_in), len(scores_out)]],
    )
    outputs.append(summary_path)

    manifest = _write_manifest(
        args, outputs, {"in": args.in_data, "out": args.out_data}, started
    )
    print(
        f"ranking_statistic={auc:.4f} outlier_threshold={threshold:.2f}"
        f"\nresults: {summary_path}\nmanifest: {manifest}"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``randspn`` parser, built once per process.

    ``main`` may run many times in one process, and building the parser
    costs many times more than parsing with it. Sharing it is safe:
    parsing never mutates the parser, and no option has a mutable default
    or an ``append`` action, so every ``parse_args`` starts from the same
    state.
    """
    parser = argparse.ArgumentParser(
        prog="randspn",
        description="Random tensorized sum-product networks at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="run", help="output path prefix")
    common.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train", parents=[common], help="fit or warm-start a model")
    t.add_argument("--data", required=True, help="training dataset spec")
    t.add_argument("--depth", type=int, default=2)
    t.add_argument("--repetitions", type=int, default=4)
    t.add_argument("--sums", type=int, default=5)
    t.add_argument("--leaves", type=int, default=5)
    t.add_argument("--classes", type=int, default=None,
                   help="number of classes (default: max label in the data)")
    t.add_argument("--lambda", dest="hybrid_lambda", type=float, default=1.0,
                   help="objective trade-off: 1 cross-entropy, 0 likelihood")
    t.add_argument("--epochs", type=int, default=20)
    t.add_argument("--batch-size", type=int, default=100)
    t.add_argument("--keep-input", type=float, default=1.0,
                   help="input dropout keep rate")
    t.add_argument("--keep-sum", type=float, default=1.0,
                   help="sum dropout keep rate")
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--beta1", type=float, default=0.9)
    t.add_argument("--beta2", type=float, default=0.999)
    t.add_argument("--eps", type=float, default=1e-8)
    t.add_argument("--scale", choices=["none", "divmax", "zscore"], default="divmax")
    t.add_argument("--valid-fraction", type=float, default=0.0)
    t.add_argument("--train-variance", action="store_true",
                   help="train leaf log-variances jointly with the means")
    t.add_argument("--init", choices=["data", "normal"], default="data",
                   help="leaf-mean initialization: training feature statistics "
                        "(default) or standard normal draws")
    t.add_argument("--warm-start", default=None, metavar="MODEL",
                   help="continue training from a saved model")
    t.add_argument("--encoding", choices=["raw", "decimal"], default="raw")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", parents=[common], help="evaluate a model on a dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--prior", choices=["uniform", "empirical"], default="uniform")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep-missing", parents=[common],
                       help="accuracy under growing fractions of missing features")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--p-list", default="0,0.25,0.5,0.8,0.99",
                   help="comma-separated missing fractions")
    s.add_argument("--prior", choices=["uniform", "empirical"], default="uniform")
    s.set_defaults(func=cmd_sweep_missing)

    o = sub.add_parser("ood", parents=[common],
                       help="input-likelihood separation of two datasets")
    o.add_argument("--model", required=True)
    o.add_argument("--in-data", required=True, dest="in_data")
    o.add_argument("--out-data", required=True, dest="out_data")
    o.add_argument("--prior", choices=["uniform", "empirical"], default="uniform")
    o.add_argument("--bins", type=int, default=40)
    o.add_argument("--outlier-percentile", type=float, default=5.0)
    o.set_defaults(func=cmd_ood)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    effective = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(effective)
    args.effective_argv = effective
    try:
        if args.seed < 0:  # numpy's generators take no negative seed
            raise InvalidInput(f"--seed must be >= 0, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone raises here, not at exit
        return code
    except BrokenPipeError:
        # send what is still buffered nowhere, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InvalidInput as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:  # after BrokenPipeError, an OSError too
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        for note in exc.diagnostics:
            print(f"  {note}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
