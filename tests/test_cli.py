import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randspn as rs
from randspn.cli import MAX_BINS, build_parser, main, ranking_statistic
from randspn.region_graph import Partition, Region, RegionGraph
from conftest import root_second, wiring_mirrors_graph


@pytest.fixture
def blob_csv(tmp_path):
    rng = np.random.default_rng(0)
    centers = np.array([[0.2] * 6, [0.8] * 6])
    labels = np.arange(120) % 2
    rng.shuffle(labels)
    features = np.clip(centers[labels] + rng.normal(0, 0.1, (120, 6)), 0, 1)
    path = tmp_path / "blobs.csv"
    rows = [",".join(repr(float(v)) for v in row) + f",{y}" for row, y in zip(features, labels)]
    path.write_text("\n".join(rows) + "\n")
    return path


def _train(tmp_path, blob_csv, extra=(), out="m"):
    argv = [
        "train", "--data", f"csv:{blob_csv}", "--depth", "1", "--repetitions", "2",
        "--sums", "2", "--leaves", "2", "--epochs", "15", "--batch-size", "40",
        "--seed", "3", "--scale", "none",
        "--out", str(tmp_path / out), *extra,
    ]
    assert main(argv) == 0
    return tmp_path / f"{out}.model.json"


def test_train_writes_model_metrics_and_manifest(tmp_path, blob_csv, capsys):
    model_path = _train(tmp_path, blob_csv)
    assert model_path.exists()

    metrics = (tmp_path / "m.metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,objective,ce,nll,train_accuracy,valid_accuracy"
    assert len(metrics) == 16  # header + one row per epoch

    manifest = json.loads((tmp_path / "m.manifest.json").read_text())
    assert manifest["command"] == "train"
    digest = hashlib.sha256(blob_csv.read_bytes()).hexdigest()
    assert manifest["datasets"]["train"]["sha256"][str(blob_csv)] == digest
    assert str(model_path) in manifest["outputs"]


def test_usage_errors_exit_2(tmp_path, blob_csv, capsys):
    code = main([
        "train", "--data", f"csv:{blob_csv}", "--lambda", "1.5",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "x.model.json").exists()  # fails before any work

    # a malformed data spec is caught before the model file is even opened
    assert main(["eval", "--model", "nope.model.json", "--data", "bad-prefix",
                 "--out", str(tmp_path / "y")]) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, code, message", [
    (["--lr", "nan"], 2, "learning_rate"),
    (["--lr", "-1"], 2, "learning_rate"),
    (["--beta1", "1"], 2, "beta1"),
    (["--beta2", "1"], 2, "beta2"),
    (["--eps", "0"], 2, "epsilon"),
    (["--lr", "1e308"], 4, "epoch 1: metrics objective is nan"),
])
def test_training_settings_that_cannot_train_exit_cleanly(tmp_path, blob_csv, capsys,
                                                          flags, code, message):
    # one step per epoch, so an overflowing update reaches the metrics pass
    assert main(["train", "--data", f"csv:{blob_csv}", "--epochs", "1", "--batch-size",
                 "200", "--out", str(tmp_path / "m"), *flags]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "m.model.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flags, flag", [
    ("ood", ["--bins", "0"], "--bins"),
    ("ood", ["--bins", "-3"], "--bins"),
    ("ood", ["--outlier-percentile", "150"], "--outlier-percentile"),
    ("ood", ["--outlier-percentile", "-1"], "--outlier-percentile"),
    ("train", ["--valid-fraction", "0.001"], "--valid-fraction"),
    ("train", ["--valid-fraction", "0.999"], "--valid-fraction"),
    ("train", ["--seed", "-1"], "--seed"),
    ("sweep-missing", ["--seed", "-3"], "--seed"),
    ("train", ["--valid-fraction", "nan"], "--valid-fraction"),
    ("train", ["--classes", "0"], "--classes"),
    ("train", ["--classes", "-2"], "--classes"),
])
def test_flag_values_numpy_would_reject_are_usage_errors(tmp_path, blob_csv, capsys,
                                                         command, flags, flag):
    if command == "ood":
        model = _train(tmp_path, blob_csv)
        argv = ["ood", "--model", str(model), "--in-data", f"csv:{blob_csv}",
                "--out-data", f"csv:{blob_csv}"]
    elif command == "sweep-missing":
        model = _train(tmp_path, blob_csv)
        argv = ["sweep-missing", "--model", str(model), "--data", f"csv:{blob_csv}"]
    else:
        argv = ["train", "--data", f"csv:{blob_csv}", "--epochs", "1"]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "x"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag}") and "Traceback" not in err
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["divmax", "none", "zscore"])
def test_a_csv_of_labels_only_exits_3_under_every_scale(tmp_path, capsys, scale):
    # a dataset without features is a data error, whatever the scaling would compute
    data = tmp_path / "labels.csv"
    data.write_text("0\n1\n0\n1\n")
    assert main(["train", "--data", f"csv:{data}", "--scale", scale,
                 "--out", str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err
    assert "no feature columns" in err and "Traceback" not in err


@pytest.mark.parametrize("bins", [MAX_BINS + 1, 10**12])
def test_ood_bins_above_the_bound_exit_2_before_anything_is_loaded(tmp_path, capsys, bins):
    # no model or data exists: a check after loading them would exit 3
    absent = tmp_path / "absent"
    build_parser()  # built once per process, before the allocations measured
    tracemalloc.start()
    code = main(["ood", "--model", str(absent), "--in-data", f"csv:{absent}",
                 "--out-data", f"csv:{absent}", "--bins", str(bins), "--out", str(tmp_path / "o")])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2 and peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("usage error: --bins") and "Traceback" not in err


def test_a_csv_that_is_not_text_exits_3(tmp_path, blob_csv, capsys):
    model = _train(tmp_path, blob_csv)
    images = tmp_path / "images.idx"
    rs.save_idx(np.full((4, 6), 200.0), images)  # bytes above 127: not UTF-8
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", f"csv-nolabel:{images}",
                 "--out", str(tmp_path / "e")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {images}: not") and "Traceback" not in err


def test_data_errors_exit_3(tmp_path, blob_csv, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    # depth 2 and as many classes as sums: with regions 0 and 1 swapped
    # (root_second), every stored shape still fits
    model = _train(tmp_path, blob_csv, extra=("--depth", "2"))
    assert main(["eval", "--model", str(model), "--data", f"csv:{empty}",
                 "--out", str(tmp_path / "e")]) == 3

    missing_file = tmp_path / "nothere.csv"
    assert main(["eval", "--model", str(model), "--data", f"csv:{missing_file}",
                 "--out", str(tmp_path / "e")]) == 3

    # a malformed model file is a data error too, reported without a traceback
    capsys.readouterr()
    for mutate in (lambda d: d.update(parameters=[]),
                   lambda d: d["structure"].update(num_classes=0),
                   root_second):
        doc = json.loads(model.read_text())
        mutate(doc)
        broken = tmp_path / "broken.model.json"
        broken.write_text(json.dumps(doc))
        assert main(["eval", "--model", str(broken), "--data", f"csv:{blob_csv}",
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err


def test_eval_of_a_bernoulli_model_on_non_binary_data_exits_2(tmp_path, capsys):
    circuit = rs.construct_circuit(rs.random_region_graph(6, 1, 2, seed=0), 2, 2, 2, "bernoulli")
    model = tmp_path / "coin.model.json"
    rs.save_model(circuit, rs.init_parameters(circuit, seed=0), model)
    rows = (np.random.default_rng(0).random((8, 6)) < 0.5).astype(float).tolist()
    data = tmp_path / "coins.csv"
    for cell, code in ((None, 0), (0.5, 2)):
        if cell is not None:
            rows[5][2] = cell
        lines = [",".join(map(repr, row)) + f",{n % 2}\n" for n, row in enumerate(rows)]
        data.write_text("".join(lines))
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", f"csv:{data}",
                     "--out", str(tmp_path / "e")]) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error: Bernoulli observations must be 0 or 1")
    assert "Traceback" not in err


def test_eval_overfit_model_and_prior_flag(tmp_path, blob_csv, capsys):
    model = _train(tmp_path, blob_csv)
    assert main(["eval", "--model", str(model), "--data", f"csv:{blob_csv}",
                 "--out", str(tmp_path / "ev")]) == 0
    header, row = (tmp_path / "ev.eval.csv").read_text().splitlines()
    record = dict(zip(header.split(","), [float(v) for v in row.split(",")]))
    assert record["accuracy"] >= 0.99

    assert main(["eval", "--model", str(model), "--data", f"csv:{blob_csv}",
                 "--prior", "empirical", "--out", str(tmp_path / "ev2")]) == 0
    _, row2 = (tmp_path / "ev2.eval.csv").read_text().splitlines()
    record2 = dict(zip(header.split(","), [float(v) for v in row2.split(",")]))
    # balanced labels: empirical prior == uniform prior here, so log p(x)
    # matches; accuracy must match regardless
    assert record2["accuracy"] == record["accuracy"]


def chain_graph(num_vars):
    """A valid region graph as deep as it gets: each region splits off one variable."""
    graph = RegionGraph(num_vars, depth=num_vars - 1, repetitions=1, seed=None)

    def region(scope, level):
        graph.regions.append(Region(len(graph.regions), tuple(scope), level))
        return graph.regions[-1]

    parent = region(range(num_vars), 0)
    for level in range(1, num_vars):
        rest, single = region(range(level, num_vars), level), region([level - 1], level)
        graph.partitions.append(Partition(len(graph.partitions), parent, (rest, single)))
        parent = rest
    return graph


def test_a_deep_chain_model_saves_loads_and_evaluates(tmp_path, capsys):
    # 1,200 levels of regions: every structure walk must run without recursion
    num_vars = 1200
    circuit = rs.construct_circuit(chain_graph(num_vars), 2, 2, 2)
    assert circuit.stack_depth() == 2 * (num_vars - 1)
    assert wiring_mirrors_graph(circuit)
    model = tmp_path / "chain.model.json"
    rs.save_model(circuit, rs.init_parameters(circuit, seed=0), model)
    circuit, params, _ = rs.load_model(model)
    x = np.zeros((3, num_vars))
    log_px = rs.log_marginal_input(circuit, params, x, missing=np.ones_like(x, bool))
    assert np.all(log_px == 0.0)

    features = np.random.default_rng(0).random((4, num_vars))
    rows = [",".join(map(repr, row)) + f",{k % 2}" for k, row in enumerate(features.tolist())]
    data = tmp_path / "chain.csv"
    data.write_text("\n".join(rows) + "\n")
    assert main(["eval", "--model", str(model), "--data", f"csv:{data}",
                 "--out", str(tmp_path / "ev")]) == 0
    assert (tmp_path / "ev.eval.csv").exists()


def test_eval_log_px_equals_log_marginal_input(tmp_path, blob_csv):
    # eval derives log p(x) from its one forward pass; the value is the
    # one log_marginal_input gives, to the bit
    model = _train(tmp_path, blob_csv)
    circuit, params, _ = rs.load_model(model)
    data = rs.load_csv(blob_csv)
    priors = {"uniform": None, "empirical": rs.empirical_log_prior(data.labels, 2)}
    for name, prior in priors.items():
        out = tmp_path / f"ev-{name}"
        assert main(["eval", "--model", str(model), "--data", f"csv:{blob_csv}",
                     "--prior", name, "--out", str(out)]) == 0
        header, row = (tmp_path / f"ev-{name}.eval.csv").read_text().splitlines()
        got = row.split(",")[header.split(",").index("mean_log_px")]
        want = rs.log_marginal_input(circuit, params, data.features, prior).mean()
        assert got == repr(float(want))


@pytest.mark.filterwarnings("error")
def test_overflowing_training_input_exits_4(tmp_path, blob_csv, capsys):
    rows = blob_csv.read_text().splitlines()
    rows[5] = "1e160," + rows[5].split(",", 1)[1]
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(rows) + "\n")
    assert main([
        "train", "--data", f"csv:{huge}", "--depth", "1", "--repetitions", "2",
        "--sums", "2", "--leaves", "2", "--epochs", "1", "--scale", "none",
        "--init", "normal", "--out", str(tmp_path / "h"),
    ]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "Block#" in err
    assert "Traceback" not in err



@pytest.mark.filterwarnings("error")
def test_overflowing_training_input_with_data_init_exits_4(tmp_path, blob_csv, capsys):
    # the default --init data reads the feature std, which overflows silently
    rows = blob_csv.read_text().splitlines()
    rows[5] = "1e160," + rows[5].split(",", 1)[1]
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(rows) + "\n")
    assert main([
        "train", "--data", f"csv:{huge}", "--depth", "1", "--repetitions", "2",
        "--sums", "2", "--leaves", "2", "--epochs", "1", "--scale", "none",
        "--out", str(tmp_path / "h"),
    ]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_zscore_on_an_overflowing_column_exits_3(tmp_path, blob_csv, capsys):
    rows = blob_csv.read_text().splitlines()
    rows[5] = "1e160," + rows[5].split(",", 1)[1]
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(rows) + "\n")
    assert main([
        "train", "--data", f"csv:{huge}", "--depth", "1", "--repetitions", "2",
        "--sums", "2", "--leaves", "2", "--epochs", "1", "--scale", "zscore",
        "--out", str(tmp_path / "h"),
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "feature 0" in err and "Traceback" not in err
    assert not (tmp_path / "h.model.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["none", "divmax", "zscore"])
def test_a_non_finite_training_feature_exits_3(tmp_path, blob_csv, capsys, scale):
    rows = blob_csv.read_text().splitlines()
    rows[5] = "0.5,inf," + rows[5].split(",", 2)[2]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert main([
        "train", "--data", f"csv:{bad}", "--depth", "1", "--repetitions", "2",
        "--sums", "2", "--leaves", "2", "--epochs", "1", "--scale", scale,
        "--out", str(tmp_path / "h"),
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "line 6, column 1" in err
    assert "Traceback" not in err and not (tmp_path / "h.model.json").exists()


@pytest.mark.filterwarnings("error")
def test_a_non_finite_evaluation_feature_exits_3(tmp_path, blob_csv, capsys):
    model = _train(tmp_path, blob_csv)
    rows = blob_csv.read_text().splitlines()
    rows[2] = "-inf," + rows[2].split(",", 1)[1]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", f"csv:{bad}",
                 "--out", str(tmp_path / "e")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "line 3, column 0" in err
    assert "Traceback" not in err


def test_an_oversized_model_dimension_exits_3(tmp_path, blob_csv, capsys):
    model = _train(tmp_path, blob_csv)
    doc = json.loads(model.read_text())
    doc["structure"]["leaves_per_region"] = 1000000
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", f"csv:{blob_csv}",
                 "--out", str(tmp_path / "e")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, code, message", [
    (["train", "--data", "csv:{dir}"], 3, "data error: [Errno 21] Is a directory"),
    (["eval", "--model", "{dir}", "--data", "csv:{csv}"], 3,
     "data error: [Errno 21] Is a directory"),
    # 4e15 parameters: beyond the address space, so the allocator refuses at once
    (["train", "--data", "csv:{csv}", "--depth", "3", "--sums", "100000", "--leaves", "100000"],
     2, "usage error: model too large: Unable to allocate"),
], ids=["train-data-directory", "eval-model-directory", "oversized-model"])
def test_a_directory_or_an_oversized_model_exits_cleanly(tmp_path, blob_csv, capsys,
                                                         command, code, message):
    argv = [arg.format(dir=tmp_path, csv=blob_csv) for arg in command]
    assert main([*argv, "--out", str(tmp_path / "x")]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.filterwarnings("error")
def test_empirical_prior_from_labels_beyond_the_model_classes_exits_2(tmp_path, capsys):
    # a model with 3 classes and no stored prior, on data whose labels reach 5
    circuit = rs.construct_circuit(rs.random_region_graph(6, 1, 2, seed=0), 3, 2, 2)
    model = tmp_path / "three.model.json"
    rs.save_model(circuit, rs.init_parameters(circuit, seed=0), str(model))
    data = tmp_path / "five.csv"
    features = np.random.default_rng(0).normal(size=(30, 6))
    _write_rows(data, np.column_stack([features, 1 + np.arange(30) % 5]))
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--data", f"csv:{data}", "--prior", "empirical",
                 "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: labels must be integers in 1..3") and "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["eval", "sweep-missing"])
def test_labels_beyond_the_model_classes_exit_2(tmp_path, blob_csv, capsys, command):
    # a 2-class model on data whose labels reach 3: sweep-missing would
    # otherwise count the extra class as misclassified and exit 0
    model = _train(tmp_path, blob_csv, extra=("--epochs", "1"))
    data = tmp_path / "three.csv"
    features = np.random.default_rng(0).random((30, 6))
    _write_rows(data, np.column_stack([features, np.arange(30) % 3]))
    capsys.readouterr()
    assert main([command, "--model", str(model), "--data", f"csv:{data}",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: labels must be integers in 1..2") and "Traceback" not in err
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["eval", "ood", "sweep-missing", "train"])
def test_data_of_another_width_than_a_zscore_model_exits_3(tmp_path, blob_csv, capsys,
                                                            command):
    # the width is checked before the model's 6 stored means are applied
    model = _train(tmp_path, blob_csv, extra=("--scale", "zscore", "--epochs", "1"))
    narrow = tmp_path / "narrow.csv"
    _write_rows(narrow, np.column_stack([np.random.default_rng(0).random((20, 4)),
                                         np.arange(20) % 2]))
    spec = f"csv:{narrow}"
    argv = {
        "eval": ["eval", "--model", str(model), "--data", spec],
        "ood": ["ood", "--model", str(model), "--in-data", spec, "--out-data", spec],
        "sweep-missing": ["sweep-missing", "--model", str(model), "--data", spec],
        "train": ["train", "--warm-start", str(model), "--data", spec, "--epochs", "1"],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: model expects 6 features, data has 4"), err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("x.*"))


def test_a_class_absent_from_training_is_stored_as_a_null_prior(tmp_path, blob_csv):
    # its log prior is -inf, which strict JSON cannot hold
    model = _train(tmp_path, blob_csv, extra=("--classes", "3"))

    def strict(token):
        raise ValueError(token)

    doc = json.loads(model.read_text(), parse_constant=strict)
    prior = doc["provenance"]["class_log_prior"]
    assert prior[2] is None and all(isinstance(v, float) for v in prior[:2])
    assert main(["eval", "--model", str(model), "--data", f"csv:{blob_csv}",
                 "--prior", "empirical", "--out", str(tmp_path / "e")]) == 0


def test_a_bad_stored_prior_is_a_data_error(tmp_path, blob_csv, capsys):
    model = _train(tmp_path, blob_csv)
    stored = json.loads(model.read_text())["provenance"]["class_log_prior"]
    # wrong length, not normalized, and +inf (1e999 parses to it) beside
    # finite entries that alone sum to 1
    for prior in (
        json.dumps(stored + [-1.0]), json.dumps([v - 1.0 for v in stored]), "[0.0,1e999]",
    ):
        doc = json.loads(model.read_text())
        doc["provenance"]["class_log_prior"] = "PRIOR"
        broken = tmp_path / "prior.model.json"
        broken.write_text(json.dumps(doc).replace('"PRIOR"', prior))
        capsys.readouterr()
        assert main(["eval", "--model", str(broken), "--data", f"csv:{blob_csv}",
                     "--prior", "empirical", "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "class_log_prior" in err


def test_warm_start_post_training(tmp_path, blob_csv):
    model = _train(tmp_path, blob_csv)
    argv = [
        "train", "--data", f"csv:{blob_csv}", "--warm-start", str(model),
        "--lambda", "0.2", "--epochs", "3", "--batch-size", "40",
        "--seed", "4", "--out", str(tmp_path / "post"),
    ]
    assert main(argv) == 0
    post = json.loads((tmp_path / "post.model.json").read_text())
    assert post["provenance"]["lambda"] == 0.2
    assert post["provenance"]["warm_start"] == str(model)


def test_sweep_missing_rows_and_p0_consistency(tmp_path, blob_csv):
    model = _train(tmp_path, blob_csv)
    assert main(["sweep-missing", "--model", str(model), "--data", f"csv:{blob_csv}",
                 "--p-list", "0,0.5,0.99", "--seed", "9",
                 "--out", str(tmp_path / "sw")]) == 0
    lines = (tmp_path / "sw.sweep.csv").read_text().splitlines()
    assert lines[0] == "missing_fraction,accuracy"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 0.99]

    assert main(["eval", "--model", str(model), "--data", f"csv:{blob_csv}",
                 "--out", str(tmp_path / "ev")]) == 0
    eval_acc = float((tmp_path / "ev.eval.csv").read_text().splitlines()[1].split(",")[0])
    assert float(rows[0][1]) == eval_acc  # p=0 masks nothing


def test_ood_outputs(tmp_path, blob_csv):
    # hybrid training, long enough that the input density is calibrated
    model = _train(
        tmp_path, blob_csv, extra=("--lambda", "0.2", "--epochs", "60", "--lr", "0.01")
    )

    # identical datasets: ranking statistic is exactly 1/2 by tie correction
    assert main(["ood", "--model", str(model), "--in-data", f"csv:{blob_csv}",
                 "--out-data", f"csv:{blob_csv}", "--out", str(tmp_path / "same")]) == 0
    summary = (tmp_path / "same.ood_summary.csv").read_text().splitlines()[1].split(",")
    assert float(summary[0]) == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(5)
    noise = tmp_path / "noise.csv"
    noise.write_text("\n".join(
        ",".join(repr(float(v)) for v in row) for row in rng.uniform(0, 1, (80, 6))
    ) + "\n")
    assert main(["ood", "--model", str(model), "--in-data", f"csv:{blob_csv}",
                 "--out-data", f"csv-nolabel:{noise}",
                 "--out", str(tmp_path / "ood")]) == 0

    hist = (tmp_path / "ood.ood_hist.csv").read_text().splitlines()
    counts_in = sum(int(line.split(",")[2]) for line in hist[1:])
    counts_out = sum(int(line.split(",")[3]) for line in hist[1:])
    assert counts_in == 120 and counts_out == 80  # conservation

    summary = (tmp_path / "ood.ood_summary.csv").read_text().splitlines()[1].split(",")
    assert float(summary[0]) > 0.95  # noise is far less likely than data

    scores = (tmp_path / "ood.ood_scores_in.csv").read_text().splitlines()
    assert len(scores) == 121


def test_commands_do_not_mutate_inputs(tmp_path, blob_csv):
    before = blob_csv.read_bytes()
    model = _train(tmp_path, blob_csv)
    model_before = model.read_bytes()
    main(["eval", "--model", str(model), "--data", f"csv:{blob_csv}",
          "--out", str(tmp_path / "ev")])
    main(["sweep-missing", "--model", str(model), "--data", f"csv:{blob_csv}",
          "--p-list", "0,0.5", "--out", str(tmp_path / "sw")])
    assert blob_csv.read_bytes() == before
    assert model.read_bytes() == model_before


def test_rerun_from_manifest_reproduces_outputs(tmp_path, blob_csv):
    _train(tmp_path, blob_csv, out="a")
    manifest = json.loads((tmp_path / "a.manifest.json").read_text())
    argv = manifest["argv"]
    argv[argv.index("--out") + 1] = str(tmp_path / "b")
    assert main(argv) == 0
    assert (tmp_path / "a.metrics.csv").read_bytes() == (tmp_path / "b.metrics.csv").read_bytes()
    assert (tmp_path / "a.model.json").read_bytes() == (tmp_path / "b.model.json").read_bytes()


def test_in_process_runs_share_the_parser_but_no_state(tmp_path, blob_csv):
    # main builds its parser once per process: each run's manifest config is
    # still exactly what a parser of its own parses from its argv
    model = _train(tmp_path, blob_csv, ["--train-variance"], out="var")
    _train(tmp_path, blob_csv, out="plain")
    evaluate = ["eval", "--model", str(model), "--data", f"csv:{blob_csv}",
                "--out", str(tmp_path / "ev")]
    assert main(evaluate) == 0
    variance = []
    for out in ("var", "plain", "ev"):
        manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
        fresh = vars(build_parser.__wrapped__().parse_args(manifest["argv"]))
        want = {k: v for k, v in fresh.items() if k not in ("command", "func")}
        want["effective_argv"] = manifest["argv"]
        assert manifest["config"] == json.loads(json.dumps(want)), out
        variance.append(manifest["config"].get("train_variance"))
    assert variance == [True, False, None]
    assert build_parser() is build_parser()


def test_ranking_statistic_properties():
    assert ranking_statistic(np.array([3.0, 4.0]), np.array([1.0, 2.0])) == 1.0
    assert ranking_statistic(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 0.0
    same = np.array([1.0, 2.0, 3.0])
    assert ranking_statistic(same, same) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-2, 2).map(float), st.just(-np.inf)), min_size=1, max_size=12),
    st.lists(st.one_of(st.integers(-2, 2).map(float), st.just(-np.inf)), min_size=1, max_size=12),
)
def test_ranking_statistic_is_the_pairwise_probability(scores_in, scores_out):
    # P(in > out) + 0.5 P(in = out), counted over every pair
    a, b = np.array(scores_in)[:, None], np.array(scores_out)[None, :]
    expected = ((a > b).sum() + 0.5 * (a == b).sum()) / (a.size * b.size)
    assert ranking_statistic(np.array(scores_in), np.array(scores_out)) == expected


def _write_rows(path, rows):
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")


@pytest.mark.filterwarnings("error")
def test_ood_counts_a_minus_inf_score_in_the_lowest_bin(tmp_path, blob_csv, capsys):
    # a value of 1e200 overflows its squared distance: log p(x) = -inf
    model = _train(tmp_path, blob_csv)
    rng = np.random.default_rng(1)
    wild_in, wild_out = tmp_path / "in.csv", tmp_path / "out.csv"
    rows_in = rng.uniform(0, 1, (20, 6))
    rows_in[[3, 11], 2] = 1e200  # two -inf scores at the 5th percentile
    rows_out = rng.uniform(0, 1, (50, 6))
    rows_out[7, 0] = 1e200
    _write_rows(wild_in, rows_in)
    _write_rows(wild_out, rows_out)
    for name, data_in in (("out", f"csv:{blob_csv}"), ("both", f"csv-nolabel:{wild_in}")):
        prefix = tmp_path / name
        assert main(["ood", "--model", str(model), "--in-data", data_in,
                     "--out-data", f"csv-nolabel:{wild_out}", "--out", str(prefix)]) == 0
        hist = [line.split(",") for line in
                (tmp_path / f"{name}.ood_hist.csv").read_text().splitlines()[1:]]
        n_in = 120 if name == "out" else 20
        assert sum(int(row[2]) + int(row[3]) for row in hist) == n_in + 50
        assert int(hist[0][3]) >= 1  # the -inf out-of-domain score
        assert np.isfinite([float(v) for row in hist for v in row[:2]]).all()
        summary = (tmp_path / f"{name}.ood_summary.csv").read_text().splitlines()[1]
        threshold = float(summary.split(",")[1])
        assert np.isfinite(threshold)
        scores = (tmp_path / f"{name}.ood_scores_out.csv").read_text().splitlines()
        assert scores[8] == "7,-inf,1"  # an outlier below every finite threshold

    # no finite score at all: no histogram to draw
    _write_rows(wild_out, np.full((3, 6), 1e200))
    assert main(["ood", "--model", str(model), "--in-data", f"csv-nolabel:{wild_out}",
                 "--out-data", f"csv-nolabel:{wild_out}", "--out", str(tmp_path / "x")]) == 3
    assert "density 0" in capsys.readouterr().err


@pytest.mark.parametrize("buffered", [False, True])
def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path, blob_csv, buffered):
    model = _train(tmp_path, blob_csv)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rs.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the command starts
    try:
        done = subprocess.run(
            [sys.executable, "-m", "randspn.cli", "eval", "--model", str(model),
             "--data", f"csv:{blob_csv}", "--out", str(tmp_path / "ev")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""
    assert (tmp_path / "ev.eval.csv").exists()
