import hashlib
import json

import numpy as np
import pytest

from randspn.cli import main, ranking_statistic


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


def test_data_errors_exit_3(tmp_path, blob_csv, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    model = _train(tmp_path, blob_csv)
    assert main(["eval", "--model", str(model), "--data", f"csv:{empty}",
                 "--out", str(tmp_path / "e")]) == 3

    missing_file = tmp_path / "nothere.csv"
    assert main(["eval", "--model", str(model), "--data", f"csv:{missing_file}",
                 "--out", str(tmp_path / "e")]) == 3

    # a malformed model file is a data error too, reported without a traceback
    capsys.readouterr()
    for mutate in (lambda d: d.update(parameters=[]),
                   lambda d: d["structure"].update(num_classes=0)):
        doc = json.loads(model.read_text())
        mutate(doc)
        broken = tmp_path / "broken.model.json"
        broken.write_text(json.dumps(doc))
        assert main(["eval", "--model", str(broken), "--data", f"csv:{blob_csv}",
                     "--out", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err


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


def test_ranking_statistic_properties():
    assert ranking_statistic(np.array([3.0, 4.0]), np.array([1.0, 2.0])) == 1.0
    assert ranking_statistic(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 0.0
    same = np.array([1.0, 2.0, 3.0])
    assert ranking_statistic(same, same) == pytest.approx(0.5, abs=1e-12)
