"""The error contract: a malformed argument to the public API raises one of
the package's own error classes, never a bare numpy or Python error, and a
malformed flag value or file makes the CLI exit 2, 3 or 4, never with a
traceback."""

import contextlib
import io
import os
import tempfile
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import randspn as rs
from randspn.cli import main
from randspn.errors import (
    DataFormatError, InvalidInput, NumericFailure, StructureError, check_floats, check_int,
    check_real,
)
from randspn.region_graph import MAX_REPETITIONS
from randspn.training import sample_input_dropout_mask, sample_sum_dropout_mask

OURS = (InvalidInput, StructureError, DataFormatError, NumericFailure)
# typed pools: zero, negative, beyond int64, fractional, non-finite, wrong kinds
POOL = [0, -1, 1, 2**70, 2.5, float("nan"), float("inf"), -float("inf"), None, True,
        "abc", "ab", [], [[]], {}]


def save_idx(**kwargs):
    """``rs.save_idx`` of the arguments, into files of a directory removed afterwards."""
    with tempfile.TemporaryDirectory() as scratch:
        rs.save_idx(image_path=os.path.join(scratch, "images"),
                    label_path=os.path.join(scratch, "labels"), **kwargs)


@cache
def calls():
    """{name: (function, the keyword arguments of a valid call)}."""
    graph = rs.random_region_graph(4, 1, 2, seed=0)
    deeper = rs.random_region_graph(4, 2, 2, seed=0)  # one whose sums_S sizes a sum layer
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = rs.init_parameters(circuit, seed=0)
    data = rs.make_synthetic_classes(6, num_classes=2, side=2)
    query = np.zeros((2, 4), bool)
    query[:, 0] = True
    model = dict(circuit=circuit, params=params, batch=data.features[:2])
    queries = dict(model, log_prior=None, missing=None)
    return {
        "random_region_graph": (
            rs.random_region_graph, dict(num_vars=4, depth=1, repetitions=2, seed=0)),
        "construct_circuit": (rs.construct_circuit, dict(
            graph=graph, classes_C=2, sums_S=2, leaves_I=2, leaf_family="gaussian")),
        "init_parameters": (rs.init_parameters, dict(
            circuit=circuit, seed=0, feature_stats=None, train_variance=False)),
        "init_parameters of a new circuit": (
            lambda **kw: rs.init_parameters(rs.construct_circuit(deeper, **kw)),
            dict(classes_C=2, sums_S=2, leaves_I=2)),
        "TrainConfig": (rs.TrainConfig, dict(
            lam=0.5, epochs=1, batch_size=2, input_keep=1.0, sum_keep=1.0,
            learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8, seed=0)),
        "forward_log": (rs.forward_log, dict(model, missing=None, sum_dropout=None)),
        "classify": (rs.classify, queries),
        "log_marginal_input": (rs.log_marginal_input, queries),
        "conditional_log": (rs.conditional_log, dict(
            model, query_mask=query, evidence_mask=~query, log_prior=None)),
        "uniform_log_prior": (rs.uniform_log_prior, dict(num_classes=2)),
        "random_missing_mask": (rs.random_missing_mask, dict(
            dataset_or_shape=(2, 3), fraction_missing=0.5, seed=0)),
        "split_dataset": (rs.split_dataset, dict(dataset=data, valid_fraction=0.5, seed=0)),
        "batch_iterator": (lambda **kw: list(rs.batch_iterator(**kw)), dict(
            dataset=data, batch_size=2, shuffle_seed=0)),
        "sample_input_dropout_mask": (
            lambda **kw: sample_input_dropout_mask(rng=np.random.default_rng(0), **kw),
            dict(num_vars=4, batch_size=2, keep_rate=0.5)),
        "sample_sum_dropout_mask": (
            lambda **kw: sample_sum_dropout_mask(rng=np.random.default_rng(0), **kw),
            dict(circuit=circuit, keep_rate=0.5, batch_size=2)),
        "make_synthetic_classes": (rs.make_synthetic_classes, dict(
            num_samples=3, num_classes=2, side=2, noise=0.1, family_seed=7, sample_seed=0)),
        "make_uniform_noise": (rs.make_uniform_noise, dict(num_samples=3, side=2, seed=0)),
        "Dataset": (rs.Dataset, dict(features=data.features[:2], labels=[1, 2])),
        "cross_entropy": (rs.cross_entropy, dict(roots=np.zeros((2, 2)), labels=[1, 2])),
        "neg_log_likelihood": (rs.neg_log_likelihood, dict(
            roots=np.zeros((2, 2)), labels=[1, 2], num_vars=4)),
        "train": (rs.train, dict(circuit=circuit, params=params, train_data=data,
                                 valid_data=data, config=rs.TrainConfig(epochs=1))),
        "save_idx": (save_idx, dict(features=np.zeros((2, 4)), labels=[1, 2], rows=2, cols=2)),
    }


# the value arguments of each call; objects (graph, circuit, data) are not varied
OBJECTS = {"graph", "circuit", "params", "dataset"}
ARGUMENTS = [
    (name, arg) for name, (_, kwargs) in calls().items() for arg in kwargs if arg not in OBJECTS
]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(ARGUMENTS), st.sampled_from(POOL))
@example(("forward_log", "batch"), "abc")
@example(("classify", "log_prior"), "abc")
@example(("conditional_log", "log_prior"), "abc")
@example(("init_parameters", "feature_stats"), "ab")
@example(("TrainConfig", "lam"), "abc")
@example(("random_missing_mask", "dataset_or_shape"), [-1, 3])
@example(("random_missing_mask", "seed"), -1)
@example(("split_dataset", "seed"), -1)
@example(("batch_iterator", "shuffle_seed"), -1)
@example(("batch_iterator", "batch_size"), 2.5)
@example(("sample_input_dropout_mask", "batch_size"), -1)
@example(("make_synthetic_classes", "num_samples"), -1)
@example(("make_uniform_noise", "num_samples"), -1)
@example(("uniform_log_prior", "num_classes"), 0)
@example(("forward_log", "sum_dropout"), "abc")
@example(("forward_log", "batch"), [[10**400] * 4] * 2)  # an int no float holds
@example(("Dataset", "features"), "abc")
@example(("Dataset", "labels"), "ab")
@example(("cross_entropy", "roots"), "abc")
@example(("neg_log_likelihood", "num_vars"), "a")
@example(("train", "train_data"), "abc")
@example(("save_idx", "features"), [["a"]])
@example(("init_parameters of a new circuit", "sums_S"), 2**62)
@example(("init_parameters of a new circuit", "leaves_I"), 2**62)
@example(("init_parameters of a new circuit", "classes_C"), 2**62)
@example(("random_region_graph", "repetitions"), MAX_REPETITIONS + 1)
def test_a_malformed_argument_raises_only_the_packages_errors(target, value):
    # a call either succeeds or raises an error of the package; warnings are
    # errors in this suite, so a call that warns fails too
    name, arg = target
    function, kwargs = calls()[name]
    try:
        function(**dict(kwargs, **{arg: value}))
    except OURS:
        pass


def test_the_checks_name_the_argument_and_refuse_bool_and_nan():
    assert check_real("rate", 0.5, 0, 1, "(]") == 0.5
    assert check_real("rate", np.float32(1), 0, 1) == 1
    for value, ends in ((0, "(]"), (1, "[)"), (True, "[]"), (float("nan"), "[]"), ("1", "[]")):
        with pytest.raises(InvalidInput, match=rf"^rate must be in \{ends[0]}0, 1\{ends[1]}, got"):
            check_real("rate", value, 0, 1, ends)
    assert check_int("bins", np.int64(3), 1, 3) == 3
    with pytest.raises(InvalidInput, match=r"^bins must be in \[1, 3\], got 4$"):
        check_int("bins", 4, 1, 3)
    assert check_floats("batch", [[1, 2]]).dtype == float
    with pytest.raises(InvalidInput, match="^batch must be a numeric array, got 'abc'$"):
        check_floats("batch", "abc")


def test_a_rate_or_fraction_of_bool_type_is_refused():
    for call in (lambda: rs.TrainConfig(lam=True), lambda: rs.TrainConfig(sum_keep=True),
                 lambda: rs.random_missing_mask((2, 2), False)):
        with pytest.raises(InvalidInput, match="got (True|False)$"):
            call()


def test_repetitions_above_the_cap_are_refused():
    with pytest.raises(InvalidInput, match=f"^repetitions must be in \\[1, {MAX_REPETITIONS}\\]"):
        rs.random_region_graph(4, 1, MAX_REPETITIONS + 1, seed=0)


# typed pools of flag values: numbers, words and paths, the paths relative to
# the directory the fuzz runs in; "" and "," are empty lists to a list flag
NUMBERS = ["0", "-1", str(2**62), str(2**70), "2.5", "nan", "inf", "-inf"]
WORDS = ["abc", "", ","]
PATHS = ["missing", "missing/run", "dir", "binary", "truncated.json"]
SPECS = [f"{kind}:{path}" for kind in ("csv", "csv-nolabel") for path in PATHS] + [
    "idx:binary,binary", "idx-nolabel:truncated.json", "csv:data.csv", *WORDS]
COMMON = {"--seed": NUMBERS + WORDS, "--out": PATHS + WORDS, "--prior": WORDS}
# each command's valid base argv and its flags' pools; a flag drawn is
# appended, and so overrides the base. --epochs draws no huge count: that
# is a long job, not a fault
COMMANDS = {
    "train": (
        ["--data", "csv:data.csv", "--depth", "2", "--repetitions", "2", "--sums", "2",
         "--leaves", "2", "--epochs", "1", "--batch-size", "8"],
        {
            "--data": SPECS, "--warm-start": PATHS + ["model.json"] + WORDS,
            "--epochs": [v for v in NUMBERS if v != str(2**62)] + WORDS,
            **dict.fromkeys(["--depth", "--repetitions", "--sums", "--leaves", "--classes",
                             "--batch-size", "--lambda", "--keep-input", "--keep-sum", "--lr",
                             "--beta1", "--beta2", "--eps", "--valid-fraction"],
                            NUMBERS + WORDS),
            **dict.fromkeys(["--scale", "--init", "--encoding"], WORDS),
            "--seed": NUMBERS + WORDS, "--out": PATHS + WORDS,
        },
    ),
    "eval": (["--model", "model.json", "--data", "csv:data.csv"],
             {"--model": PATHS + WORDS, "--data": SPECS, **COMMON}),
    "sweep-missing": (
        ["--model", "model.json", "--data", "csv:data.csv"],
        {"--model": PATHS + WORDS, "--data": SPECS,
         "--p-list": NUMBERS + WORDS + ["0,nan", "0.5,2"], **COMMON},
    ),
    "ood": (
        ["--model", "model.json", "--in-data", "csv:data.csv", "--out-data", "csv:data.csv"],
        {"--model": PATHS + WORDS, "--in-data": SPECS, "--out-data": SPECS,
         "--bins": NUMBERS + WORDS, "--outlier-percentile": NUMBERS + WORDS, **COMMON},
    ),
}


@st.composite
def command_lines(draw):
    """(argv, flag): a command's valid base argv with one flag set to a pool value."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    base, pools = COMMANDS[command]
    flag = draw(st.sampled_from(sorted(pools)))
    return [command, *base, f"{flag}={draw(st.sampled_from(pools[flag]))}"], flag


@pytest.fixture(scope="module")
def cli_directory(tmp_path_factory):
    """A directory holding a tiny labelled CSV, a model for it and malformed files."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    features = np.random.default_rng(0).random((8, 4))
    rows = [",".join(map(repr, row)) + f",{k % 2}" for k, row in enumerate(features.tolist())]
    (root / "data.csv").write_text("\n".join(rows) + "\n")
    circuit = rs.construct_circuit(rs.random_region_graph(4, 1, 2, seed=0), 2, 2, 2)
    rs.save_model(circuit, rs.init_parameters(circuit, seed=0), root / "model.json")
    text = (root / "model.json").read_text()
    (root / "truncated.json").write_text(text[: len(text) // 2])
    (root / "binary").write_bytes(bytes(range(128, 256)))  # not UTF-8
    (root / "dir").mkdir()
    return root


@settings(max_examples=500, deadline=None, derandomize=True)
@given(command_lines())
@example((["train", "--data", "csv:data.csv", "--sums=4611686018427387904"], "--sums"))
@example((["train", "--data", "csv:data.csv", "--repetitions=4611686018427387904"],
          "--repetitions"))
def test_a_malformed_flag_or_file_exits_cleanly(cli_directory, case):
    # warnings are errors in this suite, so a run that warns fails too
    argv, flag = case
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(cli_directory)  # every output prefix, relative ones too, lands in there
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse refusing a flag value
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
