"""The error contract of the public API: a malformed argument raises one of
the package's own error classes, never a bare numpy or Python error."""

from functools import cache

import numpy as np
from hypothesis import example, given, settings, strategies as st

import randspn as rs
from randspn.errors import DataFormatError, InvalidInput, NumericFailure, StructureError
from randspn.training import sample_input_dropout_mask, sample_sum_dropout_mask

OURS = (InvalidInput, StructureError, DataFormatError, NumericFailure)
# typed pools: zero, negative, beyond int64, fractional, non-finite, wrong kinds
POOL = [0, -1, 1, 2**70, 2.5, float("nan"), float("inf"), -float("inf"), None, True,
        "abc", "ab", [], [[]], {}]


@cache
def calls():
    """{name: (function, the keyword arguments of a valid call)}."""
    graph = rs.random_region_graph(4, 1, 2, seed=0)
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
def test_a_malformed_argument_raises_only_the_packages_errors(target, value):
    # a call either succeeds or raises an error of the package; warnings are
    # errors in this suite, so a call that warns fails too
    name, arg = target
    function, kwargs = calls()[name]
    try:
        function(**dict(kwargs, **{arg: value}))
    except OURS:
        pass
