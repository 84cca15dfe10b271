"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

import randspn as rs
from randspn.cli import ranking_statistic
from randspn.model_io import model_to_dict
from randspn.oracle import (
    brute_force_marginal,
    brute_force_mass,
    finite_diff_gradient,
    load_model_dict,
)
from conftest import block_matrices, quadrature_mass_2d, randomize_params


def _report(number, description, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


# ----------------------------------------------------------------------------
# 1. structural validity across 200 random configurations
# ----------------------------------------------------------------------------

def test_criterion_01_structural_validity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        num_vars = int(rng.integers(2, 65))
        depth = int(rng.integers(1, 5))
        reps = int(rng.integers(1, 9))
        sums = int(rng.integers(1, 9))
        leaves = int(rng.integers(1, 9))
        classes = int(rng.integers(1, 6))
        graph = rs.random_region_graph(num_vars, depth, reps, int(rng.integers(2**31)))
        circuit = rs.construct_circuit(graph, classes, sums, leaves)
        ok &= rs.validate_region_graph(graph).ok
        ok &= rs.validate_circuit(circuit).ok
        if num_vars >= 2**depth:
            ok &= circuit.stack_depth() == 2 * depth
    elapsed = time.perf_counter() - started
    _report(1, f"200 random configurations valid, stack depth 2D ({elapsed:.1f}s < 10s)",
            ok and elapsed < 10.0)


# ----------------------------------------------------------------------------
# 2. normalization: exhaustive discrete mass and 2-D quadrature
# ----------------------------------------------------------------------------

def _random_discrete(rng, max_vars, max_missing=None):
    num_vars = int(rng.integers(2, max_vars + 1))
    graph = rs.random_region_graph(
        num_vars, int(rng.integers(1, 3)), int(rng.integers(1, 3)),
        int(rng.integers(2**31)),
    )
    circuit = rs.construct_circuit(
        graph, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
        int(rng.integers(1, 4)), leaf_family="bernoulli",
    )
    params = randomize_params(rs.init_parameters(circuit, seed=int(rng.integers(2**31))), rng)
    return circuit, params


def test_criterion_02_normalization():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_discrete = 0.0
    for _ in range(50):
        circuit, params = _random_discrete(rng, 10)
        table = brute_force_mass(load_model_dict(model_to_dict(circuit, params)))
        worst_discrete = max(worst_discrete, float(np.abs(np.exp(table).sum(axis=0) - 1).max()))

    worst_continuous = 0.0
    for _ in range(20):
        graph = rs.random_region_graph(2, 1, int(rng.integers(1, 3)), int(rng.integers(2**31)))
        circuit = rs.construct_circuit(graph, int(rng.integers(1, 4)), 2, int(rng.integers(1, 4)))
        params = randomize_params(rs.init_parameters(circuit, seed=1), rng, 0.8)
        worst_continuous = max(worst_continuous, float(np.abs(quadrature_mass_2d(circuit, params) - 1).max()))

    elapsed = time.perf_counter() - started
    _report(
        2,
        f"mass: discrete err {worst_discrete:.1e} < 1e-9, "
        f"quadrature err {worst_continuous:.1e} < 1e-4 ({elapsed:.1f}s < 60s)",
        worst_discrete < 1e-9 and worst_continuous < 1e-4 and elapsed < 60.0,
    )


# ----------------------------------------------------------------------------
# 3. masked evaluation equals brute-force marginalization (500 triples)
# ----------------------------------------------------------------------------

def test_criterion_03_marginalization_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    triples = 0
    while triples < 500:
        circuit, params = _random_discrete(rng, 8)
        model = load_model_dict(model_to_dict(circuit, params))
        n = circuit.num_vars
        for _ in range(10):
            assignment = rng.integers(0, 2, n)
            k = int(rng.integers(0, min(n, 5) + 1))
            missing = list(rng.permutation(n)[:k])
            mask = np.zeros((1, n), bool)
            mask[0, missing] = True
            engine = rs.forward_log(circuit, params, assignment[None, :].astype(float),
                                    missing=mask)[0]
            oracle = brute_force_marginal(model, list(assignment), missing)
            worst = max(worst, float(np.abs(engine - oracle).max()))
            triples += 1
    elapsed = time.perf_counter() - started
    _report(3, f"500 triples, max |engine - oracle| = {worst:.1e} < 1e-9 "
               f"({elapsed:.1f}s < 60s)", worst < 1e-9 and elapsed < 60.0)


# ----------------------------------------------------------------------------
# 4. gradient correctness against central finite differences
# ----------------------------------------------------------------------------

def test_criterion_04_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    worst_rowsum = 0.0
    for index in range(20):
        num_vars = int(rng.integers(2, 7))
        graph = rs.random_region_graph(num_vars, int(rng.integers(1, 3)),
                                       int(rng.integers(1, 3)), int(rng.integers(2**31)))
        circuit = rs.construct_circuit(graph, int(rng.integers(1, 4)),
                                       int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        train_variance = index % 5 == 0
        params = rs.init_parameters(circuit, seed=int(rng.integers(2**31)),
                                    train_variance=train_variance)
        params = randomize_params(params, rng, 0.4)
        assert rs.count_parameters(circuit, train_variance)["total"] <= 500
        batch = rng.normal(size=(5, num_vars))
        labels = rng.integers(1, circuit.classes_C + 1, 5)

        for lam in (0.0, 0.5, 1.0):
            grads, _ = rs.backward_gradients(circuit, params, batch, labels, lam)
            for row_sums in block_matrices(circuit, grads, "sum_logits").values():
                worst_rowsum = max(worst_rowsum, float(np.abs(row_sums.sum(axis=1)).max()))

            def objective(work):
                probe = rs.ParameterSet(params.layout, work["flat"])
                roots = rs.forward_log(circuit, probe, batch)
                return rs.hybrid_objective(roots, labels, circuit.num_vars, lam)

            approx = finite_diff_gradient(objective, {"flat": params.flat}, 1e-4)["flat"]
            analytic = grads.flat
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(approx)), 1e-2)
            worst_rel = max(worst_rel, float((np.abs(analytic - approx) / denom).max()))
    elapsed = time.perf_counter() - started
    _report(4, f"20 circuits x 3 lambdas: max rel err {worst_rel:.1e} < 1e-4, "
               f"logit row-sums {worst_rowsum:.1e} < 1e-10 ({elapsed:.0f}s < 120s)",
            worst_rel < 1e-4 and worst_rowsum < 1e-10 and elapsed < 120.0)


# ----------------------------------------------------------------------------
# desk-scale experiment shared by criteria 5-8
# ----------------------------------------------------------------------------

BASE_EPOCHS = 30
POST_EPOCHS = 20
LAMBDA_GRID = (0.0, 0.2, 0.5, 1.0)


@pytest.fixture(scope="module")
def desk():
    started = time.perf_counter()
    train_set = rs.make_synthetic_classes(1000, 10, 8, 0.1, family_seed=7, sample_seed=1)
    test_set = rs.make_synthetic_classes(1000, 10, 8, 0.1, family_seed=7, sample_seed=2)

    graph = rs.random_region_graph(64, 2, 8, seed=11)
    circuit = rs.construct_circuit(graph, 10, 8, 8)
    params = rs.init_parameters(circuit, seed=11)
    config = rs.TrainConfig(lam=1.0, epochs=BASE_EPOCHS, batch_size=100, seed=11,
                            learning_rate=1e-2)
    params, metrics = rs.train(circuit, params, train_set, None, config)

    posts = {}
    for lam in LAMBDA_GRID:
        post_config = rs.TrainConfig(lam=lam, epochs=POST_EPOCHS, batch_size=100,
                                     seed=77, learning_rate=1e-2)
        posts[lam], _ = rs.train(circuit, params, train_set, None, post_config)

    return {
        "train": train_set,
        "test": test_set,
        "circuit": circuit,
        "base_params": params,
        "base_metrics": metrics,
        "posts": posts,
        "train_seconds": time.perf_counter() - started,
    }


def test_criterion_05_capacity_overfit(desk):
    accuracy = desk["base_metrics"][-1]["train_accuracy"]
    elapsed = desk["train_seconds"]
    _report(5, f"D=2 R=8 S=I=8 lambda=1: train accuracy {accuracy:.4f} >= 0.99 "
               f"after {BASE_EPOCHS} epochs ({elapsed:.0f}s < 900s)",
            accuracy >= 0.99 and BASE_EPOCHS <= 200 and elapsed < 900.0)


def test_criterion_06_missing_feature_robustness(desk):
    circuit, test_set = desk["circuit"], desk["test"]
    fractions = (0.0, 0.25, 0.5, 0.8, 0.99)
    sweeps = {}
    for lam in (0.2, 1.0):
        accs = []
        for i, fraction in enumerate(fractions):
            mask = rs.random_missing_mask(test_set.features.shape, fraction, seed=1000 + i)
            predicted = rs.classify(circuit, desk["posts"][lam], test_set.features,
                                    missing=mask)
            accs.append(float((predicted == test_set.labels).mean()))
        sweeps[lam] = accs

    gap = sweeps[0.2][3] - sweeps[1.0][3]  # p = 0.8
    monotone = all(
        later <= earlier + 0.01
        for accs in sweeps.values()
        for earlier, later in zip(accs, accs[1:])
    )
    _report(6, f"accuracy gap at p=0.8: {gap * 100:.1f} points >= 5, "
               f"degradation monotone within 1 point "
               f"(0.2: {[round(a, 3) for a in sweeps[0.2]]}, "
               f"1.0: {[round(a, 3) for a in sweeps[1.0]]})",
            gap >= 0.05 and monotone)


def test_criterion_07_hybrid_tradeoff(desk):
    circuit, test_set = desk["circuit"], desk["test"]
    lls, accs = [], []
    for lam in LAMBDA_GRID:
        params = desk["posts"][lam]
        roots = rs.forward_log(circuit, params, test_set.features)
        accs.append(float((np.argmax(roots, axis=1) + 1 == test_set.labels).mean()))
        lls.append(float(rs.log_marginal_input(circuit, params, test_set.features).mean()))

    ll_inversions = sum(b > a for a, b in zip(lls, lls[1:]))
    acc_inversions = sum(b < a for a, b in zip(accs, accs[1:]))
    _report(7, f"over lambda {LAMBDA_GRID}: test LL {[round(v, 1) for v in lls]} "
               f"non-increasing ({ll_inversions} inversions <= 1), accuracy "
               f"{[round(v, 3) for v in accs]} non-decreasing "
               f"({acc_inversions} inversions <= 1)",
            ll_inversions <= 1 and acc_inversions <= 1)


def test_criterion_08_ood_separation(desk):
    circuit, test_set = desk["circuit"], desk["test"]
    params = desk["posts"][0.2]
    noise = rs.make_uniform_noise(1000, 8, seed=33)
    held_out = rs.make_synthetic_classes(1000, 10, 8, 0.1, family_seed=99, sample_seed=5)

    scores_in = rs.log_marginal_input(circuit, params, test_set.features)
    auc_noise = ranking_statistic(
        scores_in, rs.log_marginal_input(circuit, params, noise.features)
    )
    auc_held_out = ranking_statistic(
        scores_in, rs.log_marginal_input(circuit, params, held_out.features)
    )
    _report(8, f"log p(x) ranking: noise {auc_noise:.3f} > 0.95, "
               f"held-out family {auc_held_out:.3f} > 0.80",
            auc_noise > 0.95 and auc_held_out > 0.80)


# ----------------------------------------------------------------------------
# 9. determinism and save/load roundtrip
# ----------------------------------------------------------------------------

def test_criterion_09_determinism_and_roundtrip(tmp_path):
    rng = np.random.default_rng(909)
    data = rs.make_synthetic_classes(200, 4, 3, 0.1, family_seed=3, sample_seed=0)

    def run():
        graph = rs.random_region_graph(9, 2, 2, seed=5)
        circuit = rs.construct_circuit(graph, 4, 3, 3)
        params = rs.init_parameters(circuit, seed=5)
        config = rs.TrainConfig(lam=0.5, epochs=5, batch_size=50, seed=5)
        params, metrics = rs.train(circuit, params, data, None, config)
        return circuit, params, metrics

    circuit_a, params_a, metrics_a = run()
    circuit_b, params_b, metrics_b = run()
    identical_metrics = metrics_a == metrics_b
    identical_params = np.array_equal(params_a.flat, params_b.flat)

    batch = rng.normal(size=(16, 9))
    before = rs.forward_log(circuit_a, params_a, batch)
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    rs.save_model(circuit_a, params_a, path_a)
    loaded_circuit, loaded_params, _ = rs.load_model(path_a)
    after = rs.forward_log(loaded_circuit, loaded_params, batch)
    rs.save_model(loaded_circuit, loaded_params, path_b)

    roundtrip_bits = np.array_equal(before, after)
    file_bits = path_a.read_bytes() == path_b.read_bytes()
    _report(9, "same seed gives bit-identical metrics/params; save-load-save "
               "preserves forward outputs and file bytes exactly",
            identical_metrics and identical_params and roundtrip_bits and file_bits)


# ----------------------------------------------------------------------------
# 10. objective identities
# ----------------------------------------------------------------------------

def test_criterion_10_objective_identities():
    rng = np.random.default_rng(1010)
    worst = 0.0
    exact = True
    for _ in range(50):
        n, c = int(rng.integers(1, 30)), int(rng.integers(2, 6))
        num_vars = int(rng.integers(1, 100))
        roots = rng.normal(0, 10, (n, c))
        labels = rng.integers(1, c + 1, n)
        ce = rs.cross_entropy(roots, labels)
        nll = rs.neg_log_likelihood(roots, labels, num_vars)
        exact &= rs.hybrid_objective(roots, labels, num_vars, 1.0) == ce
        exact &= rs.hybrid_objective(roots, labels, num_vars, 0.0) == nll
        lam = float(rng.uniform(0, 1))
        combined = rs.hybrid_objective(roots, labels, num_vars, lam)
        worst = max(worst, abs(combined - (lam * ce + (1 - lam) * nll)))
    _report(10, f"O(1)=CE, O(0)=nLL exactly; max |O(l) - combination| = "
                f"{worst:.1e} < 1e-12", exact and worst < 1e-12)
