import numpy as np
import pytest
from scipy.integrate import quad

import randspn as rs
from randspn.errors import InvalidInput
from randspn.leaves import (
    bernoulli_terms,
    gaussian_block_log_density,
    gaussian_terms,
    leaf_statistics,
)
from conftest import leaf_members


def group_call(terms, values, missing=None, centre=0.0):
    """(G, N, I): the leaf kernel on (N, G, d) ``values``, masked and centred as in a pass."""
    return gaussian_block_log_density(leaf_statistics(values, missing, centre), terms)


def gaussian(values, means, variances=None, missing=None, centre=0.0):
    """(N, I) log-densities of one block of (I, d) Gaussians: a group of one."""
    variances = np.ones_like(means) if variances is None else variances
    terms = gaussian_terms(means[None] - centre, variances[None])
    return group_call(
        terms, values[:, None], None if missing is None else missing[:, None], centre
    )[0]


def bernoulli(values, logits, missing=None):
    """(N, I) log-masses of one block of (I, d) Bernoullis: a group of one."""
    terms = bernoulli_terms(logits[None])
    return group_call(terms, values[:, None], None if missing is None else missing[:, None])[0]


def einsum_log_mass(values, logits, missing=None):
    """(G, N, I) Bernoulli log-masses of (N, G, d) values by two einsums over x and observed."""
    observed = np.ones_like(values) if missing is None else ~missing
    x = np.where(observed, values, 0.0)
    log_p, log_q = -np.logaddexp(0.0, -logits), -np.logaddexp(0.0, logits)
    return (np.einsum("ngd,gid->gni", x, log_p)
            + np.einsum("ngd,gid->gni", observed - x, log_q))


def test_gaussian_at_its_mean():
    value = gaussian(np.array([[1.7]]), np.array([[1.7]]))[0, 0]
    assert value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)
    assert value == pytest.approx(-0.9189385, abs=1e-6)


def test_all_missing_gives_log_one():
    value = gaussian(np.array([[99.0]]), np.array([[3.0]]), missing=np.array([[True]]))[0, 0]
    assert value == 0.0


def test_masked_entries_have_statistics_of_exactly_zero():
    # a masked NaN or inf is dropped before the finiteness check and the square
    x = np.array([[np.nan, 2.0], [3.0, -np.inf]])
    missing = np.array([[True, False], [False, True]])
    features = leaf_statistics(x, missing, 0.0)  # (V, 3, N)
    assert features.shape == (2, 3, 2)
    np.testing.assert_array_equal(features[0, :, 0], 0.0)
    np.testing.assert_array_equal(features[1, :, 1], 0.0)
    np.testing.assert_array_equal(features[0, :, 1], [9.0, 3.0, 1.0])
    np.testing.assert_array_equal(features[1, :, 0], [4.0, 2.0, 1.0])
    # a fully masked row's statistics are zeros, at any row count
    wide = np.tile(x, (5, 1))
    features = leaf_statistics(wide, np.ones_like(wide, bool), 0.0)
    assert features.shape == (2, 3, 10)
    np.testing.assert_array_equal(features, 0.0)
    for mask in (None, np.array([[False, False], [False, True]])):  # NaN left observed
        with pytest.raises(InvalidInput, match="observed values must be finite"):
            leaf_statistics(x, mask, 0.0)


def test_fair_coin_pair():
    value = bernoulli(np.array([[1.0, 0.0]]), np.zeros((1, 2)))[0, 0]
    assert value == pytest.approx(np.log(0.25), abs=1e-12)


def test_non_finite_observation_rejected():
    means = np.array([[0.0]])
    with pytest.raises(InvalidInput):
        gaussian(np.array([[np.nan]]), means)
    # but a masked non-finite value is marginalized away
    masked = gaussian(np.array([[np.nan]]), means, missing=np.array([[True]]))
    assert masked[0, 0] == 0.0


def test_batch_matches_scalar_and_is_deterministic(rng):
    # one leaf node over three variables
    means = rng.normal(size=3)[None, :]
    variances = rng.uniform(0.5, 2.0, 3)[None, :]
    batch = rng.normal(size=(4, 3))
    batch[1] = batch[0]
    out = gaussian(batch, means, variances)[:, 0]
    assert out[0] == out[1]
    single = gaussian(batch[2:3], means, variances)[0, 0]
    assert out[2] == pytest.approx(single, abs=1e-12)

    masked = gaussian(batch, means, variances, missing=np.ones_like(batch, bool))[:, 0]
    np.testing.assert_array_equal(masked, np.zeros(4))


def test_masking_equals_numeric_integration(rng):
    # dropping a variable's term must equal integrating it out
    means = rng.normal(size=(1, 2))
    variances = rng.uniform(0.5, 2.0, (1, 2))
    x = rng.normal(size=(1, 2))
    masked = gaussian(x, means, variances, missing=np.array([[False, True]]))[0, 0]

    def joint(v):
        row = np.array([[x[0, 0], v]])
        return float(np.exp(gaussian(row, means, variances)[0, 0]))

    integrated, _ = quad(joint, means[0, 1] - 12, means[0, 1] + 12, limit=200)
    assert np.exp(masked) == pytest.approx(integrated, abs=1e-6)


def test_monotone_mask_difference_is_the_masked_terms(rng):
    means = rng.normal(size=(3, 4))
    x = rng.normal(size=(5, 4))
    m_small = np.zeros((5, 4), bool)
    m_small[:, 1] = True
    m_big = m_small.copy()
    m_big[:, 3] = True
    small = gaussian(x, means, missing=m_small)
    big = gaussian(x, means, missing=m_big)
    term = gaussian(x, means, missing=~(np.arange(4) == 3)[None, :].repeat(5, axis=0))
    np.testing.assert_allclose(small - big, term, atol=1e-12)


def test_bernoulli_normalization(rng):
    logits = rng.normal(0, 3, size=(4, 6))
    ones = bernoulli(np.ones((1, 6)), logits)
    # sum over both values per variable: evaluate each variable alone
    for v in range(6):
        mask = np.ones((1, 6), bool)
        mask[0, v] = False
        p1 = np.exp(bernoulli(np.ones((1, 6)), logits, mask))
        p0 = np.exp(bernoulli(np.zeros((1, 6)), logits, mask))
        np.testing.assert_allclose(p0 + p1, 1.0, atol=1e-14)
    assert np.all(np.isfinite(ones))


def test_variance_floor_applies_to_trainable_variances():
    from randspn.leaves import clamped_variances

    assert clamped_variances(np.array([-100.0]))[0] == pytest.approx(1e-4)
    assert clamped_variances(np.array([0.0]))[0] == pytest.approx(1.0)


def family_terms(family, params, variances):
    """The terms of a leaf family on (G, I, d) parameters."""
    if family == "bernoulli":
        return bernoulli_terms(params)
    if family == "gaussian":
        variances = np.ones_like(params)
    return gaussian_terms(params, variances)


@pytest.mark.parametrize("family", ["gaussian", "gaussian-var", "bernoulli"])
def test_group_call_equals_block_calls_bit_for_bit(rng, family):
    # a group of 3 blocks with scope size 4 and 5 leaf nodes each: every
    # member's bits equal those of a group of one holding only that member
    x = rng.normal(size=(6, 3, 4))
    params = rng.normal(size=(3, 5, 4))
    variances = np.exp(rng.normal(size=(3, 5, 4)))
    missing = rng.random((6, 3, 4)) < 0.3
    if family == "bernoulli":
        x = (x > 0).astype(float)

    for mask in (None, missing):
        group = group_call(family_terms(family, params, variances), x, mask)
        assert group.shape == (3, 6, 5)
        for g in range(3):
            member = slice(g, g + 1)
            alone = group_call(
                family_terms(family, params[member], variances[member]),
                x[:, member], None if mask is None else mask[:, member],
            )
            np.testing.assert_array_equal(group[g], alone[0])


@pytest.mark.filterwarnings("error")
def test_overflowing_observation_has_log_density_minus_inf():
    # (1e160 - mean)^2 overflows: density 0, no RuntimeWarning
    x = np.array([[1e160, 0.0], [0.5, 0.0]])
    out = gaussian(x, np.zeros((3, 2)), np.ones((3, 2)))
    assert np.isneginf(out[0]).all()
    assert np.isfinite(out[1]).all()
    masked = gaussian(x, np.zeros((3, 2)), missing=x > 1e100)
    assert np.isfinite(masked).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["gaussian", "gaussian-var", "bernoulli"])
def test_masked_entries_contribute_exactly_zero(rng, family):
    # a masked entry's term is exactly 0 whatever its parameter (|mean| =
    # 1e200, whose squared distance would overflow) or its value (NaN)
    x = rng.normal(size=(5, 3, 4))
    params = rng.normal(size=(3, 2, 4))
    variances = np.exp(rng.normal(size=(3, 2, 4)))
    missing = rng.random((5, 3, 4)) < 0.4
    missing[:, :, 1] = True
    if family == "bernoulli":
        x = (x > 0).astype(float)

    def kernel(x, p):
        return group_call(family_terms(family, p, variances), x, missing)

    base = kernel(np.where(missing, 0.0, x), params)
    wild_x = np.where(missing, np.nan, x)
    wild_params = params.copy()
    wild_params[..., 1] = 1e200
    np.testing.assert_array_equal(kernel(wild_x, params), base)
    np.testing.assert_array_equal(kernel(x, wild_params), base)
    assert np.isfinite(base).all()


def test_expanded_leaf_meets_its_cancellation_bound_on_unscaled_pixels():
    # 0..255 features with data-aware means and variances: x² and mean² are
    # about 1e4 times a term's log-density, the worst case for the expanded
    # form. Each leaf's log-density, on statistics centred by the set's
    # centre c, must lie within the README's bound, 3d eps
    # sum_observed((|x - c| + |mean - c|)² / (2 var) + |log(2 pi var)| / 2),
    # of the oracle's, which multiplies the per-variable densities.
    import math

    from randspn.leaves import clamped_variances
    from randspn.model_io import model_to_dict
    from randspn.oracle import load_model_dict

    data = rs.make_synthetic_classes(30, num_classes=10, side=8, sample_seed=3)
    pixels = np.rint(data.features * 255.0)
    stds = np.maximum(pixels.std(axis=0), 1.0)
    circuit = rs.construct_circuit(rs.random_region_graph(64, 2, 2, seed=5), 2, 2, 3)
    params = rs.init_parameters(
        circuit, seed=5, feature_stats=(pixels.mean(axis=0), stds), train_variance=True
    )
    rng = np.random.default_rng(6)
    flat = params.flat.copy()
    for group, member, region in leaf_members(circuit):
        log_vars = params.stacked("leaf_log_vars", group, flat)
        noise = rng.normal(0.0, 0.3, log_vars[member].shape)
        log_vars[member] = 2.0 * np.log(stds[list(region.scope)]) + noise
    params = rs.ParameterSet(params.layout, flat)
    model = load_model_dict(model_to_dict(circuit, params))
    missing = rng.random(pixels.shape) < 0.2
    eps = np.finfo(float).eps
    worst = 0.0
    for group, member, region in leaf_members(circuit):
        scope = list(region.scope)
        means = params.stacked("leaf_means", group)[member]  # (I, d)
        variances = clamped_variances(params.stacked("leaf_log_vars", group)[member])
        observed, centre = ~missing[:, scope], params.centre[scope]
        x = np.where(observed, pixels[:, scope] - centre, 0.0)
        got = gaussian(pixels[:, scope], means, variances, missing[:, scope], centre)
        scale = ((np.abs(x)[:, None] + np.abs(means - centre)) ** 2 / (2 * variances)
                 + np.abs(np.log(2 * np.pi * variances)) / 2)  # (N, I, d)
        bound = 3 * len(scope) * eps * (scale * observed[:, None]).sum(axis=-1)
        for n, row in enumerate(pixels):
            gone = set(np.flatnonzero(missing[n]).tolist())
            for i in range(len(means)):
                want = math.log(model._leaf_value(region.index, i, row, gone))
                error = abs(got[n, i] - want)
                assert error <= bound[n, i], (region, n, i, error, bound[n, i])
                worst = max(worst, error / bound[n, i])
    assert 0.0 < worst < 1.0
    assert (params.centre != 0).any()


@pytest.mark.parametrize("values, means", [
    ([1e8 + 1], [1e8]),
    ([3e5 + 0.5], [3e5]),
    ([1e150], [1e150]),
    ([1e8 + 1], [1e8, 1e8 + 2]),  # a centre between two means
], ids=["1e8", "3e5", "1e150", "two-means"])
def test_large_close_values_and_means_keep_their_digits(values, means):
    # one variable at unit variance, through the parameter set's centre:
    # the uncentred expansion gave -1.0, -1.0439377 and 0.0 on the first three
    import math

    circuit = rs.construct_circuit(rs.random_region_graph(1, 1, 1, seed=0), 1, 1, len(means))
    params = rs.init_parameters(circuit, seed=0)
    (leaf,) = [group for group in circuit.plan if group.kind == "leaf"]
    flat = params.flat.copy()
    params.stacked("leaf_means", leaf, flat)[0, :, 0] = means
    params = rs.ParameterSet(params.layout, flat)
    _, tables, _ = rs.forward_log(circuit, params, np.array([values]), return_tables=True)
    want = [-0.5 * (values[0] - mean) ** 2 - 0.5 * math.log(2 * math.pi) for mean in means]
    np.testing.assert_allclose(tables[leaf.index][0, 0], want, rtol=1e-12)


@pytest.mark.parametrize("masked", [False, True])
def test_bernoulli_leaves_match_the_einsum_over_x_and_observed(rng, masked):
    # the one GEMM, with coefficients (0, logit, log q), against
    # x log p + (observed - x) log q on binary data
    x = (rng.random((20, 3, 4)) < 0.5).astype(float)
    logits = rng.normal(0.0, 3.0, (3, 5, 4))
    missing = rng.random(x.shape) < 0.3 if masked else None
    got = group_call(bernoulli_terms(logits), x, missing)
    np.testing.assert_allclose(got, einsum_log_mass(x, logits, missing), rtol=1e-14)


def test_huge_bernoulli_logits_are_not_recomputed_as_gaussians(monkeypatch):
    # logits of +-1e305 give log-masses down to about -1e305, below the
    # Gaussian rescue's -1e300: they are the GEMM's values, as the einsum's
    import randspn.leaves

    def rescue(*args):
        raise AssertionError("a Bernoulli row went through the difference form")

    monkeypatch.setattr(randspn.leaves, "_difference_form", rescue)
    circuit = rs.construct_circuit(rs.random_region_graph(4, 1, 2, seed=0), 2, 2, 3, "bernoulli")
    params = rs.init_parameters(circuit, seed=0)
    flat = params.flat.copy()
    leaves = [group for group in circuit.plan if group.kind == "leaf"]
    for group in leaves:
        logits = params.stacked("leaf_logits", group, flat)
        logits[:] = np.where(np.arange(logits.size).reshape(logits.shape) % 2, 1e305, -1e305)
    params = rs.ParameterSet(params.layout, flat)
    batch = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
    _, tables, _ = rs.forward_log(circuit, params, batch, return_tables=True)
    for group in leaves:
        want = einsum_log_mass(batch[:, group.scope], params.stacked("leaf_logits", group))
        assert (want < -1e300).any()
        np.testing.assert_allclose(tables[group.index], want, rtol=1e-14)
