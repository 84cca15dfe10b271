import numpy as np
import pytest
from scipy.integrate import quad

from randspn.errors import InvalidInput
from randspn.leaves import (
    bernoulli_block_log_mass,
    bernoulli_terms,
    gaussian_block_log_density,
    gaussian_terms,
    leaf_statistics,
)


def group_call(kernel, terms, values, missing=None):
    """(G, N, I): ``kernel`` on (N, G, d) ``values``, masked and gathered as the engine does."""
    return kernel(leaf_statistics(values, missing), terms)


def gaussian(values, means, variances=None, missing=None):
    """(N, I) log-densities of one block of (I, d) Gaussians: a group of one."""
    variances = np.ones_like(means) if variances is None else variances
    terms = gaussian_terms(means[None], variances[None])
    return group_call(
        gaussian_block_log_density, terms, values[:, None],
        None if missing is None else missing[:, None],
    )[0]


def bernoulli(values, logits, missing=None):
    """(N, I) log-masses of one block of (I, d) Bernoullis: a group of one."""
    return group_call(
        bernoulli_block_log_mass, bernoulli_terms(logits[None]), values[:, None],
        None if missing is None else missing[:, None],
    )[0]


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
    features = leaf_statistics(x, missing).features  # (V, 3, R)
    assert features.shape == (2, 3, 8)
    np.testing.assert_array_equal(features[0, :, 0], 0.0)
    np.testing.assert_array_equal(features[1, :, 1], 0.0)
    np.testing.assert_array_equal(features[0, :, 1], [9.0, 3.0, 1.0])
    np.testing.assert_array_equal(features[1, :, 0], [4.0, 2.0, 1.0])
    np.testing.assert_array_equal(features[..., 2:], 0.0)  # padding rows
    for mask in (None, np.array([[False, False], [False, True]])):  # NaN left observed
        with pytest.raises(InvalidInput, match="observed values must be finite"):
            leaf_statistics(x, mask)


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


def family_kernel(family, params, variances):
    """(kernel, terms) of a leaf family on (G, I, d) parameters."""
    if family == "bernoulli":
        return bernoulli_block_log_mass, bernoulli_terms(params)
    if family == "gaussian":
        variances = np.ones_like(params)
    return gaussian_block_log_density, gaussian_terms(params, variances)


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
        group = group_call(*family_kernel(family, params, variances), x, mask)
        assert group.shape == (3, 6, 5)
        for g in range(3):
            member = slice(g, g + 1)
            alone = group_call(
                *family_kernel(family, params[member], variances[member]),
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
        return group_call(*family_kernel(family, p, variances), x, missing)

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
    # form. Each leaf's log-density must lie within the README's bound,
    # 3d eps sum_observed((|x| + |mean|)² / (2 var) + |log(2 pi var)| / 2),
    # of the oracle's, which multiplies the per-variable densities.
    import math

    import randspn as rs
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
    for block in (b for b in circuit.blocks if b.kind == "leaf"):
        log_vars = params.stacked("leaf_log_vars", circuit.plan[block.group], flat)
        noise = rng.normal(0.0, 0.3, log_vars[block.position].shape)
        log_vars[block.position] = 2.0 * np.log(stds[list(block.scope)]) + noise
    params = rs.ParameterSet(params.layout, flat)
    model = load_model_dict(model_to_dict(circuit, params))
    missing = rng.random(pixels.shape) < 0.2
    eps = np.finfo(float).eps
    worst = 0.0
    for block in (b for b in circuit.blocks if b.kind == "leaf"):
        group, scope = circuit.plan[block.group], list(block.scope)
        means = params.stacked("leaf_means", group)[block.position]  # (I, d)
        variances = clamped_variances(params.stacked("leaf_log_vars", group)[block.position])
        observed = ~missing[:, scope]
        x = np.where(observed, pixels[:, scope], 0.0)
        got = gaussian(pixels[:, scope], means, variances, missing[:, scope])
        scale = ((np.abs(x)[:, None] + np.abs(means)) ** 2 / (2 * variances)
                 + np.abs(np.log(2 * np.pi * variances)) / 2)  # (N, I, d)
        bound = 3 * len(scope) * eps * (scale * observed[:, None]).sum(axis=-1)
        for n, row in enumerate(pixels):
            gone = set(np.flatnonzero(missing[n]).tolist())
            for i in range(len(means)):
                want = math.log(model._leaf_value(block.node.index, i, row, gone))
                error = abs(got[n, i] - want)
                assert error <= bound[n, i], (block, n, i, error, bound[n, i])
                worst = max(worst, error / bound[n, i])
    assert 0.0 < worst < 1.0
