import numpy as np
import pytest
from scipy.integrate import quad

from randspn.errors import InvalidInput
from randspn.leaves import (
    bernoulli_block_log_mass,
    bernoulli_terms,
    gaussian_block_log_density,
    gaussian_terms,
    mask_batch,
)


def gaussian(values, terms, missing=None):
    """The Gaussian kernel on ``values`` masked first, as the engine calls it."""
    x, observed = mask_batch(values, missing)
    return gaussian_block_log_density(x, terms, observed)


def bernoulli(values, terms, missing=None):
    x, observed = mask_batch(values, missing)
    return bernoulli_block_log_mass(x, terms, observed)


def test_gaussian_at_its_mean():
    terms = gaussian_terms(np.array([[1.7]]))
    value = gaussian_block_log_density(np.array([[1.7]]), terms)[0, 0]
    assert value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)
    assert value == pytest.approx(-0.9189385, abs=1e-6)


def test_all_missing_gives_log_one():
    value = gaussian(
        np.array([[99.0]]), gaussian_terms(np.array([[3.0]])), missing=np.array([[True]])
    )[0, 0]
    assert value == 0.0


def test_fair_coin_pair():
    terms = bernoulli_terms(np.zeros((1, 2)))
    value = bernoulli_block_log_mass(np.array([[1.0, 0.0]]), terms)[0, 0]
    assert value == pytest.approx(np.log(0.25), abs=1e-12)


def test_non_finite_observation_rejected():
    means = gaussian_terms(np.array([[0.0]]))
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
    terms = gaussian_terms(means, variances)
    out = gaussian_block_log_density(batch, terms)[:, 0]
    assert out[0] == out[1]
    single = gaussian_block_log_density(batch[2:3], terms)[0, 0]
    assert out[2] == pytest.approx(single, abs=1e-12)

    masked = gaussian(batch, terms, missing=np.ones_like(batch, bool))[:, 0]
    np.testing.assert_array_equal(masked, np.zeros(4))


def test_block_shapes_checked():
    with pytest.raises(InvalidInput):
        gaussian_block_log_density(np.zeros((2, 3)), gaussian_terms(np.zeros((4, 2))))
    with pytest.raises(InvalidInput):
        bernoulli_block_log_mass(np.zeros((2, 3)), bernoulli_terms(np.zeros((4, 2))))


def test_masking_equals_numeric_integration(rng):
    # dropping a variable's term must equal integrating it out
    means = rng.normal(size=(1, 2))
    variances = rng.uniform(0.5, 2.0, (1, 2))
    x = rng.normal(size=(1, 2))
    terms = gaussian_terms(means, variances)
    masked = gaussian(x, terms, missing=np.array([[False, True]]))[0, 0]

    def joint(v):
        row = np.array([[x[0, 0], v]])
        return float(np.exp(gaussian_block_log_density(row, terms)[0, 0]))

    integrated, _ = quad(joint, means[0, 1] - 12, means[0, 1] + 12, limit=200)
    assert np.exp(masked) == pytest.approx(integrated, abs=1e-6)


def test_monotone_mask_difference_is_the_masked_terms(rng):
    means = gaussian_terms(rng.normal(size=(3, 4)))
    x = rng.normal(size=(5, 4))
    m_small = np.zeros((5, 4), bool)
    m_small[:, 1] = True
    m_big = m_small.copy()
    m_big[:, 3] = True
    small = gaussian(x, means, m_small)
    big = gaussian(x, means, m_big)
    term = gaussian(x, means, ~(np.arange(4) == 3)[None, :].repeat(5, axis=0))
    np.testing.assert_allclose(small - big, term, atol=1e-12)


def test_bernoulli_normalization(rng):
    logits = bernoulli_terms(rng.normal(0, 3, size=(4, 6)))
    ones = bernoulli_block_log_mass(np.ones((1, 6)), logits)
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


@pytest.mark.parametrize("family", ["gaussian", "gaussian-var", "bernoulli"])
def test_group_call_equals_block_calls_bit_for_bit(rng, family):
    # a group of 3 blocks with scope size 4 and 5 leaf nodes each
    x = rng.normal(size=(6, 3, 4))
    params = rng.normal(size=(3, 5, 4))
    variances = np.exp(rng.normal(size=(3, 5, 4)))
    missing = rng.random((6, 3, 4)) < 0.3
    if family == "bernoulli":
        x = (x > 0).astype(float)

    def kernel(x, p, v, m):
        if family == "bernoulli":
            return bernoulli(x, bernoulli_terms(p), m)
        terms = gaussian_terms(p, v if family == "gaussian-var" else None)
        return gaussian(x, terms, m)

    for mask in (None, missing):
        group = kernel(x, params, variances, mask)
        assert group.shape == (6, 3, 5)
        for g in range(3):
            block = kernel(x[:, g], params[g], variances[g], None if mask is None else mask[:, g])
            np.testing.assert_array_equal(group[:, g], block)


@pytest.mark.filterwarnings("error")
def test_overflowing_observation_has_log_density_minus_inf():
    # (1e160 - mean)^2 overflows: density 0, no RuntimeWarning
    x = np.array([[1e160, 0.0], [0.5, 0.0]])
    out = gaussian_block_log_density(x, gaussian_terms(np.zeros((3, 2)), np.ones((3, 2))))
    assert np.isneginf(out[0]).all()
    assert np.isfinite(out[1]).all()
    masked = gaussian(x, gaussian_terms(np.zeros((3, 2))), x > 1e100)
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
        if family == "bernoulli":
            return bernoulli(x, bernoulli_terms(p), missing)
        terms = gaussian_terms(p, variances if family == "gaussian-var" else None)
        return gaussian(x, terms, missing)

    base = kernel(np.where(missing, 0.0, x), params)
    wild_x = np.where(missing, np.nan, x)
    wild_params = params.copy()
    wild_params[..., 1] = 1e200
    np.testing.assert_array_equal(kernel(wild_x, params), base)
    np.testing.assert_array_equal(kernel(x, wild_params), base)
    assert np.isfinite(base).all()
