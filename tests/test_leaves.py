import numpy as np
import pytest
from scipy.integrate import quad

from randspn.errors import InvalidInput
from randspn.leaves import (
    bernoulli_block_log_mass,
    gaussian_block_log_density,
)


def test_gaussian_at_its_mean():
    value = gaussian_block_log_density(np.array([[1.7]]), np.array([[1.7]]))[0, 0]
    assert value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)
    assert value == pytest.approx(-0.9189385, abs=1e-6)


def test_all_missing_gives_log_one():
    value = gaussian_block_log_density(
        np.array([[99.0]]), np.array([[3.0]]), missing=np.array([[True]])
    )[0, 0]
    assert value == 0.0


def test_fair_coin_pair():
    value = bernoulli_block_log_mass(np.array([[1.0, 0.0]]), np.zeros((1, 2)))[0, 0]
    assert value == pytest.approx(np.log(0.25), abs=1e-12)


def test_non_finite_observation_rejected():
    means = np.array([[0.0]])
    with pytest.raises(InvalidInput):
        gaussian_block_log_density(np.array([[np.nan]]), means)
    # but a masked non-finite value is marginalized away
    masked = gaussian_block_log_density(
        np.array([[np.nan]]), means, missing=np.array([[True]])
    )
    assert masked[0, 0] == 0.0


def test_batch_matches_scalar_and_is_deterministic(rng):
    # one leaf node over three variables
    means = rng.normal(size=3)[None, :]
    variances = rng.uniform(0.5, 2.0, 3)[None, :]
    batch = rng.normal(size=(4, 3))
    batch[1] = batch[0]
    out = gaussian_block_log_density(batch, means, variances)[:, 0]
    assert out[0] == out[1]
    single = gaussian_block_log_density(batch[2:3], means, variances)[0, 0]
    assert out[2] == pytest.approx(single, abs=1e-12)

    masked = gaussian_block_log_density(
        batch, means, variances, missing=np.ones_like(batch, bool)
    )[:, 0]
    np.testing.assert_array_equal(masked, np.zeros(4))


def test_block_shapes_checked():
    with pytest.raises(InvalidInput):
        gaussian_block_log_density(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(InvalidInput):
        bernoulli_block_log_mass(np.zeros((2, 3)), np.zeros((4, 2)))


def test_masking_equals_numeric_integration(rng):
    # dropping a variable's term must equal integrating it out
    means = rng.normal(size=(1, 2))
    variances = rng.uniform(0.5, 2.0, (1, 2))
    x = rng.normal(size=(1, 2))
    masked = gaussian_block_log_density(
        x, means, variances, missing=np.array([[False, True]])
    )[0, 0]

    def joint(v):
        row = np.array([[x[0, 0], v]])
        return float(np.exp(gaussian_block_log_density(row, means, variances)[0, 0]))

    integrated, _ = quad(joint, means[0, 1] - 12, means[0, 1] + 12, limit=200)
    assert np.exp(masked) == pytest.approx(integrated, abs=1e-6)


def test_monotone_mask_difference_is_the_masked_terms(rng):
    means = rng.normal(size=(3, 4))
    x = rng.normal(size=(5, 4))
    m_small = np.zeros((5, 4), bool)
    m_small[:, 1] = True
    m_big = m_small.copy()
    m_big[:, 3] = True
    small = gaussian_block_log_density(x, means, None, m_small)
    big = gaussian_block_log_density(x, means, None, m_big)
    term = gaussian_block_log_density(
        x, means, None, ~(np.arange(4) == 3)[None, :].repeat(5, axis=0)
    )
    np.testing.assert_allclose(small - big, term, atol=1e-12)


def test_bernoulli_normalization(rng):
    logits = rng.normal(0, 3, size=(4, 6))
    ones = bernoulli_block_log_mass(np.ones((1, 6)), logits)
    # sum over both values per variable: evaluate each variable alone
    for v in range(6):
        mask = np.ones((1, 6), bool)
        mask[0, v] = False
        p1 = np.exp(bernoulli_block_log_mass(np.ones((1, 6)), logits, mask))
        p0 = np.exp(bernoulli_block_log_mass(np.zeros((1, 6)), logits, mask))
        np.testing.assert_allclose(p0 + p1, 1.0, atol=1e-14)
    assert np.all(np.isfinite(ones))


def test_variance_floor_applies_to_trainable_variances():
    from randspn.leaves import clamped_variances

    assert clamped_variances(np.array([-100.0]))[0] == pytest.approx(1e-4)
    assert clamped_variances(np.array([0.0]))[0] == pytest.approx(1.0)
