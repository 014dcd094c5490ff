import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from xray3d.diffusion import (
    NoiseSchedule,
    dm_loss,
    forward_step,
    reverse_step,
    upsampler_loss,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, width=64)


def small_tensor(max_side=4):
    return arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=max_side),
        elements=finite_floats,
    )


def test_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule([])
    with pytest.raises(ValueError):
        NoiseSchedule([0.5, 0.0])
    with pytest.raises(ValueError):
        NoiseSchedule([1.1])
    for bad in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError) as info:
            NoiseSchedule([0.9, 0.8, bad])
        assert str(info.value) == f"every alpha must lie in (0, 1], got alpha_3 = {bad}"
    sched = NoiseSchedule([0.9, 0.8, 1.0])
    assert sched.steps == 3
    with pytest.raises(ValueError):
        sched.alpha(0)
    with pytest.raises(ValueError):
        sched.alpha(4)


def test_schedule_leaves_the_callers_alphas_writable():
    alphas = np.array([0.9, 0.8, 1.0])
    sched = NoiseSchedule(alphas)
    assert alphas.flags.writeable and not sched.alphas.flags.writeable


@given(small_tensor())
@settings(max_examples=50, deadline=None)
def test_forward_identity_at_alpha_one(x):
    sched = NoiseSchedule([1.0])
    eps = np.ones_like(x)
    np.testing.assert_array_equal(forward_step(x, 1, sched, eps), x)


def test_forward_arithmetic_examples():
    sched = NoiseSchedule([0.25, 0.64])
    assert forward_step(np.array([1.0]), 1, sched, np.array([0.0]))[0] == pytest.approx(0.5)
    got = forward_step(np.array([2.0]), 2, sched, np.array([2.0]))[0]
    assert got == pytest.approx(0.8 * 2 + 0.6 * 2, abs=1e-15)


def test_forward_shape_and_range_checks():
    sched = NoiseSchedule([0.5])
    with pytest.raises(ValueError, match="shape"):
        forward_step(np.zeros(3), 1, sched, np.zeros(4))
    with pytest.raises(ValueError, match="step"):
        forward_step(np.zeros(3), 2, sched, np.zeros(3))


def test_reverse_zero_predictor_rescales():
    sched = NoiseSchedule([0.81])
    x = np.array([1.0, -2.0, 0.5])
    got = reverse_step(x, 1, sched, lambda xt, t: np.zeros_like(xt))
    np.testing.assert_allclose(got, x / 0.9, atol=1e-15)


def test_reverse_hand_computed_value():
    # alpha = 0.75: (1 - 0.25 / sqrt(1 - 0.5625)) / sqrt(0.75)
    sched = NoiseSchedule([0.75])
    got = reverse_step(np.array([1.0]), 1, sched, lambda xt, t: np.ones_like(xt))
    expected = (1.0 - 0.25 / math.sqrt(1.0 - 0.75**2)) / math.sqrt(0.75)
    assert got[0] == pytest.approx(expected, abs=1e-12)
    assert got[0] == pytest.approx(0.7182, abs=1e-4)


def test_reverse_alpha_one_rejected():
    sched = NoiseSchedule([1.0])
    with pytest.raises(ValueError, match="alpha = 1"):
        reverse_step(np.zeros(2), 1, sched, lambda xt, t: xt)


@given(small_tensor(), st.floats(0.1, 0.99))
@settings(max_examples=30, deadline=None)
def test_reverse_linearity(x, alpha):
    sched = NoiseSchedule([alpha])
    predictor = lambda xt, t: 0.5 * xt  # noqa: E731 - linear in its input
    a = reverse_step(3.0 * x, 1, sched, predictor)
    b = 3.0 * reverse_step(x, 1, sched, predictor)
    np.testing.assert_allclose(a, b, atol=1e-9 * (1 + np.abs(b).max()))


def test_dm_loss_examples():
    assert dm_loss(np.ones(5), np.ones(5)) == 0.0
    assert dm_loss(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="shape"):
        dm_loss(np.zeros(2), np.zeros(3))


@given(small_tensor())
@settings(max_examples=50, deadline=None)
def test_dm_loss_matches_naive_loop(eps):
    rng = np.random.default_rng(0)
    pred = eps + rng.normal(size=eps.shape)
    naive = sum((a - b) ** 2 for a, b in zip(eps.flat, pred.flat)) / eps.size
    assert dm_loss(eps, pred) == pytest.approx(naive, rel=1e-12, abs=1e-12)


@given(small_tensor())
@settings(max_examples=30, deadline=None)
def test_dm_loss_nonnegative_symmetric(x):
    rng = np.random.default_rng(1)
    y = x + rng.normal(size=x.shape)
    assert dm_loss(x, y) >= 0.0
    assert dm_loss(x, y) == dm_loss(y, x)
    assert dm_loss(x, x) == 0.0


def _random_case(seed, layers=2, h=4, w=4):
    rng = np.random.default_rng(seed)
    x_gt = rng.normal(size=(layers, 8, h, w))
    x_up = rng.normal(size=(layers, 8, h, w))
    h_gt = (rng.random(size=(layers, 1, h, w)) > 0.4).astype(float)
    h_up = rng.random(size=(layers, 1, h, w))
    return x_gt, x_up, h_gt, h_up


def test_upsampler_zero_when_equal():
    x_gt, _, h_gt, _ = _random_case(0)
    assert upsampler_loss(x_gt, x_gt.copy(), h_gt, h_gt.copy()) == 0.0


def test_upsampler_ignores_unmasked_region():
    x_gt, x_up, h_gt, h_up = _random_case(1)
    base = upsampler_loss(x_gt, x_up, h_gt, h_up)
    poked = x_up.copy()
    mask = np.broadcast_to(h_gt > 0.5, x_up.shape)
    poked[~mask] += 17.0
    assert upsampler_loss(x_gt, poked, h_gt, h_up) == pytest.approx(base, rel=1e-12)


def test_upsampler_all_ones_mask_constant_diff():
    x_gt = np.zeros((1, 8, 3, 3))
    x_up = np.full((1, 8, 3, 3), 0.25)
    h = np.ones((1, 1, 3, 3))
    got = upsampler_loss(x_gt, x_up, h, h.copy())
    assert got == pytest.approx(0.25**2, abs=1e-15)


def test_upsampler_matches_naive_loop():
    x_gt, x_up, h_gt, h_up = _random_case(2)
    mask = np.broadcast_to(h_gt > 0.5, x_gt.shape)
    diffs = [(a - b) ** 2 for a, b, m in zip(x_gt.flat, x_up.flat, mask.flat) if m]
    naive = sum(diffs) / len(diffs) + np.mean((h_gt - h_up) ** 2)
    assert upsampler_loss(x_gt, x_up, h_gt, h_up) == pytest.approx(naive, rel=1e-12)


def test_upsampler_strict_rejects_fractional_mask():
    x_gt, x_up, h_gt, h_up = _random_case(3)
    h_frac = h_gt * 0.6
    with pytest.raises(ValueError, match="fractional value 0.6$"):
        upsampler_loss(x_gt, x_up, h_frac, h_up)


@pytest.mark.parametrize("value", [1.5, -0.25])
def test_upsampler_names_a_hit_value_outside_the_unit_interval(value):
    x_gt, x_up, h_gt, h_up = _random_case(3)
    h_bad = h_gt.copy()
    h_bad[1, 0, 2, 3] = value
    with pytest.raises(ValueError, match=rf"hit values must lie in \[0, 1\], got {value}$"):
        upsampler_loss(x_gt, x_up, h_bad, h_up)


def test_upsampler_mask_range_checked():
    x_gt, x_up, h_gt, h_up = _random_case(4)
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        upsampler_loss(x_gt, x_up, h_gt + 2.0, h_up)


def test_upsampler_shape_mismatch():
    x_gt, x_up, h_gt, h_up = _random_case(5)
    with pytest.raises(ValueError, match="shape"):
        upsampler_loss(x_gt[..., :2], x_up, h_gt, h_up)
    with pytest.raises(ValueError, match="broadcast"):
        upsampler_loss(x_gt, x_up, np.ones((7, 1, 1, 1)), np.ones((7, 1, 1, 1)))


def test_upsampler_gradient_matches_finite_differences():
    x_gt, x_up, h_gt, h_up = _random_case(6, layers=1, h=3, w=3)
    mask = np.broadcast_to(h_gt > 0.5, x_gt.shape)
    n_masked = int(mask.sum())
    analytic = np.where(mask, 2.0 * (x_up - x_gt) / n_masked, 0.0)
    eps = 1e-6
    for idx in [(0, 0, 1, 1), (0, 3, 2, 0), (0, 7, 0, 2)]:
        bumped_up = x_up.copy()
        bumped_up[idx] += eps
        bumped_dn = x_up.copy()
        bumped_dn[idx] -= eps
        numeric = (
            upsampler_loss(x_gt, bumped_up, h_gt, h_up)
            - upsampler_loss(x_gt, bumped_dn, h_gt, h_up)
        ) / (2 * eps)
        if mask[idx]:
            assert numeric == pytest.approx(analytic[idx], rel=1e-5)
        else:
            assert numeric == pytest.approx(0.0, abs=1e-12)


@given(small_tensor(), st.floats(0.05, 1.0))
@settings(max_examples=30, deadline=None)
def test_forward_reverse_elementwise_permutation_equivariance(x, alpha):
    if x.size < 2:
        return
    sched = NoiseSchedule([min(alpha, 0.99)])
    flat = x.reshape(-1)
    perm = np.random.default_rng(0).permutation(flat.size)
    eps = np.linspace(-1, 1, flat.size)
    direct = forward_step(flat, 1, sched, eps)[perm]
    permuted = forward_step(flat[perm], 1, sched, eps[perm])
    np.testing.assert_array_equal(direct, permuted)
