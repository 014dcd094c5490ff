"""Noise-schedule tensor math for the generative pipeline, network-free.

Implements the forward/reverse diffusion step formulas and the two
training losses as pure array operations. The noise predictor is a
plain callable (x_t, t) -> tensor, so tests can plug in closed forms.
All losses are means over their own element counts, which keeps
magnitudes comparable across tensor sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import _frozen

NoisePredictor = Callable[[np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise retention factors alpha_1..alpha_T, each in (0, 1]."""

    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64).reshape(-1)
        if alphas.size == 0:
            raise ValueError("schedule needs at least one step")
        bad = ~((alphas > 0) & (alphas <= 1))  # also nan
        if bad.any():
            t = np.argmax(bad) + 1
            raise ValueError(f"every alpha must lie in (0, 1], got alpha_{t} = {alphas[t - 1]!s}")
        object.__setattr__(self, "alphas", _frozen(alphas))

    @property
    def steps(self) -> int:
        return len(self.alphas)

    def alpha(self, t: int) -> float:
        if not 1 <= t <= self.steps:
            raise ValueError(f"step {t} outside [1, {self.steps}]")
        return float(self.alphas[t - 1])


def _check_shapes(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{what}: shape mismatch {a.shape} vs {b.shape}")


def forward_step(
    x_prev: np.ndarray, t: int, schedule: NoiseSchedule, eps: np.ndarray
) -> np.ndarray:
    """One noising step: sqrt(alpha_t) * x + sqrt(1 - alpha_t) * eps."""
    x_prev = np.asarray(x_prev, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    _check_shapes(x_prev, eps, "forward_step")
    a = schedule.alpha(t)
    return math.sqrt(a) * x_prev + math.sqrt(1.0 - a) * eps


def reverse_step(
    x_t: np.ndarray, t: int, schedule: NoiseSchedule, predictor: NoisePredictor
) -> np.ndarray:
    """One denoising step:
    (x_t - (1 - alpha_t) / sqrt(1 - alpha_t^2) * predictor(x_t, t)) / sqrt(alpha_t).

    alpha_t = 1 makes the correction coefficient singular and is
    rejected.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    a = schedule.alpha(t)
    if a >= 1.0:
        raise ValueError("reverse step undefined at alpha = 1 (zero denominator)")
    eps_hat = np.asarray(predictor(x_t, t), dtype=np.float64)
    _check_shapes(x_t, eps_hat, "reverse_step predictor output")
    coeff = (1.0 - a) / math.sqrt(1.0 - a * a)
    return (x_t - coeff * eps_hat) / math.sqrt(a)


def dm_loss(eps: np.ndarray, eps_pred: np.ndarray) -> float:
    """Mean squared difference between true and predicted noise."""
    eps = np.asarray(eps, dtype=np.float64)
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    _check_shapes(eps, eps_pred, "dm_loss")
    return float(np.mean((eps - eps_pred) ** 2))


def upsampler_loss(
    x_gt: np.ndarray,
    x_up: np.ndarray,
    h_gt: np.ndarray,
    h_up: np.ndarray,
) -> float:
    """Masked surface loss plus hit-channel loss.

    First term: mean squared difference of x_gt and x_up restricted to
    positions where h_gt = 1 (the mask broadcasts across channels).
    Second term: mean squared difference of the hit channels. h_gt must
    be binary, as the hit channel of an encoded tensor is: a value outside
    [0, 1] or between 0 and 1 is rejected.
    """
    x_gt = np.asarray(x_gt, dtype=np.float64)
    x_up = np.asarray(x_up, dtype=np.float64)
    h_gt = np.asarray(h_gt, dtype=np.float64)
    h_up = np.asarray(h_up, dtype=np.float64)
    _check_shapes(x_gt, x_up, "upsampler_loss x")
    _check_shapes(h_gt, h_up, "upsampler_loss h")
    if (outside := (h_gt < 0) | (h_gt > 1)).any():
        raise ValueError(f"hit values must lie in [0, 1], got {float(h_gt[outside][0])!r}")
    binary = (np.abs(h_gt) <= 1e-6) | (np.abs(h_gt - 1.0) <= 1e-6)
    if not np.all(binary):
        raise ValueError(f"hit mask contains fractional value {float(h_gt[~binary].flat[0])!r}")
    mask = h_gt > 0.5
    try:
        mask_full = np.broadcast_to(mask, x_gt.shape)
    except ValueError:
        raise ValueError(
            f"hit mask {h_gt.shape} does not broadcast to x {x_gt.shape}"
        ) from None
    diff = x_gt[mask_full] - x_up[mask_full]
    surface = float(np.mean(diff**2)) if diff.size else 0.0
    hit = float(np.mean((h_gt - h_up) ** 2))
    return surface + hit
