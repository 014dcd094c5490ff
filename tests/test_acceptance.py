"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The sweep-based
criteria take about 10 s each on 2 CPUs; everything runs on a
laptop-class CPU with no network or GPU.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import box_surface_distance, closed_two_manifold, euler_characteristic
from xray3d.camera import camera_from_spherical
from xray3d.codec import (
    PointCloud,
    decode_to_pointcloud,
    encode,
    pad_or_truncate,
    read_xray,
    storage_ratio,
    write_xray,
)
from xray3d.diffusion import NoiseSchedule, dm_loss, forward_step, upsampler_loss
from xray3d.fixtures import cube, nested_cubes, standard_suite
from xray3d.mesh import normalize_mesh
from xray3d.metrics import chamfer_f_score, icp_align
from xray3d.poisson import Field, GridSpec, reconstruct, solve_poisson
from xray3d.sweep import mean_chamfer, run_sweep


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} FAIL - {label}")
        raise
    print(f"\nACCEPTANCE {number:2d} PASS - {label}")


def test_criterion_01_analytic_cube_encoding():
    with criterion(1, "analytic cube encoding, central pixel, under 1 s"):
        mesh = cube()
        camera = camera_from_spherical(0.0, 0.0, 1.2, 256, 256)
        start = time.perf_counter()
        tensor = encode(mesh, camera, 8)
        elapsed = time.perf_counter() - start
        px = tensor.data[:, :, 128, 128]
        assert px[0, 0] == 1.0
        assert abs(px[0, 1] - 0.7) < 1e-5
        assert np.abs(px[0, 2:5] - [0, 0, 1]).max() < 1e-5
        assert px[1, 0] == 1.0
        assert abs(px[1, 1] - 1.7) < 1e-5
        assert np.abs(px[1, 2:5] - [0, 0, -1]).max() < 1e-5
        assert not px[2:].any()
        assert elapsed < 1.0, f"encode took {elapsed:.2f}s"


def test_criterion_02_layer_trend():
    with criterion(2, "mean chamfer non-increasing in L, converged by 8 layers"):
        start = time.perf_counter()
        rows = run_sweep(
            standard_suite(),
            layers_list=[1, 2, 4, 8, 12],
            res_list=[256],
            views=2,
            seed=0,
            poisson_res=64,
            n_samples=16384,
        )
        elapsed = time.perf_counter() - start
        assert all(not r.error for r in rows), [r.error for r in rows if r.error]
        means = mean_chamfer(rows)
        levels = [1, 2, 4, 8, 12]
        cd = {level: means[(level, 256)] for level in levels}
        print("   chamfer by L:", {k: round(v, 5) for k, v in cd.items()})
        for a, b in zip(levels, levels[1:]):
            assert cd[b] <= cd[a] * 1.05, f"CD rose from L={a} to L={b}"
        assert abs(cd[12] - cd[8]) / cd[8] <= 0.10
        assert elapsed < 600.0, f"layer sweep took {elapsed:.0f}s"


def test_criterion_03_resolution_trend():
    with criterion(3, "mean chamfer non-increasing in resolution, stable by 256"):
        rows = run_sweep(
            standard_suite(),
            layers_list=[8],
            res_list=[32, 64, 128, 256, 512],
            views=2,
            seed=0,
            poisson_res=64,
            n_samples=16384,
        )
        assert all(not r.error for r in rows)
        means = mean_chamfer(rows)
        resolutions = [32, 64, 128, 256, 512]
        cd = {res: means[(8, res)] for res in resolutions}
        print("   chamfer by res:", {k: round(v, 5) for k, v in cd.items()})
        for a, b in zip(resolutions, resolutions[1:]):
            assert cd[b] <= cd[a] * 1.05, f"CD rose from res {a} to {b}"
        assert abs(cd[512] - cd[256]) / cd[256] <= 0.15


def test_criterion_04_hidden_surface_capture():
    with criterion(4, "interior surfaces captured at L=8, lost at L=2"):
        mesh = nested_cubes()  # inner cube half extent 0.25
        camera = camera_from_spherical(0.0, 0.0, 1.2, 256, 256)
        tensor = encode(mesh, camera, 8)
        inner_tol = 2.0 / 256

        def inner_cube_distance(tensor):
            cloud = decode_to_pointcloud(tensor, frame="world")
            positions = cloud.positions
            return box_surface_distance(positions, 0.25)

        full = inner_cube_distance(tensor)
        assert (full < inner_tol).sum() > 1000  # inner cube well covered
        truncated = inner_cube_distance(pad_or_truncate(tensor, 2))
        assert (truncated < inner_tol).sum() == 0  # outer shell ate both layers


def test_criterion_05_storage_claim():
    with criterion(5, "8 layers at 256 footprint store 96.88% less than 256^3"):
        ratio = storage_ratio(8, 256)
        assert ratio == 0.96875
        assert f"{ratio * 100:.2f}%" == "96.88%"


def test_criterion_06_metric_oracles():
    with criterion(6, "chamfer matches brute force; ICP recovers transforms"):
        rng = np.random.default_rng(60)
        for _ in range(100):
            p = rng.normal(size=(300, 3))
            q = rng.normal(size=(300, 3)) + rng.normal(scale=0.2, size=3)
            report = chamfer_f_score(p, q, threshold=0.25)
            d_pq = np.sqrt(((q[:, None, :] - p[None, :, :]) ** 2).sum(-1)).min(axis=1)
            d_qp = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(-1)).min(axis=1)
            assert abs(report.chamfer - (d_pq.mean() + d_qp.mean())) < 1e-12
            precision = (d_pq < 0.25).mean()
            recall = (d_qp < 0.25).mean()
            expect_f = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )
            assert abs(report.f_score - expect_f) < 1e-12

        for trial in range(20):
            trial_rng = np.random.default_rng(600 + trial)
            src = trial_rng.uniform(-0.5, 0.5, size=(1000, 3))
            axis = trial_rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = trial_rng.uniform(0.02, math.radians(10.0))
            k = np.array(
                [
                    [0, -axis[2], axis[1]],
                    [axis[2], 0, -axis[0]],
                    [-axis[1], axis[0], 0],
                ]
            )
            rot = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
            shift = trial_rng.uniform(-0.05, 0.05, size=3)
            result = icp_align(src, src @ rot.T + shift)
            got = result.transform
            angle_err = math.acos(
                min(1.0, max(-1.0, (np.trace(got.rotation @ rot.T) - 1) / 2))
            )
            assert angle_err < 1e-3, f"trial {trial}: rotation off by {angle_err}"
            assert np.abs(got.translation - shift).max() < 1e-4


def test_criterion_07_poisson_oracles():
    with criterion(7, "sphere reconstruction accuracy; first-order grid convergence"):
        start = time.perf_counter()
        rng = np.random.default_rng(70)
        directions = rng.normal(size=(10000, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        sphere = PointCloud(0.4 * directions, directions, np.ones((10000, 3)))
        mesh, _ = reconstruct(sphere, 64)
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(radii - 0.4).max() <= 2 * (1.2 / 64)
        assert closed_two_manifold(mesh)
        assert euler_characteristic(mesh) == 2

        def manufactured_error(res: int) -> float:
            grid = GridSpec(res)
            coords = grid.origin[0] + np.arange(res) * grid.spacing
            xs, ys, zs = np.meshgrid(coords, coords, coords, indexing="ij")
            k = np.pi / 1.2
            target = np.cos(k * xs) * np.cos(k * ys) * np.cos(k * zs)
            source = -3.0 * k**2 * target * grid.spacing**2
            phi, info = solve_poisson(Field(grid, source))
            assert info.relative_residual <= 1e-8
            return float(np.abs(phi.data - target).max())

        ratio = manufactured_error(32) / manufactured_error(64)
        print(f"   manufactured-solution error ratio 32->64: {ratio:.3f}")
        assert 1.6 <= ratio <= 2.4  # halves, within 20%
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"poisson oracles took {elapsed:.0f}s"


def test_criterion_08_diffusion_math():
    with criterion(8, "diffusion step identity, loss oracles, gradient check"):
        rng = np.random.default_rng(80)
        x = rng.normal(size=(2, 8, 6, 6))
        eps = rng.normal(size=x.shape)
        identity = forward_step(x, 1, NoiseSchedule([1.0]), eps)
        np.testing.assert_array_equal(identity, x)

        pred = eps + rng.normal(size=eps.shape)
        naive = sum((a - b) ** 2 for a, b in zip(eps.flat, pred.flat)) / eps.size
        assert abs(dm_loss(eps, pred) - naive) < 1e-12

        x_gt = rng.normal(size=(2, 8, 5, 5))
        x_up = rng.normal(size=(2, 8, 5, 5))
        h_gt = (rng.random(size=(2, 1, 5, 5)) > 0.5).astype(float)
        h_up = rng.random(size=(2, 1, 5, 5))
        mask = np.broadcast_to(h_gt > 0.5, x_gt.shape)
        masked = [(a - b) ** 2 for a, b, m in zip(x_gt.flat, x_up.flat, mask.flat) if m]
        naive_up = sum(masked) / len(masked) + np.mean((h_gt - h_up) ** 2)
        assert abs(upsampler_loss(x_gt, x_up, h_gt, h_up) - naive_up) < 1e-12

        n_masked = int(mask.sum())
        step = 1e-6
        for idx in [(0, 0, 1, 1), (1, 4, 2, 3), (0, 7, 4, 4)]:
            up_plus = x_up.copy()
            up_plus[idx] += step
            up_minus = x_up.copy()
            up_minus[idx] -= step
            numeric = (
                upsampler_loss(x_gt, up_plus, h_gt, h_up)
                - upsampler_loss(x_gt, up_minus, h_gt, h_up)
            ) / (2 * step)
            analytic = 2.0 * (x_up[idx] - x_gt[idx]) / n_masked if mask[idx] else 0.0
            if mask[idx]:
                assert abs(numeric - analytic) <= 1e-5 * max(abs(analytic), 1e-12)
            else:
                assert abs(numeric) < 1e-12


def test_criterion_09_format_round_trips(tmp_path):
    with criterion(9, "1000 tensor write/read round trips bitwise identical"):
        from test_codec import random_valid_tensor

        rng = np.random.default_rng(90)
        path = tmp_path / "roundtrip.xray"
        for _ in range(1000):
            tensor = random_valid_tensor(rng)
            write_xray(tensor, path)
            back = read_xray(path)
            assert tensor.data.tobytes() == back.data.tobytes()
            assert tensor.c2w.tobytes() == back.c2w.tobytes()
            assert np.float32(tensor.fov_x).tobytes() == np.float32(back.fov_x).tobytes()


def test_criterion_10_out_of_scope_statement():
    with criterion(10, "trained-model benchmark numbers are out of desk scale"):
        # Reproducing the published reconstruction scores (CD 0.056,
        # FS@0.1 0.973) and the generative 1-NNA/COV tables requires
        # trained diffusion and upsampler networks plus multi-GPU
        # training; criteria 1-9 stand in with oracle equivalence,
        # invariant suites, and trend reproduction.
        assert True
