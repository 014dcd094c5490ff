import csv
import io

import numpy as np
import pytest

import xray3d.sweep as sweep_mod
from xray3d.camera import DEFAULT_FOV_X, sample_views
from xray3d.codec import decode_to_pointcloud, encode
from xray3d.fixtures import cube, icosphere
from xray3d.mesh import TriangleMesh, normalize_mesh
from xray3d.poisson import reconstruct
from xray3d.sweep import (
    CSV_HEADER,
    SweepRow,
    mean_chamfer,
    plot_sweep_svg,
    rows_to_csv,
    run_sweep,
    worker_count,
)


@pytest.fixture(scope="module")
def small_sweep_rows():
    meshes = {"cube": cube(), "sphere": icosphere(1)}
    return run_sweep(
        meshes,
        layers_list=[1, 2],
        res_list=[32, 48],
        views=1,
        seed=0,
        poisson_res=32,
        n_samples=2048,
        max_workers=2,
    )


def test_rows_complete_and_ordered(small_sweep_rows):
    rows = small_sweep_rows
    assert len(rows) == 2 * 2 * 2  # meshes x layers x resolutions (1 view)
    keys = [(r.mesh, r.view, r.layers, r.resolution) for r in rows]
    assert keys == sorted(keys)
    ok = [r for r in rows if not r.error]
    assert len(ok) == len(rows)
    assert all(r.chamfer >= 0 and r.encode_ms >= 0 for r in ok)


def test_more_layers_not_worse(small_sweep_rows):
    means = mean_chamfer(small_sweep_rows)
    assert means[(2, 48)] <= means[(1, 48)] * 1.05


def test_csv_shape_and_header(small_sweep_rows):
    text = rows_to_csv(small_sweep_rows, timings=False)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(small_sweep_rows) + 1
    assert all(line.count(",") == CSV_HEADER.count(",") for line in lines)


def test_failed_cell_row_parses_into_ten_fields():
    # At 2^3 Poisson nodes the cell fails with a message holding commas.
    rows = run_sweep({"cube": cube()}, [1], [8], views=1, poisson_res=2,
                     n_samples=256, max_workers=1)
    assert len(rows) == 1 and "," in rows[0].error
    header, row = csv.reader(io.StringIO(rows_to_csv(rows, timings=False)))
    assert header == CSV_HEADER.split(",")
    assert len(row) == 10
    assert row[-1] == rows[0].error


def test_sweep_deterministic_without_timings():
    meshes = {"cube": cube()}
    kwargs = dict(
        layers_list=[2], res_list=[32], views=1, seed=3,
        poisson_res=32, n_samples=1024, max_workers=2,
    )
    a = rows_to_csv(run_sweep(meshes, **kwargs), timings=False)
    b = rows_to_csv(run_sweep(meshes, **kwargs), timings=False)
    assert a == b
    c = rows_to_csv(run_sweep(meshes, **dict(kwargs, seed=4)), timings=False)
    assert a != c


def test_failed_cells_recorded_not_raised(monkeypatch):
    real_reconstruct = sweep_mod.reconstruct

    def flaky(cloud, resolution, *args, **kwargs):
        if len(cloud) < 100:  # only the res=4 cell decodes this few points
            raise RuntimeError("synthetic stage failure")
        return real_reconstruct(cloud, resolution, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "reconstruct", flaky)
    rows = run_sweep(
        {"cube": cube()}, layers_list=[1], res_list=[4, 32], views=1,
        poisson_res=32, n_samples=512, max_workers=1,
    )
    by_res = {r.resolution: r for r in rows}
    assert "synthetic stage failure" in by_res[4].error
    assert np.isnan(by_res[4].chamfer)
    assert by_res[32].error == ""
    assert by_res[32].chamfer > 0


def test_cells_past_the_deepest_hit_share_one_reconstruction(monkeypatch):
    # No ray crosses a cube more than twice, so its 12-layer cell decodes
    # the 2-layer cloud: one evaluation serves both rows.
    kwargs = dict(res_list=[32], views=1, seed=0, poisson_res=32, n_samples=1024,
                  max_workers=1)
    calls = []
    real_evaluate = sweep_mod.evaluate_pair

    def counting_evaluate(*args, **kw):
        calls.append(1)
        return real_evaluate(*args, **kw)

    monkeypatch.setattr(sweep_mod, "evaluate_pair", counting_evaluate)
    two, twelve = run_sweep({"cube": cube()}, layers_list=[2, 12], **kwargs)
    assert len(calls) == 1
    assert (two.layers, twelve.layers) == (2, 12)
    assert not two.error and not twelve.error
    assert (twelve.chamfer, twelve.f_score) == (two.chamfer, two.f_score)
    assert (twelve.decode_ms, twelve.recon_ms) == (two.decode_ms, two.recon_ms)

    # Against fresh computation: a sweep with no 2-layer cell, and the
    # 12-layer pipeline run by hand.
    (alone,) = run_sweep({"cube": cube()}, layers_list=[12], **kwargs)
    assert (alone.chamfer, alone.f_score) == (twelve.chamfer, twelve.f_score)
    mesh = normalize_mesh(cube())[0]
    camera = sample_views(0, 1, width=32, height=32, fov_x=DEFAULT_FOV_X)[0]
    cloud = decode_to_pointcloud(encode(mesh, camera, 12), frame="world")
    report = real_evaluate(reconstruct(cloud, 32, 0.0, 0.0), mesh, n_samples=1024, seed=0)
    assert (report.chamfer, report.f_score) == (twelve.chamfer, twelve.f_score)


def test_mesh_without_hits_records_every_cell():
    # A zero-area triangle is never hit: every cell has an empty cloud.
    line = TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
    rows = run_sweep({"line": line}, layers_list=[1, 3, 12], res_list=[16], views=2,
                     poisson_res=16, n_samples=256, max_workers=1)
    assert [(r.view, r.layers) for r in rows] == [(v, n) for v in (0, 1) for n in (1, 3, 12)]
    assert all(r.error == "empty point cloud" and np.isnan(r.chamfer) for r in rows)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("XRAY_THREADS", raising=False)
    assert worker_count() >= 1
    monkeypatch.setenv("XRAY_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("XRAY_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("XRAY_THREADS", "abc")
    with pytest.raises(ValueError):
        worker_count()


def test_mean_chamfer_skips_failures():
    rows = [
        SweepRow("a", 0, 1, 32, 0.5, 0.9, 1, 1, 1),
        SweepRow("b", 0, 1, 32, 0.7, 0.8, 1, 1, 1),
        SweepRow("c", 0, 1, 32, float("nan"), float("nan"), 1, 0, 0, "boom"),
    ]
    means = mean_chamfer(rows)
    assert means[(1, 32)] == pytest.approx(0.6)


def test_plot_svg(tmp_path, small_sweep_rows):
    path = tmp_path / "sweep.svg"
    plot_sweep_svg(small_sweep_rows, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    assert "res 32" in text and "res 48" in text


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        run_sweep({}, [1], [32])
    with pytest.raises(ValueError):
        run_sweep({"cube": cube()}, [], [32])
    with pytest.raises(ValueError):
        run_sweep({"cube": cube()}, [0], [32])
    with pytest.raises(ValueError):
        run_sweep({"cube": cube()}, [1], [1])
