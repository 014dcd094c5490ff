import csv
import io
import re
import sys
import threading

import numpy as np
import pytest

import xray3d.metrics as metrics_mod
import xray3d.sweep as sweep_mod
from xray3d.camera import DEFAULT_FOV_X, camera_from_spherical, sample_view_angles
from xray3d.codec import decode_to_pointcloud, encode
from xray3d.fixtures import cube, icosphere
from xray3d.mesh import TriangleMesh, normalize_mesh
from xray3d.metrics import chamfer_f_score, sample_surface
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


def score_by_hand(mesh, layers, res, view=0, views=1, seed=0, poisson_res=32, n_samples=1024,
                  threshold=0.1):
    """One sweep cell's pipeline run by hand, on one BLAS thread as the
    sweep runs: (reference samples, reconstruction samples, report)."""
    with sweep_mod._one_blas_thread():
        mesh = normalize_mesh(mesh)[0]
        azimuths, elevations = sample_view_angles(seed, views)
        camera = camera_from_spherical(azimuths[view], elevations[view], width=res, height=res,
                                       fov_x=DEFAULT_FOV_X)
        cloud = decode_to_pointcloud(encode(mesh, camera, layers), frame="world")
        recon, _ = reconstruct(cloud, poisson_res)
    ref = sample_surface(mesh, n_samples, seed).positions
    pred = sample_surface(recon, n_samples, seed).positions
    return ref, pred, chamfer_f_score(ref, pred, threshold)


def test_cells_past_the_deepest_hit_share_one_reconstruction(monkeypatch):
    # No ray crosses a cube more than twice, so its 12-layer cell decodes
    # the 2-layer cloud: one score serves both rows.
    kwargs = dict(res_list=[32], views=1, seed=0, poisson_res=32, n_samples=1024,
                  max_workers=1)
    calls = []
    real_score = metrics_mod.chamfer_f_score

    def counting_score(*args, **kw):
        calls.append(1)
        return real_score(*args, **kw)

    monkeypatch.setattr(metrics_mod, "chamfer_f_score", counting_score)
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
    *_, report = score_by_hand(cube(), 12, 32)
    assert (report.chamfer, report.f_score) == (twelve.chamfer, twelve.f_score)


def test_reference_sampled_once_per_mesh_matches_per_cell_path(monkeypatch):
    meshes = {"cube": cube(), "sphere": icosphere(1)}
    kwargs = dict(layers_list=[1, 2], res_list=[24, 32], views=2, seed=1, poisson_res=32,
                  n_samples=1024, max_workers=2)
    sampled = []
    real_sample = metrics_mod.sample_surface

    def recording_sample(mesh, n, seed):
        sampled.append(mesh)
        return real_sample(mesh, n, seed)

    monkeypatch.setattr(metrics_mod, "sample_surface", recording_sample)
    rows = run_sweep(meshes, **kwargs)
    monkeypatch.undo()
    inputs = [normalize_mesh(m)[0] for m in meshes.values()]
    references = [m for m in sampled
                  if any(np.array_equal(m.vertices, n.vertices) for n in inputs)]
    assert len(references) == len(meshes)
    assert ",," not in rows_to_csv(rows, timings=False)  # every cell scored

    # The per-cell path: the sphere's view-1, 2-layer, 32² cell scored by hand.
    (row,) = [r for r in rows if (r.mesh, r.view, r.layers, r.resolution) == ("sphere", 1, 2, 32)]
    *_, report = score_by_hand(icosphere(1), 2, 32, view=1, views=2, seed=1)
    assert (row.chamfer, row.f_score) == (report.chamfer, report.f_score)


def test_cells_scored_in_the_encode_frame_without_icp(monkeypatch):
    # Neither ICP nor a renormalization of the reconstruction may run; the
    # score is checked against distances queried straight from scipy.
    from scipy.spatial import cKDTree

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep aligned or renormalized a reconstruction")

    monkeypatch.setattr(metrics_mod, "icp_align", forbidden)
    monkeypatch.setattr(metrics_mod, "normalize_mesh", forbidden)
    rows = run_sweep({"cube": cube(), "sphere": icosphere(1)}, layers_list=[1, 2],
                     res_list=[32], views=1, poisson_res=32, n_samples=1024, max_workers=2)
    assert len(rows) == 4 and all(not r.error and r.chamfer > 0 for r in rows)

    ref, pred, _ = score_by_hand(icosphere(1), 2, 32)
    d_pred = cKDTree(ref).query(pred)[0]
    d_ref = cKDTree(pred).query(ref)[0]
    precision, recall = (d_pred < 0.1).mean(), (d_ref < 0.1).mean()
    (row,) = [r for r in rows if (r.mesh, r.layers) == ("sphere", 2)]
    assert row.chamfer == pytest.approx(d_pred.mean() + d_ref.mean(), rel=1e-12)
    assert row.f_score == pytest.approx(2 * precision * recall / (precision + recall), rel=1e-12)


def test_mesh_without_hits_records_every_cell():
    # A zero-area triangle is never hit: every cell has an empty cloud.
    line = TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
    rows = run_sweep({"line": line}, layers_list=[1, 3, 12], res_list=[16], views=2,
                     poisson_res=16, n_samples=256, max_workers=1)
    assert [(r.view, r.layers) for r in rows] == [(v, n) for v in (0, 1) for n in (1, 3, 12)]
    assert all(r.error == "cannot splat an empty point cloud" and np.isnan(r.chamfer) for r in rows)


@pytest.mark.parametrize("env, message", [
    ("0", "XRAY_THREADS must be positive, got '0'"),
    ("two", "XRAY_THREADS must be an integer, got 'two'"),
], ids=["zero", "not-an-integer"])
def test_sweep_checks_xray_threads_before_any_work(monkeypatch, env, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started work before checking XRAY_THREADS")

    monkeypatch.setattr(sweep_mod, "build_bvh", no_work)
    monkeypatch.setenv("XRAY_THREADS", env)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        run_sweep({"cube": cube()}, [1], [32])


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


def test_worker_count_counts_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.delenv("XRAY_THREADS", raising=False)
    monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 64)
    assert worker_count() == 1


needs_openblas = pytest.mark.skipif(
    sweep_mod._numpy_openblas() is None, reason="numpy bundles no OpenBLAS here"
)


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count; the caller's count is
    restored after the test."""
    get, set_ = sweep_mod._numpy_openblas()
    before = get()
    yield get, set_
    set_(before)


@needs_openblas
def test_one_blas_thread_restores_the_callers_count(blas_threads):
    get, set_ = blas_threads
    for caller in (2, 1, 3):
        set_(caller)
        with sweep_mod._one_blas_thread():
            assert get() == 1
            with sweep_mod._one_blas_thread():  # a sweep inside a sweep
                assert get() == 1
            assert get() == 1
        assert get() == caller
        with pytest.raises(RuntimeError, match="inside"):
            with sweep_mod._one_blas_thread():
                raise RuntimeError("raised inside")
        assert get() == caller


@needs_openblas
def test_concurrent_holds_restore_the_callers_count(blas_threads):
    # More threads than cores enter and leave the hold with a short switch
    # interval: every holder sees one thread, and the last one out
    # restores the caller's count.
    get, set_ = blas_threads
    set_(2)
    seen = []

    def hold():
        for _ in range(200):
            with sweep_mod._one_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert get() == 2


@needs_openblas
def test_rows_depend_on_neither_pool_size_nor_caller_blas_threads(blas_threads, monkeypatch):
    get, set_ = blas_threads
    inside = []
    real_reconstruct = sweep_mod.reconstruct

    def recording_reconstruct(*args, **kwargs):
        inside.append(get())
        return real_reconstruct(*args, **kwargs)

    monkeypatch.setattr(sweep_mod, "reconstruct", recording_reconstruct)
    meshes = {"cube": cube(), "sphere": icosphere(2)}
    kwargs = dict(layers_list=[1, 2], res_list=[32], views=1, seed=2, poisson_res=48,
                  n_samples=2048)
    texts = set()
    for caller in (1, 2):
        for workers in (1, 2):
            set_(caller)
            rows = run_sweep(meshes, max_workers=workers, **kwargs)
            assert get() == caller
            texts.add(rows_to_csv(rows, timings=False))
    assert len(texts) == 1
    assert inside and set(inside) == {1}


def test_sweep_without_openblas_gives_the_same_rows(monkeypatch):
    # Where numpy bundles no OpenBLAS the hold does nothing; with the
    # caller already on one thread, the rows are those of the hold.
    blas = sweep_mod._numpy_openblas()
    before = blas[0]() if blas else None
    if blas:
        blas[1](1)
    try:
        kwargs = dict(layers_list=[2], res_list=[32], views=1, seed=3, poisson_res=32,
                      n_samples=1024, max_workers=2)
        held = rows_to_csv(run_sweep({"cube": cube()}, **kwargs), timings=False)
        monkeypatch.setattr(sweep_mod, "_numpy_openblas", lambda: None)
        unheld = rows_to_csv(run_sweep({"cube": cube()}, **kwargs), timings=False)
    finally:
        if blas:
            blas[1](before)
    assert held == unheld
    assert ",," not in held


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


@pytest.mark.parametrize("option, value", [
    ("screening", 0.5), ("trim", 0.05), ("trim", -0.5), ("trim", float("nan")), ("trim", float("inf")),
], ids=["screening-0.5", "trim-0.05", "trim--0.5", "trim-nan", "trim-inf"])
def test_sweep_rejects_removed_options_before_any_work(monkeypatch, option, value):
    def no_work(*args, **kwargs):
        raise AssertionError(f"the sweep started work before checking {option}")

    monkeypatch.setattr(sweep_mod, "build_bvh", no_work)
    with pytest.raises(ValueError, match=f"{option} was removed; {option} must be 0.0, got {value!r}"):
        run_sweep({"cube": cube()}, [1], [32], **{option: value})


@pytest.mark.parametrize("setting, message", [
    (dict(poisson_res=300), "poisson_res must be in [2, 256], got 300"),
    (dict(poisson_res=1), "poisson_res must be in [2, 256], got 1"),
    (dict(n_samples=0), "n_samples must be at least 1, got 0"),
    (dict(threshold=-1.0), "threshold must be finite and > 0, got -1.0"),
    (dict(threshold=float("nan")), "threshold must be finite and > 0, got nan"),
    (dict(threshold=0.0), "threshold must be finite and > 0, got 0.0"),
    (dict(layers_list=[2, 0]), "layer counts must be at least 1, got 0"),
    (dict(views=0), "need at least one view, got 0"),
    (dict(fov_x=-1.0), "fov_x must lie in (0, pi), got -1.0"),
    (dict(fov_x=float("nan")), "fov_x must lie in (0, pi), got nan"),
    (dict(fov_x=np.pi), f"fov_x must lie in (0, pi), got {np.pi!r}"),
    (dict(max_workers=0), "max_workers must be None or at least 1, got 0"),
], ids=["poisson_res-300", "poisson_res-1", "n_samples-0", "threshold-negative", "threshold-nan",
        "threshold-zero", "layers-0", "views-0", "fov_x-negative", "fov_x-nan", "fov_x-pi",
        "max_workers-0"])
def test_sweep_rejects_bad_settings_before_any_work(monkeypatch, setting, message):
    def no_work(*args, **kwargs):
        raise AssertionError(f"the sweep started work before checking {setting}")

    monkeypatch.setattr(sweep_mod, "build_bvh", no_work)
    kwargs = dict(dict(layers_list=[1], res_list=[32]), **setting)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        run_sweep({"cube": cube()}, **kwargs)
