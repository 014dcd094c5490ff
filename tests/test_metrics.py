import numpy as np
import pytest

from xray3d import metrics as metrics_module
from xray3d.codec import PointCloud
from xray3d.fixtures import cube, icosphere
from xray3d.mesh import (
    MeshError, RigidTransform, TriangleMesh, face_normals, normalize_mesh, surface_attributes,
)
from xray3d.metrics import (
    NearestNeighborIndex,
    chamfer_f_score,
    evaluate_pair,
    icp_align,
    sample_surface,
)


def brute_chamfer(p, q, threshold):
    d_pq = np.sqrt(((q[:, None, :] - p[None, :, :]) ** 2).sum(-1)).min(axis=1)
    d_qp = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(-1)).min(axis=1)
    chamfer = d_pq.mean() + d_qp.mean()
    precision = (d_pq < threshold).mean()
    recall = (d_qp < threshold).mean()
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return chamfer, f, precision, recall


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_sample_surface_stays_on_triangle():
    tri = TriangleMesh([[0, 0, 0], [2, 0, 0], [0, 3, 0]], [[0, 1, 2]])
    cloud = sample_surface(tri, 1000, seed=1)
    assert np.abs(cloud.positions[:, 2]).max() < 1e-9
    assert cloud.positions[:, 0].min() >= -1e-12
    # inside the triangle: x/2 + y/3 <= 1
    assert (cloud.positions[:, 0] / 2 + cloud.positions[:, 1] / 3).max() <= 1 + 1e-9
    np.testing.assert_allclose(cloud.normals, [[0, 0, 1]] * 1000)


def test_sample_surface_area_weighted():
    # two triangles with area ratio 3:1
    mesh = TriangleMesh(
        [[0, 0, 0], [3, 0, 0], [0, 2, 0], [10, 0, 0], [11, 0, 0], [10, 2, 0]],
        [[0, 1, 2], [3, 4, 5]],
    )
    n = 40000
    cloud = sample_surface(mesh, n, seed=7)
    near_big = cloud.positions[:, 0] < 5
    count_big = int(near_big.sum())
    sigma = np.sqrt(n * 0.75 * 0.25)
    assert abs(count_big - 30000) < 3 * sigma


def test_sample_surface_deterministic(sphere_mesh):
    a = sample_surface(sphere_mesh, 500, seed=3)
    b = sample_surface(sphere_mesh, 500, seed=3)
    np.testing.assert_array_equal(a.positions, b.positions)
    c = sample_surface(sphere_mesh, 500, seed=4)
    assert not np.array_equal(a.positions, c.positions)


def per_face_sample_surface(mesh, n, seed):
    """sample_surface spelled out with the per-face helpers: areas and
    normals of every face, and the attributes of surface_attributes."""
    a, b, c = mesh.triangle_corners()
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(mesh.n_faces, size=n, p=areas / areas.sum())
    s, r2 = np.sqrt(rng.random(n)), rng.random(n)
    w0, w1, w2 = 1.0 - s, s * (1.0 - r2), s * r2
    positions = w0[:, None] * a[chosen] + w1[:, None] * b[chosen] + w2[:, None] * c[chosen]
    normals, colors = surface_attributes(mesh, chosen, w1, w2)
    np.testing.assert_array_equal(normals, face_normals(mesh)[chosen])
    return positions, normals, colors


@pytest.mark.parametrize("colored", [False, True])
def test_sample_surface_equals_per_face_attributes(colored):
    # A zero-area face is never drawn, but its normal is part of the
    # per-face path; sampled normals are computed for drawn faces only.
    mesh = icosphere(2, colored=colored)
    mesh = TriangleMesh(np.vstack([mesh.vertices, [[2, 0, 0], [3, 0, 0], [4, 0, 0]]]),
                        np.vstack([mesh.faces, [[len(mesh.vertices) + i for i in range(3)]]]),
                        vertex_colors=None if mesh.vertex_colors is None else
                        np.vstack([mesh.vertex_colors, np.full((3, 3), 0.5)]))
    cloud = sample_surface(mesh, 3000, seed=11)
    positions, normals, colors = per_face_sample_surface(mesh, 3000, 11)
    np.testing.assert_array_equal(cloud.positions, positions)
    np.testing.assert_array_equal(cloud.normals, normals)
    np.testing.assert_array_equal(cloud.colors, colors)


def test_sample_surface_zero_area():
    degenerate = TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
    with pytest.raises(MeshError, match="area"):
        sample_surface(degenerate, 10)


def test_chamfer_identical_clouds():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(64, 3))
    report = chamfer_f_score(p, p.copy(), threshold=0.1)
    assert report.chamfer == 0.0
    assert report.f_score == 1.0


@pytest.mark.parametrize("delta,expect_match", [(0.05, True), (0.2, False)])
def test_chamfer_two_point_analytic(delta, expect_match):
    p = np.array([[0.0, 0.0, 0.0]])
    q = np.array([[delta, 0.0, 0.0]])
    report = chamfer_f_score(p, q, threshold=0.1)
    assert report.chamfer == pytest.approx(2 * delta, abs=1e-15)
    assert report.f_score == (1.0 if expect_match else 0.0)


def test_chamfer_matches_brute_force(rng):
    for _ in range(10):
        p = rng.normal(size=(300, 3))
        q = rng.normal(size=(300, 3)) + 0.1
        report = chamfer_f_score(p, q, threshold=0.5)
        chamfer, f, precision, recall = brute_chamfer(p, q, 0.5)
        assert report.chamfer == pytest.approx(chamfer, abs=1e-12)
        assert report.f_score == pytest.approx(f, abs=1e-12)
        assert report.precision == pytest.approx(precision, abs=1e-12)
        assert report.recall == pytest.approx(recall, abs=1e-12)


def test_chamfer_symmetric(rng):
    p = rng.normal(size=(100, 3))
    q = rng.normal(size=(120, 3))
    a = chamfer_f_score(p, q, 0.3)
    b = chamfer_f_score(q, p, 0.3)
    assert a.chamfer == b.chamfer
    assert a.f_score == b.f_score
    assert a.precision == b.recall and a.recall == b.precision


def test_chamfer_empty_rejected():
    with pytest.raises(ValueError):
        chamfer_f_score(np.empty((0, 3)), np.zeros((2, 3)), 0.1)


_BAD_THRESHOLDS = pytest.mark.parametrize(
    "threshold", [-1.0, 0.0, float("nan"), float("inf")], ids=["negative", "zero", "nan", "inf"]
)


@_BAD_THRESHOLDS
def test_chamfer_rejects_a_bad_threshold(rng, threshold):
    p, q = rng.normal(size=(20, 3)), rng.normal(size=(10, 3))
    with pytest.raises(ValueError, match=rf"threshold must be finite and > 0, got {threshold!r}$"):
        chamfer_f_score(p, q, threshold)


@_BAD_THRESHOLDS
def test_evaluate_pair_rejects_a_bad_threshold_before_any_work(monkeypatch, sphere_mesh, threshold):
    def no_work(*args, **kwargs):
        raise AssertionError("evaluate_pair sampled before checking the threshold")

    monkeypatch.setattr(metrics_module, "sample_surface", no_work)
    with pytest.raises(ValueError, match=rf"threshold must be finite and > 0, got {threshold!r}$"):
        evaluate_pair(sphere_mesh, sphere_mesh, n_samples=256, threshold=threshold)


def test_nn_index_matches_brute_force(rng):
    points = rng.normal(size=(2000, 3))
    queries = rng.normal(size=(200, 3))
    index = NearestNeighborIndex(points)
    dist, idx = index.query(queries)
    full = np.sqrt(((queries[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    np.testing.assert_array_equal(idx, full.argmin(axis=1))
    np.testing.assert_allclose(dist, full.min(axis=1), rtol=0, atol=1e-12)


def test_icp_identity():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.5, 0.5, size=(200, 3))
    result = icp_align(pts, pts.copy())
    assert result.rmse_history[-1] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(result.transform.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(result.transform.translation, 0.0, atol=1e-12)


def test_icp_recovers_synthetic_transform():
    rng = np.random.default_rng(2)
    src = rng.uniform(-0.5, 0.5, size=(1000, 3))
    rot = rotation_about([0, 0, 1], np.radians(10.0))
    dst = src @ rot.T + np.array([0.05, 0.0, 0.0])
    result = icp_align(src, dst)
    got = result.transform
    angle_err = np.arccos(np.clip((np.trace(got.rotation @ rot.T) - 1) / 2, -1, 1))
    assert angle_err < 1e-3
    np.testing.assert_allclose(got.translation, [0.05, 0, 0], atol=1e-4)
    assert result.rmse_history[-1] < 1e-6


def test_icp_rmse_non_increasing():
    rng = np.random.default_rng(3)
    src = rng.uniform(-0.5, 0.5, size=(400, 3))
    rot = rotation_about([1, 1, 0], np.radians(12.0))
    dst = src @ rot.T + 0.03
    result = icp_align(src, dst)
    h = result.rmse_history
    assert np.all(h[1:] <= h[:-1] + 1e-12)


def test_icp_collinear_degenerate():
    line = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3.0, 0, 0]])
    with pytest.raises(ValueError, match="degenerate|collinear"):
        icp_align(line, line + 0.1)


def brute_force_icp(src, dst, max_iter=50, tol=1e-4):
    """Point-to-point ICP matching by a full distance matrix; exact ties
    go to the lowest target index (argmin). Returns the transform, the
    RMSE history and the matched targets handed to each Kabsch step."""
    transform = RigidTransform.identity()
    history, matched = [], []
    rmse = np.inf
    for _ in range(max_iter):
        moved = transform.apply(src)
        full = np.sqrt(((moved[:, None, :] - dst[None, :, :]) ** 2).sum(-1))
        idx = full.argmin(axis=1)
        new_rmse = float(np.sqrt(np.mean(full[np.arange(len(src)), idx] ** 2)))
        history.append(new_rmse)
        if abs(rmse - new_rmse) <= tol * new_rmse:
            break
        rmse = new_rmse
        matched.append(dst[idx])
        transform = metrics_module._kabsch(src, dst[idx])
    return transform, np.asarray(history), matched


def grid_case():
    # Sources half a cell off an integer grid sit at exactly equal
    # distance from two or four targets; the targets are shuffled so that
    # the lowest index is not the first one a tree would meet.
    rng = np.random.default_rng(7)
    ijk = np.stack(np.meshgrid(np.arange(10), np.arange(10), np.arange(6), indexing="ij"), -1)
    dst = ijk.reshape(-1, 3).astype(float)[rng.permutation(600)]
    src = dst[rng.permutation(600)[:300]] + [0.5, 0.5, 0.0]
    return src, dst


def rotated_case():
    # Two independent samplings of an ellipsoid, 30 degrees apart: most
    # matches change on the first iterations, and ICP slides between
    # samples until it stops, so many points sit near the re-query bound.
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 600, 3))
    axes = np.array([1.0, 0.7, 0.4])
    a *= axes / np.linalg.norm(a, axis=1, keepdims=True)
    b *= axes / np.linalg.norm(b, axis=1, keepdims=True)
    return a @ rotation_about([1, 2, 0], np.radians(30.0)).T, b


def synthetic_case(seed, n, axis, degrees, shift):
    src = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, 3))
    return src, src @ rotation_about(axis, np.radians(degrees)).T + shift


@pytest.mark.parametrize(
    "case",
    [
        grid_case,
        rotated_case,
        lambda: synthetic_case(2, 1000, [0, 0, 1], 10.0, np.array([0.05, 0.0, 0.0])),
        lambda: synthetic_case(3, 400, [1, 1, 0], 12.0, 0.03),
    ],
    ids=["grid_ties", "rotated_30deg", "synthetic_10deg", "synthetic_12deg"],
)
def test_icp_matches_brute_force_oracle(case, monkeypatch):
    src, dst = case()
    want_transform, want_history, want_matched = brute_force_icp(src, dst)

    matched = []
    kabsch = metrics_module._kabsch

    def recording_kabsch(a, b):
        matched.append(b.copy())
        return kabsch(a, b)

    monkeypatch.setattr(metrics_module, "_kabsch", recording_kabsch)
    result = icp_align(src, dst)

    assert len(result.rmse_history) == len(want_history)
    np.testing.assert_array_equal(result.rmse_history, want_history)
    assert len(matched) == len(want_matched)
    for step, (got, want) in enumerate(zip(matched, want_matched)):
        assert np.array_equal(got, want), f"correspondences differ at iteration {step}"
    np.testing.assert_allclose(result.transform.rotation, want_transform.rotation,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.transform.translation, want_transform.translation,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-5, 1e-3, 1.0, 1e3])
def test_icp_passes_do_not_depend_on_scale(scale):
    src, dst = rotated_case()
    assert len(icp_align(src * scale, dst * scale).rmse_history) == 23


def test_icp_identical_clouds_converge():
    pts = np.random.default_rng(1).uniform(-0.5, 0.5, size=(200, 3))
    result = icp_align(pts, pts.copy())
    assert len(result.rmse_history) <= 3
    assert result.converged is True


def test_icp_stop_on_the_last_allowed_pass_is_converged(monkeypatch):
    src, dst = rotated_case()
    passes = len(icp_align(src, dst).rmse_history)
    monkeypatch.setattr(metrics_module, "_ICP_MAX_ITER", passes)
    assert icp_align(src, dst).converged is True
    monkeypatch.setattr(metrics_module, "_ICP_MAX_ITER", passes - 1)
    capped = icp_align(src, dst)
    assert len(capped.rmse_history) == passes - 1
    assert capped.converged is False


def test_evaluate_pair_shares_tree_and_reports_icp(torus_mesh, monkeypatch):
    # The protocol spelled out with plain arrays, so each call builds its
    # own tree: the shared tree must give bitwise the same scores.
    pred = TriangleMesh(torus_mesh.vertices @ rotation_about([1, 0, 0], 0.1).T, torus_mesh.faces)
    pred_pts = sample_surface(normalize_mesh(pred)[0], 4096, 5).positions
    gt_pts = sample_surface(normalize_mesh(torus_mesh)[0], 4096, 5).positions
    icp = icp_align(pred_pts, gt_pts)
    want = chamfer_f_score(gt_pts, icp.transform.apply(pred_pts), 0.05)

    report = evaluate_pair(pred, torus_mesh, n_samples=4096, threshold=0.05, seed=5)
    assert (report.chamfer, report.f_score, report.precision, report.recall) == (
        want.chamfer, want.f_score, want.precision, want.recall
    )
    assert report.icp_iterations == len(icp.rmse_history) < 50
    assert report.icp_converged is True

    monkeypatch.setattr(metrics_module, "_ICP_MAX_ITER", 2)
    capped = evaluate_pair(pred, torus_mesh, n_samples=4096, seed=5)
    assert capped.icp_iterations == 2
    assert capped.icp_converged is False


def test_icp_distances_are_the_tree_query_at_the_transform(monkeypatch):
    src, dst = rotated_case()
    result = icp_align(src, dst)
    assert result.converged
    want, _ = NearestNeighborIndex(dst).query(result.transform.apply(src))
    np.testing.assert_array_equal(result.distances, want)
    # After the cap the transform moved past its last query: no distances.
    monkeypatch.setattr(metrics_module, "_ICP_MAX_ITER", 2)
    assert icp_align(src, dst).distances is None


def test_chamfer_with_given_distances(rng):
    p, q = rng.normal(size=(300, 3)), rng.normal(size=(200, 3))
    d, _ = NearestNeighborIndex(p).query(q)
    assert chamfer_f_score(p, q, 0.5, d) == chamfer_f_score(p, q, 0.5)
    with pytest.raises(ValueError, match="one distance per q point"):
        chamfer_f_score(p, q, 0.5, d[:-1])


@pytest.mark.parametrize("icp_max_iter, queries", [(50, 1), (2, 2)],
                         ids=["converged", "capped"])
def test_evaluate_pair_queries_reference_only_after_capped_icp(
    torus_mesh, monkeypatch, icp_max_iter, queries
):
    # Scoring queries the prediction's tree once; the reference's tree is
    # queried again only when ICP's last pass did not measure at the
    # returned transform.
    pred = TriangleMesh(torus_mesh.vertices @ rotation_about([1, 0, 0], 0.1).T, torus_mesh.faces)
    calls = []
    real_query = NearestNeighborIndex.query

    def counting_query(self, queries):
        calls.append(len(queries))
        return real_query(self, queries)

    monkeypatch.setattr(NearestNeighborIndex, "query", counting_query)
    monkeypatch.setattr(metrics_module, "_ICP_MAX_ITER", icp_max_iter)
    report = evaluate_pair(pred, torus_mesh, n_samples=2048, seed=5)
    assert report.icp_converged is (icp_max_iter == 50)
    assert calls == [2048] * queries


def test_evaluate_pair_self_comparison(sphere_mesh):
    report = evaluate_pair(sphere_mesh, sphere_mesh, n_samples=4096)
    assert report.chamfer <= 2.0 / np.sqrt(4096)
    assert report.f_score >= 0.999


def test_evaluate_pair_rigid_invariance(torus_mesh):
    # The fixture must lack rotational symmetry about the perturbation
    # axis, otherwise ICP's fixed point is not the true pose and the
    # score floors at sampling noise rather than matching the identity
    # case. Alignment is local (identity start), so the perturbation is
    # modest, matching the protocol's pre-oriented inputs.
    rot = rotation_about([1.0, 0.0, 0.0], np.radians(8.0))
    moved = TriangleMesh(
        torus_mesh.vertices @ rot.T + np.array([0.05, -0.02, 0.04]), torus_mesh.faces
    )
    base = evaluate_pair(torus_mesh, torus_mesh, n_samples=8192)
    transformed = evaluate_pair(moved, torus_mesh, n_samples=8192)
    assert abs(transformed.chamfer - base.chamfer) < 1e-3
    assert abs(transformed.f_score - base.f_score) < 1e-3


def test_evaluate_pair_scale_invariance(sphere_mesh):
    doubled = TriangleMesh(sphere_mesh.vertices * 2.0, sphere_mesh.faces)
    base = evaluate_pair(sphere_mesh, sphere_mesh, n_samples=4096)
    scaled = evaluate_pair(doubled, sphere_mesh, n_samples=4096)
    assert abs(scaled.chamfer - base.chamfer) < 1e-3
    assert abs(scaled.f_score - base.f_score) < 1e-3


def test_evaluate_pair_distant_meshes_zero_fscore():
    a = cube()
    b = cube()
    # thin plate far away once normalized: compare two very different shapes
    stretched = TriangleMesh(b.vertices * [1.0, 0.02, 0.02], b.faces)
    report = evaluate_pair(stretched, a, n_samples=2048)
    assert report.f_score < 0.7
    assert report.chamfer > 0.05
