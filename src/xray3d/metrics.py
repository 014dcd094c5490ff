"""Evaluation protocol: surface sampling, Chamfer/F-score, ICP alignment.

The paper protocol for two meshes of unknown pose (evaluate_pair,
`xray3d eval`) is: normalize both to unit max extent, sample each
surface uniformly by area, align the prediction to the reference with
point-to-point ICP, then score. A sweep cell's reconstruction lies in
its reference's frame, so the sweep scores it with sample_surface and
chamfer_f_score alone: renormalization and ICP could only hide error.
Chamfer distance is the symmetric mean of unsquared nearest-neighbor
distances; the F-score counts matches below a distance threshold (0.1).

ICP stops when a pass changes the RMSE by at most 1e-4 of its value, or
after 50 passes; the stop does not depend on the scale of the points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .codec import PointCloud
from .mesh import (
    MeshError, RigidTransform, TriangleMesh, _surface_colors, _unit_normals, normalize_mesh,
)

DEFAULT_SAMPLES = 16384
DEFAULT_THRESHOLD = 0.1
# icp_align's default stop: the RMSE change, as a fraction of the RMSE, at
# or below which it has converged.
_ICP_TOL = 1e-4


class NearestNeighborIndex:
    """Exact nearest-neighbor queries over a fixed point set (kd-tree)."""

    def __init__(self, points: np.ndarray):
        # Imported here: scipy.spatial is most of `import xray3d`, and
        # encode/decode never build an index.
        from scipy.spatial import cKDTree

        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if len(points) == 0:
            raise ValueError("cannot index an empty point set")
        self._tree = cKDTree(points)
        self.points = points

    def query(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(distances, indices) of the nearest indexed point per query."""
        queries = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        d, i = self._tree.query(queries)
        return np.asarray(d, dtype=np.float64), np.asarray(i, dtype=np.int64)


@dataclass(frozen=True)
class MetricReport:
    chamfer: float
    f_score: float
    precision: float
    recall: float
    threshold: float
    # Filled in by evaluate_pair: correspondence passes of the alignment,
    # and whether it stopped on its tolerance rather than at the cap.
    icp_iterations: int | None = None
    icp_converged: bool | None = None

    def __str__(self) -> str:
        return (
            f"chamfer={self.chamfer:.6f} f_score@{self.threshold:g}={self.f_score:.4f} "
            f"(precision={self.precision:.4f}, recall={self.recall:.4f})"
        )


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    rmse: float
    rmse_history: np.ndarray = field(repr=False)
    # Whether the last pass met the tolerance, rather than the pass cap
    # ending the run.
    converged: bool
    # When converged, each transformed source point's distance to its
    # nearest target, as the last pass measured them at `transform`. None
    # after the cap: the transform moved after its last query.
    distances: np.ndarray | None = field(default=None, repr=False)


def sample_surface(mesh: TriangleMesh, n: int, seed: int = 0) -> PointCloud:
    """Draw n area-weighted uniform surface points with face normals and
    interpolated colors.

    The corners of every face are gathered once, for the areas and the
    positions; normals are computed for the sampled faces only."""
    if mesh.is_empty:
        raise MeshError("cannot sample an empty mesh")
    if n < 1:
        raise ValueError("need at least one sample")
    a, b, c = mesh.triangle_corners()
    cross = np.cross(b - a, c - a)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    total = areas.sum()
    if total <= 0:
        raise MeshError("mesh has zero surface area")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(mesh.n_faces, size=n, p=areas / total)
    r1 = rng.random(n)
    r2 = rng.random(n)
    # sqrt trick: uniform over each triangle
    s = np.sqrt(r1)
    w0, w1, w2 = 1.0 - s, s * (1.0 - r2), s * r2
    positions = (
        w0[:, None] * a[chosen] + w1[:, None] * b[chosen] + w2[:, None] * c[chosen]
    )
    return PointCloud(positions, _unit_normals(cross[chosen]),
                      _surface_colors(mesh, chosen, w1, w2))


def _positions(obj) -> np.ndarray:
    if isinstance(obj, PointCloud):
        return obj.positions
    if isinstance(obj, NearestNeighborIndex):
        return obj.points
    return np.asarray(obj, dtype=np.float64).reshape(-1, 3)


def _index(obj) -> NearestNeighborIndex:
    """A kd-tree over obj's points; an index passed in is used as is, so
    that one caller can share one tree between ICP and scoring."""
    if isinstance(obj, NearestNeighborIndex):
        return obj
    return NearestNeighborIndex(_positions(obj))


def chamfer_f_score(
    p, q, threshold: float = DEFAULT_THRESHOLD, dist_to_p: np.ndarray | None = None
) -> MetricReport:
    """Symmetric Chamfer distance and F-score between two point sets.

    chamfer = mean over q of distance-to-p + mean over p of
    distance-to-q. Precision counts q-side matches below the threshold,
    recall counts p-side matches. Swapping p and q swaps precision and
    recall but leaves chamfer and f_score unchanged. p may be a
    NearestNeighborIndex, whose tree is then reused. A caller that has
    measured each q point's nearest distance to p (IcpResult.distances)
    passes them as dist_to_p, and p is not queried.
    """
    p_points = _positions(p)
    q = _positions(q)
    if len(p_points) == 0 or len(q) == 0:
        raise ValueError("chamfer distance needs two non-empty point sets")
    if dist_to_p is None:
        dist_to_p, _ = _index(p).query(q)
    elif np.shape(dist_to_p) != (len(q),):
        raise ValueError(f"dist_to_p needs one distance per q point, got shape "
                         f"{np.shape(dist_to_p)} for {len(q)} points")
    dist_to_q, _ = NearestNeighborIndex(q).query(p_points)
    chamfer = float(dist_to_p.mean() + dist_to_q.mean())
    precision = float((dist_to_p < threshold).mean())
    recall = float((dist_to_q < threshold).mean())
    if precision + recall > 0:
        f_score = 2.0 * precision * recall / (precision + recall)
    else:
        f_score = 0.0
    return MetricReport(chamfer, f_score, precision, recall, threshold)


def _kabsch(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rigid transform mapping paired src points onto dst."""
    # einsum sums the columns of an (N, 3) array several times faster
    # than mean(axis=0).
    c_src = np.einsum("ij->j", src) / len(src)
    c_dst = np.einsum("ij->j", dst) / len(dst)
    cov = (src - c_src).T @ (dst - c_dst)
    u, _, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(rot, c_dst - rot @ c_src, 1.0)


def _nearest_two(tree, points: np.ndarray):
    """Nearest index and the nearest and second-nearest distances per
    point. Exact distance ties go to the lowest index, as a brute-force
    argmin would, whatever order the tree visits the tied points in."""
    d, i = tree.query(points, k=2)
    idx = i[:, 0]
    rows = np.flatnonzero(d[:, 0] == d[:, 1])
    k, n = 2, tree.n
    while rows.size:
        # Widen the query until it holds every point tied for nearest.
        k = min(2 * k, n)
        dk, ik = tree.query(points[rows], k=k)
        whole = (dk[:, -1] > dk[:, 0]) | (k == n)
        tied = dk[whole] == dk[whole, :1]
        idx[rows[whole]] = np.where(tied, ik[whole], n).min(axis=1)
        rows = rows[~whole]
    return idx, d[:, 0], d[:, 1]


def icp_align(
    src,
    dst,
    max_iter: int = 50,
    tol: float = _ICP_TOL,
) -> IcpResult:
    """Point-to-point ICP from the identity: returns src -> dst transform.

    Each iteration matches every source point to its nearest target and
    solves the optimal rigid transform by SVD; the RMSE sequence is
    non-increasing. Stops when a pass changes the RMSE by at most
    `tol * rmse` (`converged=True`), or after `max_iter` passes. The
    test is relative, so scaling both clouds by one factor leaves the
    passes unchanged, and `<=` lets a fit that reaches RMSE 0 stop.

    Only points whose nearest target may have changed are looked up in
    the kd-tree again. A lookup keeps the nearest index, the nearest and
    second-nearest distances and the position queried. A point that has
    since moved by `drift` is at most `near + drift` from its old match
    and at least `second - drift` from every other target, so while
    `near + 2 * drift < second` its match cannot change; the test adds a
    margin far above the rounding of the distances. Every distance is
    then recomputed from the matches, with the arithmetic the tree uses,
    so the matches, transforms and RMSE history are those of querying
    every point on every iteration, and a converged result's
    `distances` are those a query at `transform` returns. `dst` may be a
    NearestNeighborIndex, whose tree is then reused.
    """
    if max_iter < 1:
        raise ValueError(f"ICP needs max_iter >= 1, got {max_iter!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"ICP tolerance must be finite and positive, got {tol!r}")
    src = _positions(src)
    targets = _positions(dst)
    if len(src) < 3 or len(targets) < 3:
        raise ValueError("ICP needs at least 3 points on each side")
    sv = np.linalg.svd(src - src.mean(axis=0), compute_uv=False)
    if sv[1] <= 1e-12 * max(sv[0], 1e-300):
        raise ValueError("degenerate source configuration (collinear points)")

    tree = _index(dst)._tree
    target_scale = np.abs(targets).max()
    idx = np.zeros(len(src), dtype=np.int64)
    near = np.zeros(len(src))
    second = np.full(len(src), -np.inf)  # the first pass queries every point
    anchor = np.zeros_like(src)
    transform = RigidTransform.identity()
    history = []
    rmse = np.inf
    for _ in range(max_iter):
        moved = transform.apply(src)
        drift = np.linalg.norm(moved - anchor, axis=1)
        margin = 1e-9 * (target_scale + np.abs(moved).max())
        stale = np.flatnonzero(near + 2.0 * drift + margin >= second)
        idx[stale], near[stale], second[stale] = _nearest_two(tree, moved[stale])
        anchor[stale] = moved[stale]
        matched = targets[idx]
        dists = np.linalg.norm(moved - matched, axis=1)
        new_rmse = float(np.sqrt(np.mean(dists**2)))
        history.append(new_rmse)
        converged = abs(rmse - new_rmse) <= tol * new_rmse
        rmse = new_rmse
        if converged:
            break
        transform = _kabsch(src, matched)
    return IcpResult(transform, rmse, np.asarray(history), converged,
                     dists if converged else None)


def evaluate_pair(
    pred_mesh: TriangleMesh,
    gt_mesh: TriangleMesh,
    n_samples: int = DEFAULT_SAMPLES,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = 0,
    icp_max_iter: int = 50,
) -> MetricReport:
    """Full protocol: normalize both meshes, sample, ICP-align, score.

    Precision is the fraction of prediction-side samples within the
    threshold of the reference surface samples. One kd-tree over the
    reference samples serves both the alignment and the score, and a
    converged alignment hands its last pass's distances to the score, so
    the tree is not queried for them again.
    """
    pred_norm, _ = normalize_mesh(pred_mesh)
    pred_pts = sample_surface(pred_norm, n_samples, seed).positions
    gt_norm, _ = normalize_mesh(gt_mesh)
    reference = NearestNeighborIndex(sample_surface(gt_norm, n_samples, seed).positions)
    icp = icp_align(pred_pts, reference, max_iter=icp_max_iter)
    report = chamfer_f_score(reference, icp.transform.apply(pred_pts), threshold,
                             icp.distances)
    return replace(report, icp_iterations=len(icp.rmse_history), icp_converged=icp.converged)
