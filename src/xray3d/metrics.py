"""Evaluation protocol: surface sampling, Chamfer/F-score, ICP alignment.

The protocol for comparing two meshes is: normalize both to unit max
extent, sample each surface uniformly by area, align the prediction to
the reference with point-to-point ICP, then score. Chamfer distance is
the symmetric mean of unsquared nearest-neighbor distances; the F-score
counts matches below a distance threshold (0.1 in normalized units).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import PointCloud
from .mesh import MeshError, RigidTransform, TriangleMesh, face_areas, normalize_mesh, surface_attributes

DEFAULT_SAMPLES = 16384
DEFAULT_THRESHOLD = 0.1


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


def sample_surface(mesh: TriangleMesh, n: int, seed: int = 0) -> PointCloud:
    """Draw n area-weighted uniform surface points with face normals and
    interpolated colors."""
    if mesh.is_empty:
        raise MeshError("cannot sample an empty mesh")
    if n < 1:
        raise ValueError("need at least one sample")
    areas = face_areas(mesh)
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
    a, b, c = mesh.triangle_corners()
    positions = (
        w0[:, None] * a[chosen] + w1[:, None] * b[chosen] + w2[:, None] * c[chosen]
    )
    normals, colors = surface_attributes(mesh, chosen, w1, w2)
    return PointCloud(positions, normals, colors)


def _positions(obj) -> np.ndarray:
    if isinstance(obj, PointCloud):
        return obj.positions
    return np.asarray(obj, dtype=np.float64).reshape(-1, 3)


def chamfer_f_score(p, q, threshold: float = DEFAULT_THRESHOLD) -> MetricReport:
    """Symmetric Chamfer distance and F-score between two point sets.

    chamfer = mean over q of distance-to-p + mean over p of
    distance-to-q. Precision counts q-side matches below the threshold,
    recall counts p-side matches. Swapping p and q swaps precision and
    recall but leaves chamfer and f_score unchanged.
    """
    p = _positions(p)
    q = _positions(q)
    if len(p) == 0 or len(q) == 0:
        raise ValueError("chamfer distance needs two non-empty point sets")
    dist_to_p, _ = NearestNeighborIndex(p).query(q)
    dist_to_q, _ = NearestNeighborIndex(q).query(p)
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
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    cov = (src - c_src).T @ (dst - c_dst)
    u, _, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(rot, c_dst - rot @ c_src, 1.0)


def icp_align(
    src,
    dst,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> IcpResult:
    """Point-to-point ICP from the identity: returns src -> dst transform.

    Each iteration matches every source point to its nearest target and
    solves the optimal rigid transform by SVD; the RMSE sequence is
    non-increasing. Stops when the RMSE improvement drops below tol.
    """
    src = _positions(src)
    dst = _positions(dst)
    if len(src) < 3 or len(dst) < 3:
        raise ValueError("ICP needs at least 3 points on each side")
    sv = np.linalg.svd(src - src.mean(axis=0), compute_uv=False)
    if sv[1] <= 1e-12 * max(sv[0], 1e-300):
        raise ValueError("degenerate source configuration (collinear points)")

    tree = NearestNeighborIndex(dst)
    transform = RigidTransform.identity()
    history = []
    rmse = np.inf
    for _ in range(max_iter):
        moved = transform.apply(src)
        dists, idx = tree.query(moved)
        new_rmse = float(np.sqrt(np.mean(dists**2)))
        history.append(new_rmse)
        if abs(rmse - new_rmse) < tol:
            rmse = new_rmse
            break
        rmse = new_rmse
        transform = _kabsch(src, dst[idx])
    return IcpResult(transform, rmse, np.asarray(history))


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
    threshold of the reference surface samples.
    """
    pred_norm, _ = normalize_mesh(pred_mesh)
    gt_norm, _ = normalize_mesh(gt_mesh)
    pred_pts = sample_surface(pred_norm, n_samples, seed).positions
    gt_pts = sample_surface(gt_norm, n_samples, seed).positions
    aligned = icp_align(pred_pts, gt_pts, max_iter=icp_max_iter).transform.apply(pred_pts)
    return chamfer_f_score(gt_pts, aligned, threshold)
