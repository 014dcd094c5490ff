"""Dense-grid Poisson surface reconstruction.

Pipeline: splat oriented point normals into a vector field on a regular
grid and divide it by the splatted density, take its divergence as the
source term f, solve the screened system (lap - screening * density)
phi = f with zero-Dirichlet ghost boundaries by conjugate gradient
preconditioned with the exact inverse of -lap (a sine-basis fast Poisson
solve), then run marching cubes at the mean potential of the input
samples. Each sample's trilinear weights are exactly what its splat
added to the density, so that mean is the density-weighted mean of phi
over the nodes and needs no second pass over the samples. Faces are
wound along grad(phi), outward for outward input normals, so no
orientation pass follows. Unscreened systems converge in one iteration;
screened ones take a few dozen to a few hundred.

Grid layout is cell-centered: resolution R means R nodes per axis at
DOMAIN_LO + (i + 0.5) * h with h = (DOMAIN_HI - DOMAIN_LO) / R over the
cubic domain [-0.6, 0.6]^3 (normalized meshes plus a 10% margin).
Derivatives are in grid units (spacing 1); the iso level is data-driven,
so the solution's scale never matters downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import PointCloud
from .mcubes import marching_cubes
from .mesh import TriangleMesh

DOMAIN_LO = -0.6
DOMAIN_HI = 0.6
DEFAULT_RESOLUTION = 128
MAX_RESOLUTION = 256


class PoissonError(ValueError):
    """Invalid reconstruction input (empty cloud, out-of-domain points)."""


class SolverConvergenceError(RuntimeError):
    """The preconditioned conjugate-gradient solve failed to reach the
    residual tolerance within its iteration budget."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"solver stalled at relative residual {residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class GridSpec:
    """Cubic cell-centered grid over [DOMAIN_LO, DOMAIN_HI]^3."""

    resolution: int

    def __post_init__(self):
        if not 2 <= self.resolution <= MAX_RESOLUTION:
            raise ValueError(f"resolution must be in [2, {MAX_RESOLUTION}]")

    @property
    def spacing(self) -> float:
        return (DOMAIN_HI - DOMAIN_LO) / self.resolution

    @property
    def origin(self) -> np.ndarray:
        """Position of node (0, 0, 0)."""
        return np.full(3, DOMAIN_LO + 0.5 * self.spacing)

    def grid_coords(self, points: np.ndarray) -> np.ndarray:
        """Map world points to fractional node coordinates."""
        return (np.asarray(points, dtype=np.float64) - self.origin) / self.spacing

    def trilinear(self, data: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Sample a (R, R, R) array at world points, clamped to the node hull."""
        g = np.clip(self.grid_coords(points), 0.0, self.resolution - 1)
        nodes, weights = _stencil(self.resolution, g)
        return (data.reshape(-1)[nodes] * weights).sum(axis=0)


def _stencil(r: int, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(8, N) flat node indices and trilinear weights of node coordinates g
    in [0, r - 1]^3; row k is the corner offset by the bits of k, x highest."""
    base = np.minimum(np.floor(g), r - 2).astype(np.int64)
    frac = g - base
    bit = np.arange(2)
    corner = (bit[:, None, None] * r + bit[:, None]) * r + bit
    nodes = corner.reshape(8, 1) + (base[:, 0] * r + base[:, 1]) * r + base[:, 2]
    wx, wy, wz = (np.array([1.0 - frac[:, a], frac[:, a]]) for a in range(3))
    return nodes, ((wx[:, None, None] * wy[:, None]) * wz).reshape(8, -1)


@dataclass(frozen=True)
class Field:
    """Scalar (R, R, R) or vector (R, R, R, 3) samples on a grid's nodes."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        r = self.grid.resolution
        if self.data.shape not in ((r, r, r), (r, r, r, 3)):
            raise ValueError(f"expected shape {(r, r, r)} or {(r, r, r, 3)}, got {self.data.shape}")


@dataclass(frozen=True)
class SolveInfo:
    converged: bool
    iterations: int
    relative_residual: float
    residual_history: np.ndarray = field(repr=False)


def splat_normals(pc: PointCloud, resolution: int) -> tuple[Field, Field]:
    """Distribute each point's unit normal over its 8 surrounding nodes.

    Trilinear weights form a partition of unity, so the density field
    sums to the point count exactly.
    """
    if len(pc) == 0:
        raise PoissonError("cannot splat an empty point cloud")
    grid = GridSpec(resolution)
    r = grid.resolution
    g = grid.grid_coords(pc.positions)
    if g.min() < 0 or g.max() >= r - 1:
        worst = pc.positions[np.argmax(np.abs(pc.positions).max(axis=1))]
        raise PoissonError(
            f"point outside the splat domain (e.g. {worst}); "
            f"grid covers [{DOMAIN_LO}, {DOMAIN_HI}]^3"
        )
    nodes, weights = _stencil(r, g)
    nodes = nodes.ravel()
    n = r * r * r
    den = np.bincount(nodes, weights=weights.ravel(), minlength=n)
    vec = np.empty((n, 3))
    for a in range(3):
        vec[:, a] = np.bincount(nodes, weights=(weights * pc.normals[:, a]).ravel(), minlength=n)
    return Field(grid, vec.reshape(r, r, r, 3)), Field(grid, den.reshape(r, r, r))


def divergence(v: Field) -> Field:
    """Divergence in grid units: central differences inside, one-sided at
    the boundary (what np.gradient computes), added axis by axis into one
    array so no per-axis gradient is held."""
    f = np.zeros(v.data.shape[:3])
    for a in range(3):
        c = np.moveaxis(v.data[..., a], a, 0)
        out = np.moveaxis(f, a, 0)
        out[1:-1] += (c[2:] - c[:-2]) / 2.0
        out[0] += c[1] - c[0]
        out[-1] += c[-1] - c[-2]
    return Field(v.grid, f)


def _neg_laplacian(phi: np.ndarray) -> np.ndarray:
    """-lap with the 7-point stencil and zero ghost nodes outside the grid."""
    out = 6.0 * phi
    out[1:, :, :] -= phi[:-1, :, :]
    out[:-1, :, :] -= phi[1:, :, :]
    out[:, 1:, :] -= phi[:, :-1, :]
    out[:, :-1, :] -= phi[:, 1:, :]
    out[:, :, 1:] -= phi[:, :, :-1]
    out[:, :, :-1] -= phi[:, :, 1:]
    return out


def _sine_transform(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Apply the symmetric orthonormal matrix s along each axis of x."""
    r = len(s)
    y = (s @ x.reshape(r, r * r)).reshape(r, r, r)
    y = s @ y
    return y @ s


def _inverse_neg_laplacian(x: np.ndarray) -> np.ndarray:
    """Exact inverse of _neg_laplacian.

    The 1-D second difference with zero ghost nodes has the orthonormal
    eigenvectors S[j, k] = sqrt(2/(R+1)) sin(pi j k / (R+1)) (1-based)
    with eigenvalues 2 - 2 cos(pi k / (R+1)), so -lap is diagonal in the
    tensor sine basis (the DST-I fast Poisson solve, Numerical Recipes
    20.4). S is symmetric and its own inverse; the transforms are dense
    matmuls, O(R^4) BLAS work with no FFT length restriction.
    """
    r = x.shape[0]
    k = np.arange(1, r + 1)
    s = np.sqrt(2.0 / (r + 1)) * np.sin(np.pi * np.outer(k, k) / (r + 1))
    lam = 2.0 - 2.0 * np.cos(np.pi * k / (r + 1))
    y = _sine_transform(x, s)
    plane = lam[:, None] + lam[None, :]
    for i in range(r):
        y[i] /= plane + lam[i]
    return _sine_transform(y, s)


def solve_poisson(
    f: Field,
    screening_weight: float = 0.0,
    density: Field | None = None,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> tuple[Field, SolveInfo]:
    """Solve (lap - screening * density) phi = f to a relative residual.

    Conjugate gradient on the SPD form (-lap + screening * density) phi
    = -f, preconditioned with the exact inverse of -lap. Without
    screening the preconditioner is the inverse of the operator, so one
    iteration reaches rounding error; with screening the same loop is a
    Krylov solve whose residual 2-norm need not fall monotonically.
    Dirichlet zeros sit on the ghost layer just outside the grid.
    Non-convergence is reported in the returned SolveInfo, never raised
    here.
    """
    if screening_weight < 0:
        raise ValueError("screening weight must be nonnegative")
    if screening_weight > 0 and density is None:
        raise ValueError("screening requires a density field")
    if density is not None and density.grid != f.grid:
        raise ValueError("density and source grids do not match")
    r = f.grid.resolution
    if max_iter is None:
        max_iter = 10 * r

    res = -f.data
    b_norm = float(np.linalg.norm(res))
    if b_norm == 0.0:
        zero = np.zeros_like(res)
        return Field(f.grid, zero), SolveInfo(True, 0, 0.0, np.zeros(1))

    screen = screening_weight * density.data if screening_weight > 0 else None

    def apply_op(x):
        out = _neg_laplacian(x)
        if screen is not None:
            out += screen * x
        return out

    x = np.zeros_like(res)
    p = _inverse_neg_laplacian(res)
    r_z = float(np.sum(res * p))
    history = [1.0]
    res_norm = b_norm
    iterations = 0
    for iterations in range(1, max_iter + 1):
        a_p = apply_op(p)
        p_ap = float(np.sum(p * a_p))
        if p_ap == 0.0 or r_z == 0.0:
            break
        alpha = r_z / p_ap
        x += alpha * p
        res -= alpha * a_p
        res_norm = float(np.linalg.norm(res))
        history.append(res_norm / b_norm)
        if res_norm <= tol * b_norm:
            break
        z = _inverse_neg_laplacian(res)
        r_z_next = float(np.sum(res * z))
        p *= r_z_next / r_z
        p += z
        r_z = r_z_next

    relative = res_norm / b_norm
    info = SolveInfo(relative <= tol, iterations, relative, np.asarray(history))
    return Field(f.grid, x), info


def extract_isosurface(phi: Field, density: Field) -> TriangleMesh:
    """Iso-surface at the mean potential of the samples splatted into density.

    Interpolating phi at a sample weights its nodes as its splat did, so
    the sample mean is sum(phi * density) / sum(density). Faces are wound
    along grad(phi), i.e. outward for outward-oriented input normals.
    """
    if density.grid != phi.grid:
        raise ValueError("density and potential grids do not match")
    iso = float(np.vdot(phi.data, density.data) / density.data.sum())
    lo, hi = float(phi.data.min()), float(phi.data.max())
    if not lo < iso < hi:
        raise PoissonError(
            f"iso level {iso:.3e} outside the potential range [{lo:.3e}, {hi:.3e}]"
        )
    mesh = marching_cubes(phi.data, iso, phi.grid.origin, phi.grid.spacing)
    if mesh.is_empty:
        raise PoissonError("iso-surface extraction produced no faces")
    return mesh


def density_trim(
    mesh: TriangleMesh, per_vertex_density: np.ndarray, threshold: float
) -> TriangleMesh:
    """Drop vertices with density below the threshold and their faces."""
    per_vertex_density = np.asarray(per_vertex_density, dtype=np.float64)
    if len(per_vertex_density) != mesh.n_vertices:
        raise ValueError("density array length must match vertex count")
    keep = per_vertex_density >= threshold
    if keep.all():
        return mesh
    remap = np.cumsum(keep) - 1
    face_keep = keep[mesh.faces].all(axis=1)
    return TriangleMesh(
        vertices=mesh.vertices[keep],
        faces=remap[mesh.faces[face_keep]],
        vertex_colors=None if mesh.vertex_colors is None else mesh.vertex_colors[keep],
    )


def reconstruct(
    pc: PointCloud,
    resolution: int = DEFAULT_RESOLUTION,
    screening: float = 0.0,
    trim: float = 0.0,
    tol: float = 1e-6,
    max_iter: int | None = None,
    return_info: bool = False,
):
    """Full oriented-cloud-to-mesh pipeline.

    splat -> density-normalize -> divergence -> solve -> iso-surface ->
    density trim. Raises SolverConvergenceError if the linear solve
    stalls. With return_info=True, returns (mesh, SolveInfo).
    """
    vec, den = splat_normals(pc, resolution)
    # Raw splats carry the local sample density, which for ray-cast
    # clouds varies with the grazing angle, giving the solved indicator a
    # wildly uneven amplitude and making a single iso level eat
    # under-sampled regions. Dividing by density (in place: at R = 256 a
    # copy is another 400 MB) caps every node at unit magnitude, so the
    # surface jump is uniform regardless of sampling density.
    vec.data[...] /= np.maximum(den.data, 1e-12)[..., None]
    f = divergence(vec)
    del vec  # three R^3 arrays the solve and extraction do not need
    phi, info = solve_poisson(f, screening, den, tol=tol, max_iter=max_iter)
    if not info.converged:
        raise SolverConvergenceError(info.relative_residual, info.iterations)
    mesh = extract_isosurface(phi, den)
    if trim > 0.0:
        mesh = density_trim(mesh, den.grid.trilinear(den.data, mesh.vertices), trim)
    if return_info:
        return mesh, info
    return mesh
