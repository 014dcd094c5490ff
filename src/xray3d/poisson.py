"""Dense-grid Poisson surface reconstruction.

Pipeline: splat oriented point normals into a vector field on a regular
grid and divide it by the splatted density, take its divergence as the
source term f, solve lap phi = f with zero-Dirichlet ghost boundaries
directly (the exact inverse of -lap, a sine-basis fast Poisson solve,
whose relative residual is rounding error against a fixed 1e-6 bound),
then run marching cubes at the mean potential of the input samples.
Each sample's trilinear weights are exactly what its splat added to the
density, so that mean is the density-weighted mean of phi over the
density's nonzero nodes and needs no second pass over the samples.
Faces are wound along grad(phi), outward for outward input normals, so
no orientation pass follows.

Grid layout is cell-centered: resolution R means R nodes per axis at
DOMAIN_LO + (i + 0.5) * h with h = (DOMAIN_HI - DOMAIN_LO) / R over the
cubic domain [-0.6, 0.6]^3 (normalized meshes plus a 10% margin).
Derivatives are in grid units (spacing 1); the iso level is data-driven,
so the solution's scale never matters downstream.

Memory, in float64 grids of R^3 nodes (16 MiB at 128^3, 128 MiB at
256^3), for each phase of reconstruct:
- splat 4: the vector field and the density, added into in place one
  stencil corner at a time, plus about 100 bytes per point;
- normalisation 4: it divides in place, one slab of planes at a time;
- divergence 4: the field and f, plus one slab's differences; the
  density waits parked as its nonzero nodes (16 bytes each, at most 8
  per point);
- solve 3: f, phi (the copy of -f it transforms in place) and one
  work buffer, which ends holding the residual; the density stays
  parked;
- extraction at most 3: phi, the parked density and under 2 grids of
  its own for the 281,000-face surface of a 128^3 reconstruction (a few
  bytes per node, and per-face arrays, the sliver filter's a block at a
  time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import PointCloud
from .mcubes import marching_cubes
from .mesh import TriangleMesh

DOMAIN_LO = -0.6
DOMAIN_HI = 0.6
DEFAULT_RESOLUTION = 48  # finer grids outresolve the hits of a 256^2 frame and join close walls
MAX_RESOLUTION = 256
# Nodes per slab of the slab-wise passes (normalisation, divergence): 32
# planes at 128^3, 8 at 256^3, so each slab's float64 temporaries stay
# near 4 MB however large the grid.
_SLAB_NODES = 1 << 19
# The relative residual a solve must reach; the direct solve's is rounding
# error, about 1e-14.
_SOLVE_TOL = 1e-6


class PoissonError(ValueError):
    """Invalid reconstruction input (empty cloud, out-of-domain points)."""


class SolverConvergenceError(RuntimeError):
    """The Poisson solve missed its relative residual tolerance."""

    def __init__(self, residual: float):
        super().__init__(
            f"Poisson solve missed its tolerance: relative residual {residual:.3e} "
            f"above {_SOLVE_TOL:g}"
        )
        self.residual = residual


@dataclass(frozen=True)
class GridSpec:
    """Cubic cell-centered grid over [DOMAIN_LO, DOMAIN_HI]^3."""

    resolution: int

    def __post_init__(self):
        if not 2 <= self.resolution <= MAX_RESOLUTION:
            raise ValueError(f"resolution must be in [2, {MAX_RESOLUTION}], got {self.resolution}")

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


def _corners(r: int, g: np.ndarray):
    """Yield the flat node indices and trilinear weights of node coordinates
    g in [0, r - 1]^3 one corner at a time, never as an (8, N) stencil;
    the k-th corner is offset by the bits of k, x highest."""
    base = np.floor(g)
    np.minimum(base, r - 2, out=base)
    frac = g - base
    del g
    base = base.astype(np.int64)
    flat = (base[:, 0] * r + base[:, 1]) * r + base[:, 2]
    del base
    wx, wy, wz = ((1.0 - frac[:, a], frac[:, a]) for a in range(3))
    for dx in (0, 1):
        for dy in (0, 1):
            wxy = wx[dx] * wy[dy]
            for dz in (0, 1):
                yield flat + ((dx * r + dy) * r + dz), wxy * wz[dz]


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
    """converged: relative_residual is within _SOLVE_TOL; iterations: 1
    for a nonzero source, 0 for a zero one."""

    converged: bool
    iterations: int
    relative_residual: float


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
    outside = ((g < 0) | (g >= r - 1)).any(axis=1)
    if outside.any():
        lo, hi = grid.origin[0], grid.origin[0] + (r - 1) * grid.spacing
        raise PoissonError(
            f"point outside the splat domain (e.g. {pc.positions[np.argmax(outside)]}); "
            f"at resolution {r} the nodes cover [{lo:.6g}, {hi:.6g})^3"
        )
    corners = _corners(r, g)
    del g  # the stencil drops it once it has the fractions
    n = r * r * r
    vec = np.zeros((n, 3))
    den = np.zeros(n)
    # np.add.at is a bincount with an out=: corner by corner, each node
    # receives the same terms in the same order as a bincount over the
    # (8, N) stencil, without a whole-grid result per component.
    for node, w in corners:
        np.add.at(den, node, w)
        for a in range(3):
            np.add.at(vec[:, a], node, w * pc.normals[:, a])
    return Field(grid, vec.reshape(r, r, r, 3)), Field(grid, den.reshape(r, r, r))


def _slabs(r: int) -> list[slice]:
    """Runs of whole axis-0 planes, about _SLAB_NODES nodes each."""
    step = max(1, _SLAB_NODES // (r * r))
    return [slice(lo, min(lo + step, r)) for lo in range(0, r, step)]


def divergence(v: Field) -> Field:
    """Divergence in grid units: central differences inside, one-sided at
    the boundary (what np.gradient computes), added axis by axis into one
    array. Each slab of planes takes its three axes' differences in turn,
    so no difference of the whole grid is held."""
    d = v.data
    r = d.shape[0]
    f = np.zeros(d.shape[:3])
    x = d[..., 0]
    for rows in _slabs(r):
        out = f[rows]
        # axis 0 reaches one plane past each side of the slab
        lo, hi = max(rows.start, 1), min(rows.stop, r - 1)
        out[lo - rows.start:hi - rows.start] += (x[lo + 1:hi + 1] - x[lo - 1:hi - 1]) / 2.0
        if rows.start == 0:
            out[0] += x[1] - x[0]
        if rows.stop == r:
            out[-1] += x[-1] - x[-2]
        for a in (1, 2):
            c = np.moveaxis(d[rows, ..., a], a, 0)
            o = np.moveaxis(out, a, 0)
            o[1:-1] += (c[2:] - c[:-2]) / 2.0
            o[0] += c[1] - c[0]
            o[-1] += c[-1] - c[-2]
    return Field(v.grid, f)


def _neg_laplacian(phi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-lap with the 7-point stencil and zero ghost nodes outside the grid,
    written into out."""
    np.multiply(phi, 6.0, out=out)
    out[1:, :, :] -= phi[:-1, :, :]
    out[:-1, :, :] -= phi[1:, :, :]
    out[:, 1:, :] -= phi[:, :-1, :]
    out[:, :-1, :] -= phi[:, 1:, :]
    out[:, :, 1:] -= phi[:, :, :-1]
    out[:, :, :-1] -= phi[:, :, 1:]
    return out


def _sine_transform(x: np.ndarray, s: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Apply the symmetric orthonormal matrix s along each axis of x; the
    three passes alternate between x and work, and the result is in work."""
    r = len(s)
    np.matmul(s, x.reshape(r, r * r), out=work.reshape(r, r * r))
    np.matmul(s, work, out=x)
    return np.matmul(x, s, out=work)


def _inverse_neg_laplacian(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Overwrite x with the exact inverse of _neg_laplacian applied to it;
    work is scratch of the same shape.

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
    y = _sine_transform(x, s, work)
    plane = lam[:, None] + lam[None, :]
    for i in range(r):
        y[i] /= plane + lam[i]
    return _sine_transform(y, s, x)


def solve_poisson(f: Field) -> tuple[Field, SolveInfo]:
    """Solve lap phi = f with zero-Dirichlet ghost nodes just outside the
    grid, directly: phi is the exact inverse of -lap applied to -f.

    The returned SolveInfo carries the true relative residual
    |lap phi - f| / |f|, rounding error for any f (about 1e-14 from 64^3
    to 256^3), and whether it is within 1e-6 (_SOLVE_TOL); a miss is
    reported there, never raised here. A source with a NaN or infinite
    node raises a ValueError naming the first such node. The solve holds
    phi and one work buffer beside the caller's f.
    """
    b_norm = float(np.linalg.norm(f.data))
    if not np.isfinite(b_norm) and not np.isfinite(f.data).all():
        node = tuple(int(i) for i in np.argwhere(~np.isfinite(f.data))[0])
        raise ValueError(f"Poisson source is not finite: node {node} is {float(f.data[node])}")
    if b_norm == 0.0:
        return Field(f.grid, np.zeros_like(f.data)), SolveInfo(True, 0, 0.0)
    phi = np.negative(f.data, order="C")
    work = np.empty_like(phi)
    _inverse_neg_laplacian(phi, work)
    res = _neg_laplacian(phi, work)
    res += f.data
    relative = float(np.linalg.norm(res)) / b_norm
    return Field(f.grid, phi), SolveInfo(relative <= _SOLVE_TOL, 1, relative)


def extract_isosurface(phi: Field, nodes: np.ndarray, weights: np.ndarray) -> TriangleMesh:
    """Iso-surface at the mean potential of the splatted samples, whose
    density is weights at the flat node indices nodes and zero elsewhere.

    Interpolating phi at a sample weights its nodes as its splat did, so
    that mean is sum(phi * density) / sum(density). Faces are wound
    along grad(phi), i.e. outward for outward-oriented input normals.
    """
    # Summed in extended precision, the level is the sample mean to within
    # rounding in whatever order the nodes come.
    iso = float(np.dot(phi.data.reshape(-1)[nodes].astype(np.longdouble), weights)
                / weights.sum(dtype=np.longdouble))
    lo, hi = float(phi.data.min()), float(phi.data.max())
    if not lo < iso < hi:
        raise PoissonError(
            f"iso level {iso:.3e} outside the potential range [{lo:.3e}, {hi:.3e}]"
        )
    mesh = marching_cubes(phi.data, iso, phi.grid.origin, phi.grid.spacing)
    if mesh.is_empty:
        raise PoissonError("iso-surface extraction produced no faces")
    return mesh


def reconstruct(
    pc: PointCloud, resolution: int = DEFAULT_RESOLUTION
) -> tuple[TriangleMesh, SolveInfo]:
    """Full oriented-cloud-to-mesh pipeline: (mesh, the solve's SolveInfo).

    splat -> density-normalize -> divergence -> solve -> iso-surface at
    the mean potential of the samples, every vertex kept. Raises
    SolverConvergenceError if the solve misses its 1e-6 tolerance.
    """
    vec, den = splat_normals(pc, resolution)
    # Raw splats carry the local sample density, which for ray-cast
    # clouds varies with the grazing angle, giving the solved indicator a
    # wildly uneven amplitude and making a single iso level eat
    # under-sampled regions. Dividing by density (in place and slab by
    # slab: at R = 256 a copy is another 400 MB, the clamped density 130 MB)
    # caps every node at unit magnitude, so the surface jump is uniform
    # regardless of sampling density.
    for rows in _slabs(resolution):
        vec.data[rows] /= np.maximum(den.data[rows], 1e-12)[..., None]
    # Park the density as its nonzero nodes (at most 8 per sample), the
    # form extraction reads, so no later phase holds it as a grid.
    nodes = np.flatnonzero(den.data)
    weights = den.data.reshape(-1)[nodes]
    del den
    f = divergence(vec)
    del vec  # three R^3 arrays the solve and extraction do not need
    phi, info = solve_poisson(f)
    del f
    if not info.converged:
        raise SolverConvergenceError(info.relative_residual)
    return extract_isosurface(phi, nodes, weights), info
