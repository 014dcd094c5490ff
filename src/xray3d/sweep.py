"""Round-trip error sweep: encode, decode, reconstruct, score.

For every (mesh, view, layer count, resolution) cell the mesh is
encoded, decoded to a point cloud, reconstructed through the Poisson
pipeline, and compared with the original. Ray casting runs once per
(mesh, view, resolution) at the deepest requested layer count; shallower
cells reuse the cast through prefix truncation, which is exact.

A layer count above the deepest layer the cast filled only pads the
tensor with empty layers, so all such cells of one (mesh, view,
resolution) decode the same cloud. They share one decode, reconstruction
and evaluation, run at that deepest filled layer count: their rows carry
the same chamfer and f_score, and repeat the decode and reconstruction
timings of the computation they report. On a convex mesh, which no ray
crosses more than twice, every cell from 2 layers up is one computation.

Cells are scored in the frame they were encoded in: the normalized mesh
is encoded and decoded in world coordinates, so each reconstruction is
sampled as it lies, with no renormalization and no ICP, and scored
against samples of the normalized mesh, drawn and indexed once per
mesh. `xray3d eval` keeps the paper protocol for meshes of unknown pose.

Cells execute on a bounded thread pool (XRAY_THREADS env var); rows are
emitted in deterministic (mesh, view, layers, resolution) order no
matter how the pool schedules them. The pool is the sweep's only
parallelism: while run_sweep runs, the OpenBLAS that numpy ships is held
at one thread, process-wide, and given back its previous count when the
last concurrent run_sweep returns or raises. An OpenBLAS thread busy-waits
for a while after each call it shares, so a second BLAS thread per call
would take a core from the pool workers. Rows then depend on neither the
caller's BLAS thread count nor the pool size. Other BLAS builds (MKL, a
system OpenBLAS) are left alone; their users set `*_NUM_THREADS=1`.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .camera import DEFAULT_FOV_X, camera_from_spherical, sample_view_angles
from .codec import decode_to_pointcloud, encode, pad_or_truncate
from .mesh import TriangleMesh, normalize_mesh
# Not called here: bound while the benchmark's tracer wraps sweep.evaluate_pair by name
# (guarded by tests/test_bench_wrappers.py).
from .metrics import evaluate_pair  # noqa: F401
from .poisson import DEFAULT_RESOLUTION, MAX_RESOLUTION, reconstruct
from .raycast import build_bvh

CSV_HEADER = "mesh,view,layers,resolution,chamfer,f_score,encode_ms,decode_ms,recon_ms,error"

THREADS_ENV = "XRAY_THREADS"
DEFAULT_VIEWS = 2


@dataclass(frozen=True)
class SweepRow:
    mesh: str
    view: int
    layers: int
    resolution: int
    chamfer: float
    f_score: float
    encode_ms: float
    decode_ms: float
    recon_ms: float
    error: str = ""

    def csv_fields(self, timings: bool = True) -> list[str]:
        def num(x: float) -> str:
            return "" if np.isnan(x) else repr(float(x))

        def ms(x: float) -> str:
            return f"{x:.3f}" if timings else "0.000"

        return [
            self.mesh,
            str(self.view),
            str(self.layers),
            str(self.resolution),
            num(self.chamfer),
            num(self.f_score),
            ms(self.encode_ms),
            ms(self.decode_ms),
            ms(self.recon_ms),
            self.error,
        ]


def worker_count() -> int:
    """Thread pool size: XRAY_THREADS if set, else min(4, the number of
    CPUs this process may run on)."""
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        if n < 1:
            raise ValueError(f"{THREADS_ENV} must be positive, got {env!r}")
        return n
    if hasattr(os, "sched_getaffinity"):  # a container's or taskset's CPUs
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


@functools.cache
def _numpy_openblas():
    """(get, set) of the thread count of the OpenBLAS bundled in numpy's
    wheel, or None where numpy ships none (MKL or a system BLAS)."""
    import ctypes  # here, so that importing the package does not pay for it
    import glob

    pkg = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(pkg + ".libs", "*openblas*"))
    paths += glob.glob(os.path.join(pkg, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # numpy loaded it already: the same handle
        except OSError:
            continue
        # scipy_openblas_* in numpy 2 wheels, openblas_* in 1.x; 64_ for
        # the 64-bit-integer build.
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


# The BLAS thread count is process-wide, so concurrent sweeps share one
# hold: the first to enter saves the caller's count, the last to leave
# restores it.
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved = 1


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread; a no-op where
    numpy bundles no OpenBLAS."""
    global _blas_holders, _blas_saved
    blas = _numpy_openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_holders == 0:
            _blas_saved = get()
            set_(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                set_(_blas_saved)


@_one_blas_thread()
def run_sweep(
    meshes: dict[str, TriangleMesh],
    layers_list: list[int],
    res_list: list[int],
    views: int = DEFAULT_VIEWS,
    seed: int = 0,
    poisson_res: int = DEFAULT_RESOLUTION,
    screening: float = 0.0,
    trim: float = 0.0,
    n_samples: int = metrics.DEFAULT_SAMPLES,
    threshold: float = metrics.DEFAULT_THRESHOLD,
    fov_x: float = DEFAULT_FOV_X,
    max_workers: int | None = None,
) -> list[SweepRow]:
    """The intrinsic round-trip error over the grid, scored in the encode frame.

    Numpy's bundled OpenBLAS runs on one thread, process-wide, until this
    returns; see the module docstring. screening and trim were removed
    and are accepted only as 0.0: every cell runs the unscreened solve
    and keeps every vertex. Every setting is checked before any work."""
    for option, value in (("screening", screening), ("trim", trim)):
        if value != 0.0:
            raise ValueError(f"{option} was removed; {option} must be 0.0, got {value!r}")
    if not 2 <= poisson_res <= MAX_RESOLUTION:
        raise ValueError(f"poisson_res must be in [2, {MAX_RESOLUTION}], got {poisson_res!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    metrics._check_threshold(threshold)
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be None or at least 1, got {max_workers!r}")
    workers = max_workers or worker_count()
    if not meshes:
        raise ValueError("need at least one mesh")
    if not layers_list or not res_list:
        raise ValueError("layer and resolution lists must be non-empty")
    layers_list = sorted(set(int(v) for v in layers_list))
    res_list = sorted(set(int(v) for v in res_list))
    if layers_list[0] < 1:
        raise ValueError(f"layer counts must be at least 1, got {layers_list[0]}")
    if res_list[0] < 2:
        raise ValueError(f"resolutions must be at least 2, got {res_list[0]}")
    max_layers = layers_list[-1]
    # Built first, as `xray3d views` builds them: the cameras check views and fov_x.
    angles = list(zip(*sample_view_angles(seed, views)))
    cameras = {
        res: [camera_from_spherical(az, el, width=res, height=res, fov_x=fov_x)
              for az, el in angles]
        for res in res_list
    }

    normalized = {name: normalize_mesh(m)[0] for name, m in sorted(meshes.items())}
    accels = {name: build_bvh(m) for name, m in normalized.items()}

    jobs = [
        (name, view, res)
        for name in normalized
        for view in range(views)
        for res in res_list
    ]

    def reference(mesh) -> metrics.NearestNeighborIndex:
        return metrics.NearestNeighborIndex(metrics.sample_surface(mesh, n_samples, seed).positions)

    def run_cell(name, view, res, full, encode_ms, layers) -> SweepRow:
        try:
            t0 = time.perf_counter()
            cloud = decode_to_pointcloud(pad_or_truncate(full, layers), frame="world")
            decode_ms = (time.perf_counter() - t0) * 1000.0
            t0 = time.perf_counter()
            recon, _ = reconstruct(cloud, poisson_res)
            recon_ms = (time.perf_counter() - t0) * 1000.0
            samples = metrics.sample_surface(recon, n_samples, seed).positions
            report = metrics.chamfer_f_score(references[name].result(), samples, threshold)
            return SweepRow(name, view, layers, res, report.chamfer, report.f_score,
                            encode_ms, decode_ms, recon_ms)
        except Exception as exc:
            return SweepRow(name, view, layers, res, np.nan, np.nan,
                            encode_ms, 0, 0, str(exc))

    def run_job(job) -> list[SweepRow]:
        name, view, res = job
        try:
            t0 = time.perf_counter()
            full = encode(normalized[name], cameras[res][view], max_layers, accel=accels[name])
            encode_ms = (time.perf_counter() - t0) * 1000.0
        except Exception as exc:  # per-cell failures recorded, run continues
            return [
                SweepRow(name, view, layers, res, np.nan, np.nan, 0, 0, 0,
                         f"encode: {exc}")
                for layers in layers_list
            ]
        # Layers past the deepest hit are empty, so every cell at or above
        # it decodes the same cloud: compute once per distinct depth.
        used = max(1, int(full.counts.max()))
        cells, rows = {}, []
        for layers in layers_list:
            depth = min(layers, used)
            if depth not in cells:
                cells[depth] = run_cell(name, view, res, full, encode_ms, depth)
            rows.append(replace(cells[depth], layers=layers))
        return rows

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Submitted before the cells, so no cell waits on a build queued
        # behind it; a mesh that cannot be sampled fails in each cell.
        references = {name: pool.submit(reference, mesh) for name, mesh in normalized.items()}
        results = list(pool.map(run_job, jobs))

    rows = [row for rows_ in results for row in rows_]
    rows.sort(key=lambda r: (r.mesh, r.view, r.layers, r.resolution))
    return rows


def rows_to_csv(rows: list[SweepRow], timings: bool = True) -> str:
    """CSV text with minimal quoting: only fields holding a comma, quote
    or newline (error messages) are quoted, so other rows are plain."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    csv.writer(out, lineterminator="\n").writerows(row.csv_fields(timings) for row in rows)
    return out.getvalue()


def mean_chamfer(rows: list[SweepRow]) -> dict[tuple[int, int], float]:
    """Mean chamfer over meshes and views per (layers, resolution) cell."""
    sums: dict[tuple[int, int], list[float]] = {}
    for row in rows:
        if row.error or np.isnan(row.chamfer):
            continue
        sums.setdefault((row.layers, row.resolution), []).append(row.chamfer)
    return {key: float(np.mean(vals)) for key, vals in sums.items()}


def plot_sweep_svg(rows: list[SweepRow], path) -> None:
    """Minimal SVG line chart: mean chamfer vs layer count, one polyline
    per resolution."""
    means = mean_chamfer(rows)
    if not means:
        raise ValueError("no successful sweep cells to plot")
    layer_vals = sorted({k[0] for k in means})
    res_vals = sorted({k[1] for k in means})
    width, height, margin = 640, 420, 56
    xs = {
        lv: margin + i * (width - 2 * margin) / max(1, len(layer_vals) - 1)
        for i, lv in enumerate(layer_vals)
    }
    cd_max = max(means.values())
    cd_min = 0.0

    def y_of(cd: float) -> float:
        if cd_max <= cd_min:
            return height - margin
        frac = (cd - cd_min) / (cd_max - cd_min)
        return height - margin - frac * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" '
        f'y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height-margin}" '
        f'stroke="black"/>',
        f'<text x="{width/2:.0f}" y="{height-margin/3:.0f}" text-anchor="middle" '
        f'font-size="13">layers</text>',
        f'<text x="{margin/3:.0f}" y="{height/2:.0f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 {margin/3:.0f} {height/2:.0f})">'
        f'chamfer</text>',
    ]
    for lv in layer_vals:
        parts.append(
            f'<text x="{xs[lv]:.1f}" y="{height-margin+16:.1f}" text-anchor="middle" '
            f'font-size="11">{lv}</text>'
        )
    for tick in np.linspace(cd_min, cd_max, 5):
        parts.append(
            f'<text x="{margin-6}" y="{y_of(tick)+4:.1f}" text-anchor="end" '
            f'font-size="11">{tick:.3g}</text>'
        )
    for ci, res in enumerate(res_vals):
        pts = [
            f"{xs[lv]:.1f},{y_of(means[(lv, res)]):.1f}"
            for lv in layer_vals
            if (lv, res) in means
        ]
        color = palette[ci % len(palette)]
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{width-margin+6}" y="{margin+14*ci+10}" font-size="11" '
            f'fill="{color}">res {res}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
