"""Where the benchmark records spans, and the per-layer metrics it derives.

Every wrapper sits at the name a calling module binds the function to:
`codec.build_bvh` is what `encode` calls, `sweep.reconstruct` is what a
sweep cell calls, and so on. The `diffusion` module is on no user's wait
path and is not wrapped.
"""

from __future__ import annotations

import os
import statistics

from spans import Recorder, Span, self_time_by_name, self_times, time_by_name

# Counts each wrapper reads from return values and arguments.


def _faces(mesh, args, kwargs):
    return {"faces": mesh.n_faces}


def _build(accel, args, kwargs):
    return {"faces": accel.n_faces}


def _cast(batch, args, kwargs):
    return {"rays": len(args[1]), "hits": int(batch.ray.size)}


def _file_bytes(result, args, kwargs):
    return {"bytes": os.path.getsize(args[1])}


def _save_mesh(result, args, kwargs):
    return {"bytes": os.path.getsize(args[1]), "faces": args[0].n_faces}


def _points(cloud, args, kwargs):
    return {"points": len(cloud)}


def _solve(result, args, kwargs):
    phi, info = result
    nodes = int(phi.data.size)
    return {"iters": info.iterations, "nodes": nodes, "node_iters": nodes * info.iterations}


def _icp(result, args, kwargs):
    iters = len(result.rmse_history)
    return {"iters": iters, "capped": int(iters >= kwargs.get("max_iter", 50))}


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the three workloads cross."""
    from xray3d import cli, codec, metrics, poisson, sweep

    for module in (codec, sweep):
        rec.wrap(module, "build_bvh", "raycast.build", _build)
    rec.wrap(codec, "cast_rays", "raycast.cast", _cast)
    for module in (cli, sweep):
        rec.wrap(module, "encode", "codec.encode")
        rec.wrap(module, "decode_to_pointcloud", "codec.decode", _points)
        rec.wrap(module, "reconstruct", "poisson.reconstruct")
        rec.wrap(module, "evaluate_pair", "metrics.evaluate")
    rec.wrap(cli, "write_xray", "codec.write", _file_bytes)
    rec.wrap(cli, "read_xray", "codec.read")
    rec.wrap(poisson, "splat_normals", "poisson.splat")
    rec.wrap(poisson, "divergence", "poisson.divergence")
    rec.wrap(poisson, "solve_poisson", "poisson.solve", _solve)
    rec.wrap(poisson, "extract_isosurface", "poisson.extract")
    rec.wrap(poisson, "marching_cubes", "mcubes.marching_cubes", _faces)
    rec.wrap(metrics, "sample_surface", "metrics.sample")
    rec.wrap(metrics, "icp_align", "metrics.icp", _icp)
    rec.wrap(metrics, "chamfer_f_score", "metrics.chamfer")
    rec.wrap(cli, "load_mesh", "meshio.load", _faces)
    rec.wrap(cli, "save_mesh", "meshio.save", _save_mesh)
    rec.wrap(sweep, "run_sweep", "sweep.run")
    for command in ("encode", "eval", "views"):
        rec.wrap(cli, f"cmd_{command}", f"cli.{command}")


def digest(rec: Recorder) -> dict:
    """Work counts that two commits doing the same work must share."""
    t = rec.totals
    return {
        "hits": t["raycast.cast"].get("hits", 0),
        "points": t["codec.decode"].get("points", 0),
        "output_faces": t["mcubes.marching_cubes"].get("faces", 0),
        "solve_iters": t["poisson.solve"].get("iters", 0),
        "icp_iters": t["metrics.icp"].get("iters", 0),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sweep_cells(spans: list[Span], main_thread: int) -> list[float]:
    """Traced time of each sweep cell, from the worker threads' spans.

    A cell ends with its evaluation. It covers every top-level span its
    worker ran since that worker's previous cell ended, so the first
    cell of each job also carries the job's shared encode.
    """
    cells = []
    pending: dict[int, float] = {}
    for span in sorted(spans, key=lambda s: s.start):
        if span.thread == main_thread or span.parent is not None:
            continue
        pending[span.thread] = pending.get(span.thread, 0.0) + span.duration
        if span.name == "metrics.evaluate":
            cells.append(pending.pop(span.thread))
    return cells


def layer_metrics(
    rec: Recorder,
    main_thread: int,
    traced_wall: float,
    untraced_wall: float,
    workers: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration: name -> (value, unit).

    Every metric is reported on every workload. A layer the workload
    does not cross spent no time and did no work in it, so its metrics
    read a measured 0.
    """
    spans = rec.spans
    total = time_by_name(spans)
    own = self_time_by_name(spans)
    c = rec.totals

    def s(name):
        return total.get(name, 0.0)

    def o(name):
        return own.get(name, 0.0)

    def n(name, key):
        return c[name].get(key, 0)

    cells = sweep_cells(spans, main_thread)
    main_self = sum(t for span, t in zip(spans, self_times(spans)) if span.thread == main_thread)
    # (metric, unit, value)
    table = [
        ("raycast.build_s", "s", lambda: s("raycast.build")),
        ("raycast.build_calls", "count", lambda: n("raycast.build", "calls")),
        ("raycast.build_us_per_face", "us",
         lambda: _ratio(s("raycast.build") * 1e6, n("raycast.build", "faces"))),
        ("raycast.cast_s", "s", lambda: s("raycast.cast")),
        ("raycast.rays", "count", lambda: n("raycast.cast", "rays")),
        ("raycast.hits", "count", lambda: n("raycast.cast", "hits")),
        ("raycast.hits_per_ray", "ratio",
         lambda: _ratio(n("raycast.cast", "hits"), n("raycast.cast", "rays"))),
        ("raycast.rays_per_s", "1/s",
         lambda: _ratio(n("raycast.cast", "rays"), s("raycast.cast"))),
        ("codec.encode_self_s", "s", lambda: o("codec.encode")),
        ("poisson.splat_s", "s", lambda: s("poisson.splat")),
        ("poisson.divergence_s", "s", lambda: s("poisson.divergence")),
        ("poisson.solve_s", "s", lambda: s("poisson.solve")),
        ("poisson.solve_calls", "count", lambda: n("poisson.solve", "calls")),
        ("poisson.solve_iters", "count", lambda: n("poisson.solve", "iters")),
        ("poisson.grid_nodes", "count", lambda: n("poisson.solve", "nodes")),
        ("poisson.solve_ns_per_node_iter", "ns",
         lambda: _ratio(s("poisson.solve") * 1e9, n("poisson.solve", "node_iters"))),
        ("poisson.extract_self_s", "s", lambda: o("poisson.extract")),
        ("mcubes.marching_cubes_s", "s", lambda: s("mcubes.marching_cubes")),
        ("mcubes.faces", "count", lambda: n("mcubes.marching_cubes", "faces")),
        ("metrics.sample_s", "s", lambda: s("metrics.sample")),
        ("metrics.icp_s", "s", lambda: s("metrics.icp")),
        ("metrics.icp_iters", "count", lambda: n("metrics.icp", "iters")),
        ("metrics.icp_capped_frac", "ratio",
         lambda: _ratio(n("metrics.icp", "capped"), n("metrics.icp", "calls"))),
        ("metrics.chamfer_s", "s", lambda: s("metrics.chamfer")),
        ("meshio.load_s", "s", lambda: s("meshio.load")),
        ("meshio.save_s", "s", lambda: s("meshio.save")),
        ("meshio.bytes_written", "B", lambda: n("meshio.save", "bytes")),
        ("codec.write_s", "s", lambda: s("codec.write")),
        ("codec.read_s", "s", lambda: s("codec.read")),
        ("codec.decode_s", "s", lambda: s("codec.decode")),
        ("codec.points", "count", lambda: n("codec.decode", "points")),
        ("codec.bytes_written", "B", lambda: n("codec.write", "bytes")),
        ("sweep.cells", "count", lambda: len(cells)),
        ("sweep.cell_s_p50", "s", lambda: statistics.median(cells) if cells else 0.0),
        ("sweep.cell_s_max", "s", lambda: max(cells, default=0.0)),
        ("sweep.worker_busy_frac", "ratio",
         lambda: _ratio(sum(cells), s("sweep.run") * workers)),
        ("cli.encode_s", "s", lambda: s("cli.encode")),
        ("cli.decode_s", "s", lambda: s("cli.decode")),
        ("cli.eval_s", "s", lambda: s("cli.eval")),
        ("cli.views_s", "s", lambda: s("cli.views")),
        ("trace.overhead_ratio", "ratio", lambda: _ratio(traced_wall, untraced_wall)),
        ("trace.self_sum_frac", "ratio", lambda: _ratio(main_self, traced_wall)),
    ]
    return {name: (value(), unit) for name, unit, value in table}
