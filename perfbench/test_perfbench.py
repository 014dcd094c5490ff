"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench
"""

import math
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import sweep_cells  # noqa: E402
from spans import Recorder, Span, self_time_by_name, self_times  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("outer", 1, 0.0, 10.0),
        Span("a", 1, 1.0, 4.0, parent=0),
        Span("a.inner", 1, 2.0, 3.0, parent=1),
        Span("b", 1, 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # Top-level self times add up to the top-level span.
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_ignores_spans_on_other_threads():
    rec = Recorder()

    def worker():
        with rec.span("child"):
            time.sleep(0.05)

    with rec.span("parent"):
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    parent, child = sorted(rec.spans, key=lambda s: s.name != "parent")
    assert child.parent is None and child.thread != parent.thread
    own = self_time_by_name(rec.spans)
    # The child ran inside the parent's interval, on another thread, so
    # none of it is taken from the parent.
    assert own["parent"] == parent.duration >= child.duration
    assert own["child"] == child.duration


def test_recorder_nests_per_thread_and_counts_across_threads():
    rec = Recorder()
    barrier = threading.Barrier(4)

    def worker():
        barrier.wait(timeout=10)
        for _ in range(50):
            with rec.span("job") as sp:
                with rec.span("step") as inner:
                    inner.add(items=2)
                sp.add(items=1)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert rec.totals["job"] == {"calls": 200, "items": 200}
    assert rec.totals["step"] == {"calls": 200, "items": 400}
    for span in rec.spans:
        if span.name == "step":
            parent = rec.spans[span.parent]
            assert parent.name == "job" and parent.thread == span.thread
            assert parent.start <= span.start <= span.end <= parent.end
        else:
            assert span.parent is None
    assert min(self_times(rec.spans)) >= 0.0


def test_untimed_recorder_counts_without_spans():
    rec = Recorder(timed=False)
    with rec.span("x") as sp:
        sp.add(n=3)
    assert rec.spans == [] and rec.totals["x"] == {"calls": 1, "n": 3}


def test_wrap_records_counts_and_unwraps():
    class Module:
        @staticmethod
        def f(x):
            return [0] * x

    with Recorder() as rec:
        rec.wrap(Module, "f", "layer.f", lambda out, args, kwargs: {"items": len(out)})
        assert Module.f(3) == [0, 0, 0]
        Module.f(x=2)
    assert not hasattr(Module.f, "__wrapped__")
    assert rec.totals["layer.f"] == {"calls": 2, "items": 5}
    assert [s.counts for s in rec.spans] == [{"items": 3}, {"items": 2}]


def test_sweep_cells_split_worker_spans_at_each_evaluation():
    main, w1, w2 = 1, 2, 3
    spans = [
        Span("sweep.run", main, 0.0, 20.0),
        Span("raycast.build", main, 0.0, 1.0, parent=0),
        # Worker 1: one job, encode shared by two cells.
        Span("codec.encode", w1, 1.0, 2.0),
        Span("raycast.cast", w1, 1.2, 1.8, parent=2),
        Span("codec.decode", w1, 2.0, 2.5),
        Span("poisson.reconstruct", w1, 2.5, 5.0),
        Span("metrics.evaluate", w1, 5.0, 6.0),
        Span("codec.decode", w1, 6.0, 6.5),
        Span("poisson.reconstruct", w1, 6.5, 8.0),
        Span("metrics.evaluate", w1, 8.0, 9.0),
        # Worker 2: one cell.
        Span("codec.decode", w2, 1.0, 2.0),
        Span("metrics.evaluate", w2, 2.0, 4.0),
    ]
    assert sorted(sweep_cells(spans, main)) == [3.0, 3.0, 5.0]


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = run.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == statistics.median(values)
    assert run.spread(values) == (q3 - q1) / q2
    assert run.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert run.spread([2.0, 2.0, 2.0]) == 0.0


def test_failed_check_counts_and_does_not_abort():
    checks = Checks()
    checks.check(True, "fine")
    checks.check(False, "forced failure")
    assert checks.run(lambda: 1 / 0, "division") is None
    assert checks.run(lambda: 5, "value") == 5
    assert (checks.attempted, checks.failed) == (4, 2)
    assert checks.ok_frac == 0.5
    assert checks.messages[0] == "forced failure"
    assert checks.messages[1].startswith("division: ZeroDivisionError")


class _FakeWorkload:
    """Stands in for a workload whose body or check goes wrong."""

    def __init__(self, body_raises: bool, output_ok: bool):
        self.body_raises = body_raises
        self.output_ok = output_ok
        self.cleaned = 0

    def body(self):
        if self.body_raises:
            raise RuntimeError("forced")
        return "out"

    def check(self, outputs, checks):
        checks.check(self.output_ok, "forced output check")
        return 0.5

    def clean(self):
        self.cleaned += 1


def test_forced_failures_count_into_the_run_result():
    checks = Checks()
    wall, chamfer, _ = run.run_iteration(_FakeWorkload(True, True), checks, timed=False)
    assert wall >= 0 and math.isnan(chamfer)
    assert (checks.attempted, checks.failed) == (1, 1)
    wl = _FakeWorkload(False, False)
    _, chamfer, _ = run.run_iteration(wl, checks, timed=True)
    assert chamfer == 0.5 and wl.cleaned == 1
    assert (checks.attempted, checks.failed) == (2, 2)
    run.run_iteration(_FakeWorkload(False, True), checks, timed=False)
    assert (checks.attempted, checks.failed) == (3, 2)
    assert math.isclose(checks.ok_frac, 1 / 3)


SPAN_NAMES = (
    "raycast.build", "raycast.cast", "codec.encode", "codec.write", "codec.read",
    "codec.decode", "poisson.splat", "poisson.divergence", "poisson.solve",
    "poisson.extract", "mcubes.marching_cubes", "metrics.sample", "metrics.icp",
    "metrics.chamfer", "meshio.load", "meshio.save", "sweep.run",
    "cli.encode", "cli.decode", "cli.eval", "cli.views",
)


def _recorder_that_ran(names) -> Recorder:
    rec = Recorder()
    for name in names:
        with rec.span(name) as sp:
            sp.add(faces=1, rays=1, hits=1, iters=1, nodes=1, node_iters=1,
                   points=1, bytes=1)
    return rec


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import json

    from layers import layer_metrics

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # Every layer ran: every listed metric is reported, with its unit.
    reported = layer_metrics(_recorder_that_ran(SPAN_NAMES), threading.get_ident(), 1.0, 1.0, 2)
    assert listed == {name: unit for name, (_, unit) in reported.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_layers_that_did_not_run_report_zero():
    from layers import layer_metrics

    # The layers views_dataset crosses.
    ran = ("cli.views", "raycast.build", "raycast.cast", "codec.encode", "codec.write")
    reported = layer_metrics(_recorder_that_ran(ran), threading.get_ident(), 1.1, 1.0, 2)
    ran_layers = {"raycast", "codec", "cli", "trace"}
    idle = {"cli.encode_s", "cli.decode_s", "cli.eval_s", "codec.read_s", "codec.decode_s",
            "codec.points"}
    for name, (value, _) in reported.items():
        if name.split(".")[0] in ran_layers and name not in idle:
            assert value > 0, name
        else:
            assert value == 0, name
    assert reported["cli.views_s"][0] > 0 and reported["codec.write_s"][0] > 0
    assert math.isclose(reported["trace.overhead_ratio"][0], 1.1)


def test_spread_reports_seeds_whose_work_changed():
    import spread

    def record(seed, hits):
        return {"summary": {"seed": seed, "digest": {"hits": hits}}}

    first = {1: record(1, 10), 2: record(2, 20), 3: record(3, 30)}
    second = {1: record(1, 10), 2: record(2, 21), 4: record(4, 40)}
    assert spread.changed_digests(first, second) == [2]
