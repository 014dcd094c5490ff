"""The benchmark's tracer (`perfbench/layers.install`) replaces program
functions at the names their callers bind them to, and a name it cannot
find stops the benchmark. This test runs each command and a sweep the
workloads run, with every wrapper installed, so a renamed or deleted
name fails here as well as in a benchmark run."""

from pathlib import Path

from xray3d import cli, sweep
from xray3d.fixtures import icosphere
from xray3d.meshio import save_mesh

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_wrapper_is_called(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    import layers
    import spans

    registered = set()

    class Recorder(spans.Recorder):
        def wrap(self, module, attr, name, counter=None):
            registered.add(name)
            super().wrap(module, attr, name, counter)

    mesh = icosphere(1)
    save_mesh(mesh, "ico.obj")
    frame = ["--width", "32", "--height", "32"]
    with Recorder(timed=False) as rec:
        layers.install(rec)
        for argv in (["encode", "ico.obj", "ico.xray", *frame],
                     ["decode", "ico.xray", "recon.obj", "--poisson-res", "16"],
                     ["eval", "recon.obj", "ico.obj", "--samples", "256"],
                     ["views", "ico.obj", "--num", "1", "--out-dir", "views", *frame]):
            assert cli.main(argv) == 0, argv
        rows = sweep.run_sweep({"ico": mesh}, [2], [32], views=1, poisson_res=16, n_samples=256)
    assert [row.error for row in rows] == [""]
    missing = sorted(name for name in registered if not rec.totals[name].get("calls"))
    assert registered and not missing, f"wrapped but never called: {missing}"
