"""Re-measure the figures quoted in ROADMAP item 1, with one BLAS thread.

    python3 perfbench/item1_figures.py

Prints one line per figure: the median over repeats of a warm call.  The
two large scans run in fresh processes so that each reports its own peak
resident set.  Private helpers (``_SigmaConstraints``, ``_sides_at_nodes``)
are timed directly because they are the layers the ROADMAP names.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import frbl.cli as cli  # noqa: E402
from frbl import gaussian as fg  # noqa: E402
from frbl import geometry, heatflow  # noqa: E402
from frbl.datum import make_datum  # noqa: E402
from frbl.linalg import SymMatrix  # noqa: E402

import workloads as wl  # noqa: E402


def median_time(fn, repeats=7):
    fn()
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        out.append(time.perf_counter() - start)
    return statistics.median(out)


def lib(d):
    return make_datum(d.in_dims, d.out_dims, d.c, d.d, d.q)


def command(argv):
    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    return run


def scan_3d(n: int) -> None:
    """One three-factor scan at the default times; prints seconds and peak RSS."""
    rng = np.random.default_rng(0)
    lam = np.array([0.2, 0.3, 0.5])
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs = wl.Inputs(Path(tmp))
        datum = inputs.write("d", wl.Datum((1, 1, 1), (1,), lam, (1.0,), [lam]).to_json())
        grids = inputs.write("g", wl.GaussianScan3D(rng, lam, n).grids())
        start = time.perf_counter()
        command(["flow-verify", datum, grids])()
        elapsed = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"flow-verify 3-factor {n}^3 nodes, 3 times: {elapsed:.2f} s, peak RSS {rss:.0f} MB")


def main():
    OUT.mkdir(exist_ok=True)
    if len(sys.argv) == 3 and sys.argv[1] == "--scan":
        scan_3d(int(sys.argv[2]))
        return
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs = wl.Inputs(Path(tmp))
        bundled = [wl.prekopa_leindler(0.5), wl.young_frame(), wl.loomis_whitney(),
                   wl.holder([0.5, 0.5], 1)]
        for d in bundled:
            path = inputs.write("b", d.to_json())
            t_cli = median_time(command(["check", path]))
            t_lib = median_time(lambda: geometry.check_geometric(lib(d)))
            print(f"check {d.in_dims}->{d.out_dims}: cli.main {t_cli * 1e3:.2f} ms, "
                  f"check_geometric {t_lib * 1e3:.2f} ms")
        for label, d, reps in (("slow datum", wl.SLOW, 7), ("hard case", wl.HARD, 1)):
            path = inputs.write("s", d.to_json())
            print(f"check {label}: {median_time(command(['check', path]), reps) * 1e3:.1f} ms")
        for n in (4, 8, 12, 16):
            d = lib(wl.orthogonal_datum(rng, (1,) * n, (n,)))
            t = median_time(lambda: geometry._SigmaConstraints(d))
            print(f"sigma constraint setup, orthogonal {n}x{n} Q: {t * 1e3:.2f} ms")
        slow = lib(wl.SLOW)
        setup = median_time(lambda: geometry._SigmaConstraints(slow))
        search = median_time(lambda: geometry.find_sigma(slow))
        iters = geometry.find_sigma(slow).iterations
        print(f"one projection iteration (slow datum, dim 4): "
              f"{(search - setup) / iters * 1e6:.0f} us over {iters} iterations")

        g1 = fg.CenteredGaussian(SymMatrix([[1.3]]), 0.1)
        print(f"heat_evolve 1x1: {median_time(lambda: fg.heat_evolve(g1, 0.5), 51) * 1e6:.0f} us")
        pl = lib(wl.prekopa_leindler(0.5))
        tup = fg.random_admissible_tuple(pl, rng)
        print(f"relation_check (Prekopa-Leindler): "
              f"{median_time(lambda: fg.relation_check(pl, tup), 51) * 1e6:.0f} us")

        eye1, eye2 = SymMatrix.identity(1), SymMatrix.identity(2)
        xs = np.linspace(-6, 6, 201)
        line = heatflow.GridFunction([-6.0], [6.0], [201], np.exp(-xs**2))
        print(f"heat_step 1-D 201 points, t=1: "
              f"{median_time(lambda: heatflow.heat_step(line, 1.0, eye1)) * 1e3:.2f} ms")
        scan = wl.GaussianScan2D(rng, 401)
        grids = scan.grids()
        f2 = heatflow.grid_from_json(grids["f"][0])
        print(f"heat_step 2-D 401^2, t=1: "
              f"{median_time(lambda: heatflow.heat_step(f2, 1.0, eye2)) * 1e3:.1f} ms")
        young_path = inputs.write("y", wl.young_frame().to_json())
        grid_path = inputs.write("g", grids)
        print(f"flow-verify young frame 401^2, 3 times: "
              f"{median_time(command(['flow-verify', young_path, grid_path]), 5):.3f} s")
        young = lib(wl.young_frame())
        g_grids = [heatflow.grid_from_json(g) for g in grids["g"]]
        axes = f2.axes()
        nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        t = median_time(lambda: heatflow._sides_at_nodes(young, [f2], g_grids, nodes, 0.0))
        print(f"_sides_at_nodes young frame 401^2: {t * 1e3:.1f} ms")
    for n in (101, 161):
        subprocess.run([sys.executable, __file__, "--scan", str(n)], check=True)


if __name__ == "__main__":
    main()
