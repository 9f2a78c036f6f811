"""weylbvp benchmark: three workloads driven through the package's public API.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload sweep-2d20 --seed 1 --seconds 40 --trace 0

Each run is single-process and closed-loop: the next operation starts when
the previous one has returned.  A run repeats the workload's operation for
``--seconds`` seconds of operation time and sets the problem up
``SETUPS`` times, spread evenly between the operations (``setup_s`` is
their median).  Every operation passes a correctness gate;
failures are counted, never raised.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
loop with ``layertrace.Tracer`` installed, reports the per-layer metrics for
one set-up plus one operation, and writes all spans to
``perfbench/out/trace-<workload>-s<seed>.json``.  See ``perfbench/README.md``
for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
AGREE_TOL = 1e-10
# One BLAS thread (within nproc): with two, on a shared two-core host,
# eigen-1d399 runs at the same code differed by up to 16%.
BLAS_THREADS = 1
# Set-ups per run; setup_s is their median.
SETUPS = 10

# BLAS reads its thread count when numpy is first imported, so pin it here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

RATIONAL_TAU = {"kind": "rational", "alpha": [0.0, -2.0], "beta": [1.0, 1.0]}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "sweep", "eigen" or "verify"
    problem: dict
    tau: dict
    window: tuple = ()          # eigen: real search window
    expect_eigs: int = 0        # eigen: linearization eigenvalues in the window


WORKLOADS = {w.name: w for w in (
    Workload("sweep-2d20", "sweep",
             {"dim": 2, "nx": 20, "ny": 20}, RATIONAL_TAU),
    Workload("eigen-1d399", "eigen",
             {"dim": 1, "n": 399, "coeff": {"p": "1+0.5*sin(pi*x)"}}, RATIONAL_TAU,
             window=(0.2, 120.0), expect_eigs=4),
    Workload("verify-2d15", "verify",
             {"dim": 2, "nx": 15, "ny": 15}, {"kind": "constant", "theta": 2.0}),
)}


def _import_weylbvp() -> float:
    """Import the package from the checkout's ``src`` and return the seconds taken."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import weylbvp.cli  # noqa: F401
    return time.perf_counter() - t0


def make_config(wl: Workload, seed: int) -> dict:
    """The workload's CLI config.  The seed drives the sweep's request stream
    and the verify action's sample points; the eigen problem is fixed, so
    that its cost and its scan outcome do not vary with the seed."""
    cfg = {"problem": wl.problem, "tau": wl.tau, "seed": seed}
    if wl.kind == "eigen":
        cfg["window"] = list(wl.window)
        cfg["grid"] = 400
    return cfg


def sweep_requests(seed: int, n: int):
    """Endless seeded stream of (lambda, g): nonreal lambda alternating half-planes."""
    rng = np.random.default_rng(seed)
    k = 0
    while True:
        lam = complex(rng.uniform(-5.0, 60.0), (-1) ** k * rng.uniform(0.5, 5.0))
        yield lam, rng.standard_normal(n) + 1j * rng.standard_normal(n)
        k += 1


def wb(module: str):
    """A weylbvp module, looked up at call time so that tracing wrappers apply.

    (``weylbvp.realize`` the attribute is the function, not the module.)"""
    return sys.modules[f"weylbvp.{module}"]


def setup(config_path: Path, seed: int):
    """parse config -> parse_problem -> elliptic_triple -> parse_tau -> linearization."""
    cli, elliptic, solver = wb("cli"), wb("elliptic"), wb("solver")
    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    de = cli.parse_problem(cfg["problem"])
    et = elliptic.elliptic_triple(de, None)
    tau = cli.parse_tau(cfg["tau"], de.n_boundary)
    if isinstance(tau, wb("opfunc").RationalNevanlinna):
        lin = solver.build_linearization_rational(de, tau, et.eta)
    else:
        lin = solver.build_linearization(et, wb("realize").realize(tau, seed=seed))
    return et, tau, lin


def solve_three_routes(state, lam: complex, g: np.ndarray):
    """One sweep request: the perturbed resolvent, the direct oracle and the
    compressed resolvent of the linearization."""
    et, tau, lin = state
    elliptic, solver = wb("elliptic"), wb("solver")
    f1 = solver.krein_resolve(et, tau, lam, g).f
    f2 = elliptic.direct_solve(et, tau, lam, g)
    f3 = solver.compressed_resolvent(lin, lam, g)
    return f1, f2, f3


def agreement(f1, f2, f3) -> float:
    """Relative three-route disagreement, as ``weylbvp verify`` measures it."""
    scale = max(1.0, float(np.linalg.norm(f1)))
    return max(float(np.linalg.norm(f1 - f2)), float(np.linalg.norm(f1 - f3))) / scale


class Run:
    """State of one benchmark run: timings, gate results and diagnostics."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(make_config(wl, seed)), encoding="utf-8")
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.worst_agreement = 0.0
        self.root_ratios: list[float] = []
        self.state = None
        self.requests = None
        self.setups_run = self.ops_run = 0

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def do_setup(self) -> float | None:
        """Set the problem up once; return its wall time, or None if it raised."""
        # one live problem at a time keeps the peak-memory figure steady
        self.state = None
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.state = setup(self.config_path, self.seed)
        except Exception as exc:  # noqa: BLE001 - counted by the gate
            self._fail(f"setup: {type(exc).__name__}: {exc}")
            return None
        return time.perf_counter() - t0

    def do_op(self) -> float | None:
        """Run one operation; return its wall time, or None if it failed the gate."""
        if self.wl.kind == "sweep":
            if self.state is None:
                self.attempted += 1
                self._fail("request: no successful set-up")
                return None
            if self.requests is None:
                self.requests = sweep_requests(self.seed, self.state[0].de.n_interior)
            lam, g = next(self.requests)
            return self.sweep_op(lam, g)
        return self.cli_op()

    def sweep_op(self, lam: complex, g: np.ndarray) -> float | None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            routes = solve_three_routes(self.state, lam, g)
        except Exception as exc:  # noqa: BLE001 - counted by the gate
            self._fail(f"request at lambda={lam}: {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        agree = agreement(*routes)
        if not agree <= AGREE_TOL:
            self._fail(f"request at lambda={lam}: routes disagree by {agree:.3e}")
            return None
        self.worst_agreement = max(self.worst_agreement, agree)
        return dt

    def cli_op(self) -> float | None:
        self.attempted += 1
        out_dir = self.workdir / "out"
        argv = ["--config", str(self.config_path), "--action", self.wl.kind,
                "--out", str(out_dir), "--seed", str(self.seed)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = wb("cli").main(argv)
        dt = time.perf_counter() - t0
        if code != 0:
            self._fail(f"{self.wl.kind}: exit {code}: {sink.getvalue().strip()[-200:]}")
            return None
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        if self.wl.kind == "verify":
            if report.get("ok") is not True:
                self._fail(f"verify: not ok: {report.get('failures')}")
                return None
            return dt
        count = report.get("eigenvalue_count")
        if report.get("correspondence_ok") is not True or count != self.wl.expect_eigs:
            self._fail(f"eigen: correspondence_ok={report.get('correspondence_ok')} "
                       f"eigenvalues={count} (expected {self.wl.expect_eigs})")
            return None
        self.root_ratios.append(len(report["scan_roots"]) / count)
        return dt

    def loop(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Closed loop for ``seconds`` of operation time, with the workload's
        set-ups spread evenly between the operations so that both sample the
        same stretch of machine time.  Returns (set-up times, operation times);
        failed attempts are counted, not timed."""
        setup_times: list[float] = []
        times: list[float] = []
        n_setups = n_ops = 0
        busy = 0.0

        def set_up_to(target: int) -> None:
            nonlocal n_setups
            while n_setups < target:
                if tracer is not None:
                    tracer.op = ("setup", n_setups)
                dt = self.do_setup()
                n_setups += 1
                if dt is not None:
                    setup_times.append(dt)

        while True:
            set_up_to(max(1, math.ceil(SETUPS * min(1.0, busy / seconds))))
            if tracer is not None:
                tracer.op = ("op", n_ops)
            t0 = time.perf_counter()
            dt = self.do_op()
            busy += time.perf_counter() - t0
            n_ops += 1
            if dt is not None:
                times.append(dt)
            if not times or busy + statistics.median(times) > seconds:
                break
        set_up_to(SETUPS)
        if tracer is not None:
            tracer.op = None
        self.setups_run, self.ops_run = n_setups, n_ops
        return setup_times, times


def tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (the maximum
    when a run holds ten or fewer samples), with a label stating the base."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], f"max of {n}"
    return s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}, 10 beyond"


def machine_facts() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _blas_threads() -> str:
    """Thread count numpy's bundled OpenBLAS reports, or the pinned setting,
    labelled as such, when that count cannot be read."""
    import ctypes
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    lib = next(libdir.glob("libscipy_openblas*"), None)
    if lib is not None:
        try:
            return str(int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()))
        except (OSError, AttributeError):   # an OpenBLAS build with other symbol names
            pass
    return f"{BLAS_THREADS} (pinned)"


OP_NAMES = {"sweep": ("solve", "request"), "eigen": ("eigen", "eigen action"),
            "verify": ("verify", "verify action")}


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path = OUT) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and human-readable lines."""
    import_s = _import_weylbvp()
    facts = machine_facts()
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        run = Run(wl, seed, Path(tmp))
        if not trace:
            metrics, lines = end_to_end(run, *run.loop(seconds))
        else:
            metrics, lines = traced(run, seconds, import_s, out_dir)
    lines.insert(0, f"# workload {wl.name} seed {seed} seconds {seconds:g} "
                    f"trace {int(trace)}: {json.dumps(facts, sort_keys=True)}")
    base = f"{run.failed} of {run.attempted} operations"
    lines.append(f"failed_frac {run.failed / run.attempted:.4g} ({base})")
    lines.extend(f"# failure: {e}" for e in run.errors)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, lines


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_times, times) -> tuple[dict, list[str]]:
    label, what = OP_NAMES[run.wl.kind]
    lines = []
    metrics = {"peak_rss_mb": _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
    if setup_times:
        metrics["setup_s"] = _metric(statistics.median(setup_times), "s")
        lines.append(f"setup_s {metrics['setup_s']['value']:.4f} s "
                     f"(median of {len(setup_times)} set-ups)")
    if times:
        p50 = 1000.0 * statistics.median(times)
        tail_s, tail_label = tail(times)
        metrics["op_p50_ms"] = _metric(p50, "ms")
        metrics["op_tail_ms"] = _metric(1000.0 * tail_s, "ms")
        if run.wl.kind == "sweep":
            lines.append(f"solve_p50_ms {p50:.3f} ms (median of {len(times)} requests)")
            lines.append(f"solve_tail_ms {1000.0 * tail_s:.3f} ms ({tail_label})")
            lines.append(f"worst_agreement {run.worst_agreement:.3e} (diagnostic, gate "
                         f"{AGREE_TOL:g})")
        else:
            lines.append(f"{label}_s {p50 / 1000.0:.4f} s (median of {len(times)} {what}s; "
                         f"tail {1000.0 * tail_s:.1f} ms, {tail_label})")
        if run.root_ratios:
            lines.append(f"scan_root_ratio {statistics.mean(run.root_ratios):.4g} "
                         f"(diagnostic: scan roots / linearization eigenvalues in the window)")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    return metrics, lines


# per-layer metric -> span names whose self times (or calls) it sums
LAYER_SPANS = {
    "cli.io": ["cli.write_report", "cli.write_csv", "cli.write_solution"],
    "elliptic.build": ["elliptic.build_1d", "elliptic.build_2d"],
    "elliptic.triple": ["elliptic.elliptic_triple"],
    "elliptic.weyl": ["elliptic.EllipticTriple.weyl"],
    "elliptic.gamma": ["elliptic.EllipticTriple.gamma"],
    "elliptic.direct_solve": ["elliptic.direct_solve"],
    "krein.space": ["krein.KreinSpace.__post_init__"],
    "krein.resolvent": ["krein.LinearRelation.resolvent"],
    "triple.weyl_data": ["triple.BoundaryTriple.weyl_data"],
    "triple.verify_identities": ["triple.verify_triple_identities"],
    "opfunc.eval": ["opfunc.ConstantFunction.eval", "opfunc.RationalNevanlinna.eval",
                    "opfunc.RepresentationForm.eval"],
    "realize.realize": ["realize.realize", "realize.realize_rational",
                        "realize.realize_constant", "realize.realize_strict",
                        "realize.couple"],
    "realize.verify_realization": ["realize.verify_realization"],
    "solver.krein_resolve": ["solver.krein_resolve"],
    "solver.compressed_resolvent": ["solver.compressed_resolvent"],
    "solver.linearization": ["solver.build_linearization",
                             "solver.build_linearization_rational"],
    "solver.margin": ["solver.solvability_margin"],
    "solver.scan": ["solver.homogeneous_scan"],
    "solver.eigenpairs": ["solver.Linearization.eigenpairs", "solver.Linearization.symmetrized",
                          "solver.Linearization.is_hilbert"],
}
LAYER_METRICS = [
    "cli.io_ms",
    "elliptic.build_s", "elliptic.triple_s", "elliptic.triple_calls", "elliptic.weyl_ms",
    "elliptic.weyl_calls", "elliptic.gamma_ms", "elliptic.direct_solve_ms",
    "krein.space_ms", "krein.space_calls", "krein.resolvent_ms", "krein.resolvent_calls",
    "triple.weyl_data_ms", "triple.weyl_data_calls", "triple.verify_identities_s",
    "opfunc.eval_calls",
    "realize.realize_s", "realize.verify_realization_s",
    "solver.krein_resolve_ms", "solver.compressed_resolvent_ms", "solver.linearization_s",
    "solver.margin_ms", "solver.margin_calls", "solver.scan_s", "solver.eigenpairs_s",
]


# lapack.eig.* is traced but not listed: eig/eigvals run only for a non-Hilbert
# Linearization.eigenpairs, which no workload reaches, so it reads 0 everywhere.
KERNEL_METRICS = ("svd", "solve", "lstsq", "pinv", "eigh", "inv", "norm2")


def traced(run: Run, seconds: float, import_s: float,
           out_dir: Path) -> tuple[dict, list[str]]:
    from layertrace import Tracer, wrapper_costs
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_ops = run.loop(seconds, tracer)
    finally:
        tracer.uninstall()
    n_setups, n_ops = run.setups_run, run.ops_run

    def per_unit(table: dict, key, col: int) -> float:
        """Sum over one set-up plus one operation (phase averages)."""
        return (table.get(key("setup"), (0, 0, 0))[col] / n_setups
                + table.get(key("op"), (0, 0, 0))[col] / n_ops)

    selfs = dict(tracer.self_times())
    metrics = {"cli.import_s": _metric(import_s, "s")}
    for name in LAYER_METRICS:
        layer, stat = name.rsplit("_", 1)
        col, scale, unit = {"s": (1, 1.0, "s"), "ms": (1, 1000.0, "ms"),
                            "calls": (0, 1.0, "count")}[stat]
        value = sum(per_unit(selfs, lambda ph, s=s: (s, ph), col)
                    for s in LAYER_SPANS[layer])
        metrics[name] = _metric(_exact(value * scale), unit)
    kernels: dict = {}
    for (family, _, phase), entry in tracer.kernels.items():
        acc = kernels.setdefault((family, phase), [0, 0, 0.0])
        for i in range(3):
            acc[i] += entry[i]
    for family in KERNEL_METRICS:
        metrics[f"lapack.{family}.calls"] = _metric(
            _exact(per_unit(kernels, lambda ph: (family, ph), 0)), "count")
        metrics[f"lapack.{family}.work"] = _metric(
            _exact(per_unit(kernels, lambda ph: (family, ph), 1)), "mn-min-computed")
    ratio = statistics.mean(run.root_ratios) if run.root_ratios else 0.0
    metrics["solver.scan_root_ratio"] = _metric(ratio, "ratio")

    # Whole traced and untraced runs differ mostly by host drift, so the
    # overhead is what one wrapper adds to a call (traced minus untraced, in
    # this process) times the number of wrapped calls.
    span_s, kernel_s = wrapper_costs()
    spans, kernel_calls = (sum(per_unit(table, lambda ph, k=k: (k, ph), 0)
                               for k in {k for k, _ in table})
                           for table in (selfs, kernels))
    overhead = 1000.0 * (spans * span_s + kernel_calls * kernel_s)
    metrics["trace.overhead_ms"] = _metric(overhead, "ms")

    trace_path = out_dir / f"trace-{run.wl.name}-s{run.seed}.json"
    tracer.write(trace_path, {"workload": run.wl.name, "seed": run.seed,
                              "setups": n_setups, "ops": n_ops})
    lines = [f"# per-layer values are for one set-up plus one operation "
             f"({n_setups} traced set-ups, {n_ops} traced operations); spans in {trace_path}"]
    if traced_ops:
        lines.append(f"trace.overhead_ms {overhead:.4f} ms per set-up plus operation: "
                     f"{spans:.6g} spans at {1e6 * span_s:.3f} us and {kernel_calls:.6g} "
                     f"kernel calls at {1e6 * kernel_s:.3f} us "
                     f"({100.0 * overhead / (1000.0 * statistics.median(traced_ops)):.3f}% "
                     f"of the traced median operation)")
    for name in sorted(metrics):
        lines.append(f"{name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    # kernel counts by the innermost span that issued them, per set-up plus operation
    for family, span in sorted({(f, n) for f, n, _ in tracer.kernels}):
        calls, work = (_exact(per_unit(tracer.kernels, lambda ph: (family, span, ph), col))
                       for col in (0, 1))
        lines.append(f"lapack.{family} in {span}: {calls:.6g} calls, work {work:.6g}")
    return metrics, lines


def _exact(value: float):
    """Counts that average to a whole number are reported as integers."""
    return int(value) if float(value).is_integer() else value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "weylbvp" / "__init__.py").is_file():
        print(f"benchmark: no weylbvp sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    result, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
