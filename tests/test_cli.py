"""Command-line interface: exit codes, artifacts, and determinism."""

import csv
import dataclasses
import json
import math

import pytest

from weylbvp import BoundaryTriple, ConfigError, DiscreteElliptic, EllipticTriple, KreinSpace
from weylbvp.cli import main, make_coefficient

from oracles import refuse_dense_square


BASE = {
    "problem": {"dim": 1, "n": 25, "coeff": {"p": 1.0, "a": 0.0}, "eta": "auto"},
    "tau": {"kind": "rational", "alpha": [0.0, -2.0], "beta": [1.0, 1.0]},
    "lambda": [1.0, 1.0],
    "window": [0.2, 9.0],
    "rhs": {"kind": "seeded"},
    "seed": 11,
}


def write_cfg(tmp_path, overrides=None, **top):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(top)
    for key, val in (overrides or {}).items():
        cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(tmp_path, cfg_path, action, extra=()):
    out = tmp_path / f"out_{action}"
    code = main(["--config", str(cfg_path), "--action", action,
                 "--out", str(out), *extra])
    return code, out


def test_solve_writes_artifacts(tmp_path):
    code, out = run(tmp_path, write_cfg(tmp_path), "solve")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["residuals"]["oracle_agreement"] <= 1e-10
    with open(out / "solution.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "re_f", "im_f"]
    assert len(rows) == 1 + 25


@pytest.mark.parametrize("columns", [1, 2])
def test_solve_reads_rhs_file(tmp_path, columns):
    # a 1-column file is the real part, a 2-column file (re, im); either
    # solves as the same vector passed in-process
    import numpy as np
    from weylbvp import RationalNevanlinna, build_1d, elliptic_triple, krein_resolve
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((25, columns))
    np.savetxt(tmp_path / "rhs.csv", vals, fmt="%.17g", delimiter=",")
    code, out = run(tmp_path, write_cfg(tmp_path, {"rhs": {
        "kind": "file", "path": str(tmp_path / "rhs.csv")}}), "solve")
    assert code == 0
    g = vals[:, 0] + (1j * vals[:, 1] if columns == 2 else 0)
    tau = RationalNevanlinna(alpha=(np.zeros((2, 2)), -2 * np.eye(2)),
                             beta=(np.eye(2), np.eye(2)))
    rep = krein_resolve(elliptic_triple(build_1d(25)), tau, 1 + 1j, g)
    with open(out / "solution.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [[float(r[1]), float(r[2])] for r in rows] == \
        [[float(v.real), float(v.imag)] for v in rep.f]
    report = json.loads((out / "report.json").read_text())
    assert report["condition_estimate"] == rep.condition_estimate
    assert report["residuals"]["pde"] == rep.pde_residual


def test_solve_at_pole_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, {"lambda": [-2.0, 0.0]})
    code, _ = run(tmp_path, cfg, "solve")
    assert code == 2


def test_solve_outside_solvable_set_exits_2(tmp_path):
    # locate a real point where M(lam) + tau(lam) is singular, then ask the
    # CLI to solve exactly there: it must refuse with the domain exit code
    import numpy as np
    from weylbvp import build_1d, elliptic_triple
    et = elliptic_triple(build_1d(25))
    theta = -float(np.min(np.linalg.eigvalsh(et.weyl_data(8.5).m_mat.real)))
    cfg = write_cfg(tmp_path, {"tau": {"kind": "constant", "theta": theta},
                               "lambda": [8.5, 0.0]})
    code, _ = run(tmp_path, cfg, "solve")
    assert code == 2


def test_solve_gates_the_oracle_agreement(tmp_path, monkeypatch):
    # a direct oracle 1e-6 off the perturbed resolvent is a failed check
    import weylbvp.cli
    direct_solve = weylbvp.cli.direct_solve
    monkeypatch.setattr(weylbvp.cli, "direct_solve",
                        lambda *args: direct_solve(*args) * (1 + 1e-6))
    code, out = run(tmp_path, write_cfg(tmp_path), "solve")
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["residuals"]["oracle_agreement"] > 1e-10
    assert report["failures"] and "oracle" in report["failures"][0]


def svd_callers(monkeypatch):
    """Record the function that calls numpy's or scipy's SVD, directly or
    through a 2-norm (numpy's ``norm`` calls it from its own module)."""
    import sys
    import numpy as np
    import scipy.linalg
    callers = []
    for owner in (np.linalg, np.linalg._linalg, scipy.linalg):
        def recorded(*args, _svd=owner.svd, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return _svd(*args, **kwargs)
        monkeypatch.setattr(owner, "svd", recorded)
    return callers


def test_solve_takes_no_svd(tmp_path, monkeypatch):
    callers = svd_callers(monkeypatch)
    code, _ = run(tmp_path, write_cfg(tmp_path), "solve")
    assert code == 0
    assert callers == []


def test_verify_takes_svds_only_in_rank_decisions(tmp_path, monkeypatch):
    # 2D 15x15 with tau = 2I: every residual and the solvability guard go
    # without an SVD; the three rank decisions of the realized triple keep one
    cfg = write_cfg(tmp_path, {"problem": {"dim": 2, "nx": 15, "ny": 15},
                               "tau": {"kind": "constant", "theta": 2.0}})
    callers = svd_callers(monkeypatch)
    code, _ = run(tmp_path, cfg, "verify")
    assert code == 0
    assert sorted(callers) == ["is_ordinary", "nullspace", "orthonormal_columns"]


def test_solve_next_to_dirichlet_eigenvalue_exits_2(tmp_path, capsys):
    # 1e-6 above the lowest Dirichlet eigenvalue the perturbed resolvent's
    # residuals exceed the routes' tolerance: refused, not reported as solved
    from weylbvp import build_1d
    mu = float(build_1d(30).dirichlet_eigs[0])
    cfg = write_cfg(tmp_path, {"problem": {"dim": 1, "n": 30, "coeff": {"p": 1.0, "a": 0.0}},
                               "lambda": [mu, 1e-6]})
    code, out = run(tmp_path, cfg, "solve")
    assert code == 2
    assert "residual" in capsys.readouterr().err
    assert not (out / "solution.csv").exists()


def test_singular_coupling_matrix_exits_2(tmp_path, capsys):
    # theta = -(B + B^T)/2 cancels the boundary block B = h^d L_BI E_eta in
    # the linearization's coupling matrix C: C is singular, which is a
    # domain error of this valid config, not an internal one
    import numpy as np
    from weylbvp import build_1d, elliptic_triple
    b = elliptic_triple(build_1d(40)).boundary_block
    theta = [[[v, 0.0] for v in row] for row in (-(b + b.T) / 2).tolist()]
    cfg = write_cfg(tmp_path, {"problem": {"dim": 1, "n": 40},
                               "tau": {"kind": "constant", "theta": theta}})
    for action in ("eigen", "verify"):
        code, _ = run(tmp_path, cfg, action)
        assert code == 2
        assert "math domain error" in capsys.readouterr().err


def test_disconnected_boundary_channel_exits_2(tmp_path, capsys):
    # p = 1e-300 leaves every boundary channel numerically uncoupled
    cfg = write_cfg(tmp_path, {"problem": {"dim": 1, "n": 20, "coeff": {"p": 1e-300}}})
    code, _ = run(tmp_path, cfg, "solve")
    assert code == 2
    assert "math domain error" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["solve", "verify"])
def test_singular_sparse_factorization_exits_2(tmp_path, monkeypatch, action):
    # SuperLU reports an exactly singular matrix as a RuntimeError; the
    # direct oracle must turn it into a domain error, not an internal one
    import scipy.sparse.linalg

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    code, _ = run(tmp_path, write_cfg(tmp_path), action)
    assert code == 2


def test_missing_config_exits_1(tmp_path):
    code = main(["--config", str(tmp_path / "missing.json"),
                 "--action", "solve", "--out", str(tmp_path / "o")])
    assert code == 1


def test_malformed_config_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code, _ = run(tmp_path, path, "solve")
    assert code == 1


def test_unknown_action_exits_1(tmp_path):
    cfg = write_cfg(tmp_path)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1  # no action given anywhere


def test_seed_required_for_random_rhs(tmp_path):
    cfg = json.loads(json.dumps(BASE))
    del cfg["seed"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, _ = run(tmp_path, path, "solve")
    assert code == 1


def test_bad_coefficient_expression_exits_1(tmp_path):
    cfg = write_cfg(tmp_path, {"problem": {
        "dim": 1, "n": 10, "coeff": {"p": "__import__('os')"}}})
    code, _ = run(tmp_path, cfg, "solve")
    assert code == 1


@pytest.mark.parametrize("expr, names, plain", [
    ("1+0.5*sin(pi*x)", ["x"], lambda x: 1 + 0.5 * math.sin(math.pi * x)),
    ("exp(-x**2)/sqrt(1+x)", ["x"], lambda x: math.exp(-x ** 2) / math.sqrt(1 + x)),
    ("-x - -3 + +abs(x-0.25)", ["x"], lambda x: -x - -3 + +abs(x - 0.25)),
    ("tanh(x*y) - cos(e*y)**3 + 2", ["x", "y"],
     lambda x, y: math.tanh(x * y) - math.cos(math.e * y) ** 3 + 2),
    ("(x+1)**y / (y+2)", ["x", "y"], lambda x, y: (x + 1) ** y / (y + 2)),
])
def test_coefficient_expression_matches_plain_math(expr, names, plain):
    fn = make_coefficient(expr, names)
    points = [k / 37 for k in range(38)]
    for x in points:
        args = (x,) if len(names) == 1 else (x, 1 - x)
        assert fn(*args) == float(plain(*args))       # bit for bit


def test_coefficient_expression_names_the_failing_point():
    with pytest.raises(ConfigError, match=r"'1/\(x-0\.5\)' at \(0\.5,\): float division"):
        make_coefficient("1/(x-0.5)", ["x"])        # the eager check at 0.5
    fn = make_coefficient("1/(x-0.25)", ["x"])
    with pytest.raises(ConfigError, match=r"at \(0\.25,\): float division by zero"):
        fn(0.25)


def test_report_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    _, out1 = run(tmp_path, cfg, "solve")
    out2 = tmp_path / "second"
    main(["--config", str(cfg), "--action", "solve", "--out", str(out2)])
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_eigen_report_deterministic(tmp_path):
    # the slice eigensolves start from a fixed vector: another eigen action
    # in between leaves the report byte for byte as it was
    cfg = write_cfg(tmp_path, {"problem": {"dim": 2, "nx": 8, "ny": 8}, "window": [0.2, 30.0]})
    other = tmp_path / "other"
    other.mkdir()
    reports = []
    for name in ("first", "second"):
        assert main(["--config", str(cfg), "--action", "eigen", "--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
        assert run(other, write_cfg(other, {"window": [0.2, 60.0]}), "eigen")[0] == 0
    assert reports[0] == reports[1]


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path)
    _, out1 = run(tmp_path, cfg, "solve")
    out2 = tmp_path / "reseeded"
    main(["--config", str(cfg), "--action", "solve", "--out", str(out2),
          "--seed", "99"])
    assert (out1 / "solution.csv").read_bytes() != (out2 / "solution.csv").read_bytes()


def test_eigen_writes_tables(tmp_path):
    code, out = run(tmp_path, write_cfg(tmp_path), "eigen")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["correspondence_ok"] is True
    assert report["scan_roots"]
    with open(out / "eigenvalues.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "pde_residual", "bc_residual"]
    assert len(rows) >= 2
    assert (out / "scan.csv").exists()


def test_verify_passes(tmp_path):
    code, out = run(tmp_path, write_cfg(tmp_path), "verify")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert report["suites"]["negative_squares"] == 0


@pytest.mark.parametrize("tau", [BASE["tau"], {"kind": "constant", "theta": 2.0}],
                         ids=["rational", "constant"])
def test_verify_factors_each_point_once(tmp_path, monkeypatch, tau):
    # the elliptic triple's per-point data (one banded LU) and the realized
    # triple's (one LU of K_lam) are each taken once per point; the
    # realization's Weyl residual reads M(lam) from the data that its
    # identity check takes at the same point.  L_II - lam is factored 15
    # times: once at the shift of the Lanczos run for eta, once for E_eta,
    # at the five samples (their conjugates reuse these factors) and at the
    # eight probes of the perturbed resolvent
    calls = []
    factored = []
    dirichlet_factor = DiscreteElliptic.dirichlet_factor

    def factor(self, lam):
        factored.append(complex(lam))
        return dirichlet_factor(self, lam)

    def counting(cls):
        weyl_data = cls.weyl_data

        def counted(self, lam):
            calls.append((id(self), complex(lam)))
            return weyl_data(self, lam)
        return counted

    for cls in (BoundaryTriple, EllipticTriple):
        monkeypatch.setattr(cls, "weyl_data", counting(cls))
    monkeypatch.setattr(DiscreteElliptic, "dirichlet_factor", factor)
    cfg = write_cfg(tmp_path, {"problem": {"dim": 2, "nx": 6, "ny": 6}, "tau": tau})
    code, out = run(tmp_path, cfg, "verify")
    assert code == 0
    assert json.loads((out / "report.json").read_text())["ok"] is True
    assert len({triple for triple, _ in calls}) == 2
    assert len(calls) == len(set(calls))
    assert len(factored) == len(set(factored)) == 15


ACTION_PROBLEMS = {"1d": {"dim": 1, "n": 25, "coeff": {"p": 1.0, "a": 0.0}},
                   "2d": {"dim": 2, "nx": 6, "ny": 5, "rect": [0.0, 1.0, 0.0, 6 / 7]}}


@pytest.mark.parametrize("problem", sorted(ACTION_PROBLEMS))
def test_no_action_takes_the_full_dirichlet_spectrum(tmp_path, monkeypatch, problem):
    # eta comes from one Lanczos run, the guard from each factor's condition
    # estimate and the count from its bordered matrix: with the band
    # eigensolve refused, every action exits as it does without the patch
    import scipy.linalg
    cfg = write_cfg(tmp_path, {"problem": ACTION_PROBLEMS[problem]})
    actions = ["solve", "eigen", "verify", "realize"]
    expected = [run(tmp_path / "ref", cfg, action)[0] for action in actions]
    assert expected == [0, 0, 0, 0]

    def forbidden(*args, **kwargs):
        raise AssertionError("full Dirichlet eigensolve")

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", forbidden)
    assert [run(tmp_path, cfg, action)[0] for action in actions] == expected
    if problem == "1d":
        assert main(["--action", "demo", "--out", str(tmp_path / "demo")]) == 0


@pytest.mark.parametrize("problem", sorted(ACTION_PROBLEMS))
def test_eigen_takes_no_nonsymmetric_eigensolve(tmp_path, monkeypatch, problem):
    # a constant tau is one selfadjoint extension in H and a rational one a
    # linearization over a Euclidean state: eigen makes one Hermitian
    # eigensolve for either, and no general one
    import numpy as np
    import scipy.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("nonsymmetric eigensolve")

    for owner in (np.linalg, scipy.linalg):
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(owner, name, forbidden)
    for tau in (BASE["tau"], {"kind": "constant", "theta": 2.0}):
        cfg = write_cfg(tmp_path, {"problem": ACTION_PROBLEMS[problem], "tau": tau,
                                   "window": [0.2, 60.0]})
        code, out = run(tmp_path, cfg, "eigen")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["eigenvalue_count"] == report["window_count"] > 0


def test_verify_stays_in_boundary_size(tmp_path, monkeypatch):
    # no dense L_II and no state space of interior size: the elliptic triple
    # is checked through its banded LU
    dims = []
    original = KreinSpace.__post_init__

    def counting(self):
        dims.append(self.dim)
        original(self)

    refuse_dense_square(monkeypatch, 8 * 8)
    monkeypatch.setattr(KreinSpace, "__post_init__", counting)
    cfg = write_cfg(tmp_path, {"problem": {"dim": 2, "nx": 8, "ny": 8}})
    code, out = run(tmp_path, cfg, "verify")
    assert code == 0
    assert json.loads((out / "report.json").read_text())["ok"] is True
    assert dims and 8 * 8 not in dims


def test_verify_catches_a_wrong_closed_form(tmp_path, monkeypatch):
    # the closed-form suite compares the M of the sample points' weyl_data
    # with M from the unreduced Dirichlet problem, so a wrong M fails it.  M
    # is wrong at the first point the action evaluates, its first sample, and
    # right at the later ones, so that the perturbed resolvent's probes solve
    # and the action writes its report
    weyl_data = EllipticTriple.weyl_data
    points = []

    def scaled(self, lam):
        wd = weyl_data(self, lam)
        points.append(lam)
        return dataclasses.replace(wd, m_mat=(1 + 1e-6) * wd.m_mat) if len(points) == 1 else wd

    monkeypatch.setattr(EllipticTriple, "weyl_data", scaled)
    code, out = run(tmp_path, write_cfg(tmp_path), "verify")
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert any(f.startswith("closed-form Weyl mismatch") for f in report["failures"])


def test_realize_roundtrip(tmp_path):
    code, out = run(tmp_path, write_cfg(tmp_path), "realize")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["weyl_residual"] <= 1e-9
    assert "triple" in report


@pytest.mark.parametrize("action", ["verify", "realize"])
def test_a_wrong_realized_gamma_fails_the_action(tmp_path, monkeypatch, action):
    # the realized triple's gamma scaled by 1 + 1e-6 leaves its M, and so the
    # Weyl residual, right and breaks the identities that read gamma
    weyl_data = BoundaryTriple.weyl_data

    def scaled(self, lam):
        wd = weyl_data(self, lam)
        return dataclasses.replace(wd, gamma_mat=(1 + 1e-6) * wd.gamma_mat)

    monkeypatch.setattr(BoundaryTriple, "weyl_data", scaled)
    code, out = run(tmp_path, write_cfg(tmp_path), action)
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    ver = report["suites"]["realization"] if action == "verify" else report["verification"]
    assert ver["weyl_residual"] <= 1e-9 and ver["triple_identities"]["gambar"] > 1e-7
    assert any(f.startswith("realization identity gambar") for f in report["failures"])


def test_every_realization_residual_is_gated():
    from weylbvp.cli import _realization_failures
    good = {"weyl_residual": 1e-15, "green": 1e-15, "a0_selfadjoint_residual": 1e-15,
            "ordinary": True, "triple_identities": dict.fromkeys(["id1", "gambar", "id2", "rep"],
                                                                 1e-15)}
    assert _realization_failures(good, 1e-9) == []
    bad = [("weyl_residual", 2e-9), ("weyl_residual", math.nan), ("green", 2e-10),
           ("a0_selfadjoint_residual", 2e-10), ("ordinary", False)]
    bad += [("triple_identities", {**good["triple_identities"], name: 2e-9})
            for name in good["triple_identities"]]
    for key, value in bad:
        assert len(_realization_failures({**good, key: value}, 1e-9)) == 1, key


def test_demo_runs_all_cases(tmp_path):
    out = tmp_path / "demo"
    code = main(["--action", "demo", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["cases"]) == {"constant", "linear", "rational"}
    for name in ("constant", "linear", "rational"):
        assert (out / name / "solution.csv").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_2d_solve(tmp_path):
    cfg = write_cfg(tmp_path, {
        "problem": {"dim": 2, "nx": 6, "ny": 6, "eta": "auto"},
        "tau": {"kind": "constant", "theta": 1.5},
    })
    code, out = run(tmp_path, cfg, "solve")
    assert code == 0
    with open(out / "solution.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "re_f", "im_f"]
    assert len(rows) == 1 + 36


def _interior_size_arrays(n: int, call):
    """Run call() and return (function, name, shape) of every dense array
    with both dimensions at least n that a weylbvp function holds in a local
    variable or returns."""
    import sys

    import numpy as np

    seen = []

    def hook(frame, event, arg):
        if event != "return" or not frame.f_globals.get("__name__", "").startswith("weylbvp"):
            return
        for name, value in [*frame.f_locals.items(), ("<return>", arg)]:
            if isinstance(value, np.ndarray) and value.ndim == 2 and min(value.shape) >= n:
                seen.append((frame.f_code.co_name, name, value.shape))

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


def test_eigen_and_verify_hold_no_interior_size_dense_array(tmp_path):
    # the linearization is stored sparse and its eigensolve works on sparse
    # slices, so no dense n_I x n_I (or larger) array exists on either action,
    # for a rational tau or a constant one; at 20 x 20 every boundary-size
    # array is narrower than n_I = 400
    for tau in (BASE["tau"], {"kind": "constant", "theta": 2.0}):
        cfg = write_cfg(tmp_path, {"problem": {"dim": 2, "nx": 20, "ny": 20}, "tau": tau,
                                   "window": [0.2, 20.0]})
        for action in ("eigen", "verify"):
            codes = []
            call = lambda: codes.append(run(tmp_path, cfg, action)[0])  # noqa: E731
            assert _interior_size_arrays(400, call) == []
            assert codes == [0]


def test_eigen_exits_2_where_the_count_raises_everywhere(tmp_path, monkeypatch, capsys):
    # the scan moves a window end off points where the count raises a
    # bounded number of times, then gives up with a domain error
    import time

    import weylbvp.solver
    from weylbvp import SpectrumPoint

    def raising(et, tau, x):
        raise SpectrumPoint(f"no count at {x}")

    monkeypatch.setattr(weylbvp.solver, "eigenvalue_count", raising)
    start = time.perf_counter()
    assert run(tmp_path, write_cfg(tmp_path), "eigen")[0] == 2
    assert time.perf_counter() - start < 5.0
    assert "the eigenvalue count is undefined at" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1/(x-0.5)", "10.0**400", "sqrt(x-2)",
                               float("nan"), 1e308])
def test_bad_coefficient_value_exits_1(tmp_path, p, capsys):
    # division by zero, overflow, a math domain error, NaN (which json
    # reads) and a value whose stencil overflows
    cfg = write_cfg(tmp_path, {"problem": {"dim": 1, "n": 10, "coeff": {"p": p}}})
    code, _ = run(tmp_path, cfg, "solve")
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("a", [1e308, -1e308, 1e300])
@pytest.mark.parametrize("problem", [{"dim": 1, "n": 10}, {"dim": 2, "nx": 4, "ny": 4}],
                         ids=["1d", "2d"])
def test_huge_potential_puts_eta_in_the_dirichlet_spectrum(tmp_path, problem, a, capsys):
    # a finite stencil whose eigenvalues are so large in magnitude that the default
    # eta = mu_1 - 1 rounds onto mu_1: the eta-extension's solve refuses it
    cfg = write_cfg(tmp_path, {"problem": {**problem, "coeff": {"a": a}}})
    code, _ = run(tmp_path, cfg, "solve")
    assert code == 2
    assert "Dirichlet spectrum" in capsys.readouterr().err


def test_nonfinite_2d_coefficient_exits_1(tmp_path, capsys):
    # an infinite sample, and a finite one whose stencil overflows: refused
    # with the config error line alone, no numpy warning
    for coeff in ({"a": float("inf")}, {"a11": 1e308}):
        cfg = write_cfg(tmp_path, {"problem": {"dim": 2, "nx": 4, "ny": 4, "coeff": coeff}})
        code, _ = run(tmp_path, cfg, "solve")
        assert code == 1
        assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize("flags", [["--seed", "abc"], ["--workers", "2"],
                                   ["--tol", "nan"], ["--tol", "0"], ["--tol", "-1"],
                                   ["--seed", "-1"]])
def test_bad_flag_exits_1(tmp_path, flags, capsys):
    # a value of the wrong type, a flag the command does not have (a removed
    # flag ends here too), a NaN tolerance (every check would pass), one that
    # is not positive (every check would fail) and a negative seed; argparse
    # alone would exit 2 or accept them
    cfg = write_cfg(tmp_path)
    code, _ = run(tmp_path, cfg, "solve", flags)
    assert code == 1
    assert "config error" in capsys.readouterr().err


REPRESENTATION = {"kind": "representation", "dim": 1, "a0_graph": [[[0.0, 0.0]]],
                  "gamma": [[[1.0, 0.0], [1.0, 0.0]]]}


@pytest.mark.parametrize("missing", ["dim", "gamma"])
def test_representation_tau_missing_field_exits_1(tmp_path, missing, capsys):
    tau = {k: v for k, v in REPRESENTATION.items() if k != missing}
    code, _ = run(tmp_path, write_cfg(tmp_path, {"tau": tau}), "solve")
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_representation_tau_solves(tmp_path):
    code, _ = run(tmp_path, write_cfg(tmp_path, {"tau": REPRESENTATION}), "solve")
    assert code == 0


def test_reversed_rect_exits_1_for_its_sign(tmp_path, capsys):
    # hx = hy < 0 passes the equal-spacing test; the sign is checked first
    cfg = write_cfg(tmp_path, {"problem": {"dim": 2, "nx": 4, "ny": 4,
                                           "rect": [1.0, 0.0, 1.0, 0.0]}})
    code, _ = run(tmp_path, cfg, "solve")
    assert code == 1
    assert "spacing must be positive" in capsys.readouterr().err


def test_eigen_window_ending_at_pole(tmp_path):
    # tau has its pole at -2, the window's lower end
    code, out = run(tmp_path, write_cfg(tmp_path, {"window": [-2.0, 9.0]}), "eigen")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["correspondence_ok"] is True
    assert report["window_count"] == report["eigenvalue_count"] == \
        len(report["scan_roots"]) == 2


def test_eigen_scan_table_lists_counts(tmp_path):
    code, out = run(tmp_path, write_cfg(tmp_path), "eigen")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    with open(out / "scan.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "count"]
    xs = [float(r[0]) for r in rows[1:]]
    counts = [int(r[1]) for r in rows[1:]]
    assert xs == sorted(xs) and counts == sorted(counts)
    assert xs[0] <= 0.2 and xs[-1] >= 9.0
    assert counts[-1] - counts[0] == report["window_count"] == len(report["scan_roots"])
    # the certificate's points: both ends and one point between each pair of
    # (here simple) eigenvalues, every one a jump of 1 apart
    assert len(xs) == report["window_count"] + 1
    assert all(b - a == 1 for a, b in zip(counts, counts[1:]))


def test_eigen_2d_exits_0(tmp_path):
    # each corner is one boundary channel, so L_IB has no kernel and every
    # eigenvalue in the window has an eigenvector with an interior part
    cfg = write_cfg(tmp_path, {"problem": {"dim": 2, "nx": 6, "ny": 6, "eta": "auto"}})
    code, out = run(tmp_path, cfg, "eigen")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["correspondence_ok"] is True and report["failures"] == []
    assert report["eigenvalue_count"] == report["window_count"] == len(report["scan_roots"])
    assert report["eigenvalue_count"] > 0


def test_reversed_interval_exits_1(tmp_path, capsys):
    # h < 0 would make the quadrature weight negative
    cfg = write_cfg(tmp_path, {"problem": {"dim": 1, "n": 10, "interval": [1.0, 0.0]}})
    code, _ = run(tmp_path, cfg, "solve")
    assert code == 1
    assert "spacing" in capsys.readouterr().err


def _base_with(**entries):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(entries)
    return cfg


def _problem_with(**entries):
    return _base_with(problem={**BASE["problem"], **entries})


NAN, INF = float("nan"), float("inf")
BAD_CONFIGS = {
    "lambda-nan": ("solve", _base_with(**{"lambda": [NAN, 1.0]})),
    "lambda-inf": ("solve", _base_with(**{"lambda": INF})),
    "eta-nan": ("solve", _problem_with(eta=NAN)),
    "eta-string": ("solve", _problem_with(eta="x")),
    "window-nan": ("eigen", _base_with(window=[NAN, 9.0])),
    "window-inf": ("eigen", _base_with(window=[0.2, INF])),
    "window-strings": ("eigen", _base_with(window=["0.2", "9"])),
    "window-reversed": ("eigen", _base_with(window=[9.0, 0.2])),
    # a 1x1 tau on the two boundary nodes of a 1D problem would broadcast
    "theta-1x1": ("solve", _base_with(tau={"kind": "constant",
                                           "theta": [[[2.0, 0.0]]]})),
    "rational-1x1": ("solve", _base_with(tau={
        "kind": "rational", "alpha": [[[[0.0, 0.0]]], [[[-2.0, 0.0]]]],
        "beta": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]})),
    "alpha-not-list": ("solve", _base_with(tau={"kind": "rational", "alpha": 3,
                                                "beta": [1.0]})),
    "beta-not-list": ("solve", _base_with(tau={"kind": "rational", "alpha": [0.0],
                                               "beta": 1.0})),
    "eigen-representation-tau": ("eigen", _base_with(tau=REPRESENTATION)),
    "alpha-nan": ("solve", _base_with(tau={"kind": "rational", "alpha": [NAN],
                                           "beta": [1.0]})),
    "theta-nan": ("solve", _base_with(tau={"kind": "constant", "theta": NAN})),
    "n-string": ("solve", _problem_with(n="abc")),
    "coeff-not-object": ("solve", _problem_with(coeff=[1.0])),
    "rhs-not-object": ("solve", _base_with(rhs="seeded")),
    "config-not-object": ("solve", [BASE]),
    "rhs-file-missing": ("solve", _base_with(rhs={"kind": "file",
                                                  "path": "missing-rhs.csv"})),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_value_exits_1(tmp_path, monkeypatch, case, capsys):
    # a non-finite number, a value of the wrong type, a reversed window or
    # an unreadable file is a configuration error, not an internal one
    action, cfg = BAD_CONFIGS[case]
    monkeypatch.chdir(tmp_path)            # where the missing rhs file is not
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, _ = run(tmp_path, path, action)
    assert code == 1
    assert "config error" in capsys.readouterr().err
