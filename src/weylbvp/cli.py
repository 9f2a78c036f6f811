"""Command-line front end: parse a JSON problem config, run one of the
solve/eigen/realize/verify/demo pipelines, and emit a JSON report plus
CSV tables.

Exit codes: 0 success, 1 configuration error (malformed input or flags),
2 mathematical-domain error or failed verification, 3 internal error.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, MathDomainError
from .krein import LinearRelation
from .opfunc import (
    ConstantFunction,
    RationalNevanlinna,
    RepresentationForm,
    default_samples,
    negative_squares,
)
from .realize import realize, verify_realization
from .elliptic import DiscreteElliptic, build_1d, build_2d, direct_solve, elliptic_triple
from .serialize import (decode_int, decode_matrix, decode_real, decode_scalar,
                        decode_space, encode_triple)
from .solver import (
    build_linearization,
    compressed_resolvent,
    eigen_correspondence,
    krein_resolve,
)
from .triple import verify_triple_identities

# ---------------------------------------------------------------------------
# coefficient expressions: arithmetic over x (and y), a few math functions

_ALLOWED_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
                  "sqrt": math.sqrt, "abs": abs, "tanh": math.tanh}
_ALLOWED_BINOPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
                   ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
                   ast.Pow: lambda a, b: a ** b}
_ALLOWED_NAMES = {"pi": math.pi, "e": math.e}


def _compile(node, names):
    """The validated tree as nested closures over the argument tuple: the
    same functions in the same order as a walk of the tree, without the
    dispatch at every point."""
    if isinstance(node, ast.Expression):
        return _compile(node.body, names)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        value = node.value      # an int too large for a float fails per point
        return lambda args: float(value)
    if isinstance(node, ast.Name):
        if node.id in names:
            i = names.index(node.id)
            return lambda args: args[i]
        if node.id in _ALLOWED_NAMES:
            value = _ALLOWED_NAMES[node.id]
            return lambda args: value
        raise ConfigError(f"unknown variable '{node.id}' in coefficient expression")
    if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
        op = _ALLOWED_BINOPS[type(node.op)]
        left, right = _compile(node.left, names), _compile(node.right, names)
        return lambda args: op(left(args), right(args))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile(node.operand, names)
        if isinstance(node.op, ast.USub):
            return lambda args: -operand(args)
        return operand
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _ALLOWED_FUNCS and not node.keywords:
        func = _ALLOWED_FUNCS[node.func.id]
        params = [_compile(a, names) for a in node.args]
        return lambda args: func(*[p(args) for p in params])
    raise ConfigError(f"unsupported syntax in coefficient expression: {ast.dump(node)}")


def make_coefficient(spec, names):
    """Constant or expression string -> callable over the listed variables."""
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, str):
        try:
            tree = ast.parse(spec, mode="eval")
        except SyntaxError as exc:
            raise ConfigError(f"cannot parse coefficient expression: {exc}") from exc
        expr = _compile(tree, list(names))

        def fn(*args):
            try:
                return float(expr(args))
            except (ArithmeticError, ValueError, TypeError) as exc:
                # division by zero, overflow, a math domain error, a bad call
                raise ConfigError(f"coefficient {spec!r} at {args}: {exc}") from exc

        fn(*([0.5] * len(names)))  # validate eagerly
        return fn
    raise ConfigError("coefficient must be a number or an expression string")


# ---------------------------------------------------------------------------
# config parsing


def _reals(data, count: int, name: str) -> tuple:
    """A list of ``count`` finite real numbers."""
    if not (isinstance(data, (list, tuple)) and len(data) == count):
        raise ConfigError(f"{name} must be a list of {count} numbers, got {data!r}")
    return tuple(decode_real(v, f"{name} entry") for v in data)


def parse_problem(cfg) -> DiscreteElliptic:
    if not isinstance(cfg, dict):
        raise ConfigError("'problem' must be an object")
    dim = cfg.get("dim")
    coeff = cfg.get("coeff", {})
    if not isinstance(coeff, dict):
        raise ConfigError("'coeff' must be an object")
    if dim == 1:
        n = decode_int(cfg.get("n", 0), "'n'")
        return build_1d(
            n,
            p=make_coefficient(coeff.get("p", 1.0), ["x"]),
            a=make_coefficient(coeff.get("a", 0.0), ["x"]),
            interval=_reals(cfg.get("interval", (0.0, 1.0)), 2, "'interval'"),
        )
    if dim == 2:
        nx = decode_int(cfg.get("nx", cfg.get("n", 0)), "'nx'")
        ny = decode_int(cfg.get("ny", nx), "'ny'")
        return build_2d(
            nx, ny,
            a11=make_coefficient(coeff.get("a11", 1.0), ["x", "y"]),
            a22=make_coefficient(coeff.get("a22", 1.0), ["x", "y"]),
            a=make_coefficient(coeff.get("a", 0.0), ["x", "y"]),
            rect=_reals(cfg.get("rect", (0.0, 1.0, 0.0, 1.0)), 4, "'rect'"),
        )
    raise ConfigError("problem dim must be 1 or 2")


def _coeff_matrix(entry, g: int) -> np.ndarray:
    """Scalar entries broadcast to scalar multiples of the identity."""
    if isinstance(entry, (int, float)):
        return decode_real(entry, "tau entry") * np.eye(g, dtype=complex)
    return decode_matrix(entry)


def parse_tau(cfg, boundary_dim: int | None):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("'tau' must be an object with a 'kind' field")
    g = boundary_dim if boundary_dim is not None else decode_int(cfg.get("g", 1), "'g'")
    tau = _decode_tau(cfg, g)
    # numpy would broadcast a smaller tau over the boundary without a word
    if boundary_dim is not None and tau.boundary_dim != boundary_dim:
        raise ConfigError(f"tau acts on C^{tau.boundary_dim}, "
                          f"but the boundary has {boundary_dim} channels")
    return tau


def _decode_tau(cfg: dict, g: int):
    """tau of the configured kind; scalar coefficients become multiples of I_g."""
    kind = cfg["kind"]
    if kind == "rational":
        coeffs = [cfg.get(key, []) for key in ("alpha", "beta")]
        if not all(isinstance(c, list) for c in coeffs):
            raise ConfigError("rational tau needs 'alpha' and 'beta' lists")
        alphas, betas = ([_coeff_matrix(e, g) for e in c] for c in coeffs)
        if not alphas:
            raise ConfigError("rational tau needs at least one alpha/beta pair")
        return RationalNevanlinna(alpha=tuple(alphas), beta=tuple(betas))
    if kind == "constant":
        return ConstantFunction(theta=_coeff_matrix(cfg.get("theta", 0.0), g))
    if kind == "representation":
        space = decode_space(cfg)
        if "gamma" not in cfg:
            raise ConfigError("representation tau needs 'gamma'")
        gamma = decode_matrix(cfg["gamma"])
        if "a0_graph" in cfg:
            a0 = LinearRelation.from_graph(space, decode_matrix(cfg["a0_graph"]))
        elif "a0_span" in cfg:
            a0 = LinearRelation.from_span(space, decode_matrix(cfg["a0_span"]))
        else:
            raise ConfigError("representation tau needs 'a0_graph' or 'a0_span'")
        return RepresentationForm(
            space=space, a0=a0,
            gamma=gamma,
            lambda0=decode_scalar(cfg.get("lambda0", [0.0, 1.0]), "'lambda0'"),
            c=decode_matrix(cfg["C"]) if "C" in cfg
            else np.zeros((gamma.shape[1],) * 2),
        )
    raise ConfigError(f"unknown tau kind '{kind}'")


def make_rhs(cfg, de: DiscreteElliptic, seed) -> np.ndarray:
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise ConfigError("'rhs' must be an object")
    kind = cfg.get("kind", "seeded")
    n = de.n_interior
    if kind in ("seeded", "random", "seeded-random"):
        if seed is None:
            raise ConfigError("a seed is required for randomized right-hand sides")
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "expression":
        names = ["x"] if de.dim == 1 else ["x", "y"]
        fn = make_coefficient(cfg.get("expr", "0"), names)
        return np.array([fn(*pt) for pt in de.interior_coords], dtype=complex)
    if kind == "file":
        try:
            vals = np.loadtxt(str(cfg["path"]), dtype=float, delimiter=",", ndmin=2)
        except (KeyError, OSError, ValueError) as exc:
            raise ConfigError(f"cannot read rhs file: {exc}") from exc
        if vals.shape[0] != n or not np.all(np.isfinite(vals)):
            raise ConfigError(f"rhs file needs {n} rows of finite numbers, "
                              f"got {vals.shape[0]} rows")
        return vals[:, 0] + (1j * vals[:, 1] if vals.shape[1] > 1 else 0)
    raise ConfigError(f"unknown rhs kind '{kind}'")


# ---------------------------------------------------------------------------
# output helpers


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_report(out_dir: Path, report: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def write_csv(path: Path, header: list, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_solution(out_dir: Path, de: DiscreteElliptic, f: np.ndarray) -> None:
    coord_cols = ["x"] if de.dim == 1 else ["x", "y"]
    rows = [list(map(float, pt)) + [float(v.real), float(v.imag)]
            for pt, v in zip(de.interior_coords, f)]
    write_csv(out_dir / "solution.csv", coord_cols + ["re_f", "im_f"], rows)


# ---------------------------------------------------------------------------
# actions


def action_solve(cfg, args, out_dir: Path) -> tuple[int, dict]:
    de = parse_problem(cfg.get("problem"))
    et = elliptic_triple(de, _eta_from(cfg))
    tau = parse_tau(cfg.get("tau"), de.n_boundary)
    lam = decode_scalar(cfg.get("lambda", [0.0, 1.0]), "'lambda'")
    g = make_rhs(cfg.get("rhs"), de, _seed_from(cfg, args))
    rep = krein_resolve(et, tau, lam, g)
    f_direct = direct_solve(et, tau, lam, g)
    agree = float(np.linalg.norm(rep.f - f_direct)
                  / max(1.0, np.linalg.norm(f_direct)))
    write_solution(out_dir, de, rep.f)
    report = {
        "action": "solve",
        "lambda": [lam.real, lam.imag],
        "in_U": rep.in_u,
        "sigma_min": rep.sigma_min,
        "residuals": {"pde": rep.pde_residual, "boundary": rep.bc_residual,
                      "oracle_agreement": agree},
        "solution_csv": "solution.csv",
    }
    return 0, report


def _eta_from(cfg):
    eta = cfg["problem"].get("eta", "auto")     # parse_problem checked the object
    return None if eta == "auto" else decode_real(eta, "'eta'")


def _seed_from(cfg, args):
    seed = args.seed if args.seed is not None else cfg.get("seed")
    return None if seed is None else decode_int(seed, "'seed'", least=0)


def _make_linearization(cfg, et, tau, args):
    return build_linearization(et, realize(tau, seed=_seed_from(cfg, args) or 0))


def action_eigen(cfg, args, out_dir: Path) -> tuple[int, dict]:
    de = parse_problem(cfg.get("problem"))
    et = elliptic_triple(de, _eta_from(cfg))
    tau = parse_tau(cfg.get("tau"), de.n_boundary)
    if isinstance(tau, RepresentationForm):
        raise ConfigError("eigen needs a rational or constant tau: the eigenvalue "
                          "count uses the real poles of tau")
    window = _reals(cfg.get("window"), 2, "'window'")
    if not window[0] < window[1]:
        raise ConfigError(f"'window' must have lo < hi, got {list(window)}")
    lin = _make_linearization(cfg, et, tau, args)
    tol = args.tol if args.tol is not None else 1e-6
    corr = eigen_correspondence(lin, et, tau, window, tol=tol)
    write_csv(out_dir / "scan.csv", ["lambda", "count"], corr["counts"])
    write_csv(out_dir / "eigenvalues.csv",
              ["lambda", "pde_residual", "bc_residual"],
              [[e["lambda"], e["pde_residual"], e["bc_residual"]]
               for e in corr["eigenvalues"]])
    report = {
        "action": "eigen",
        "window": list(window),
        "w_symmetry_residual": lin.w_symmetry_residual(),
        "hilbert_state": lin.is_hilbert,
        "eigenvalue_count": len(corr["eigenvalues"]),
        "window_count": corr["window_count"],
        "scan_roots": corr["scan_roots"],
        "correspondence_ok": corr["ok"],
        "failures": corr["failures"],
        "tables": ["eigenvalues.csv", "scan.csv"],
    }
    return (0 if corr["ok"] else 2), report


def action_realize(cfg, args, out_dir: Path) -> tuple[int, dict]:
    tau = parse_tau(cfg.get("tau"), None)
    seed = _seed_from(cfg, args) or 0
    samples = default_samples(tau.boundary_dim, seed=seed, count=10)
    bt = realize(tau, samples=samples, seed=seed)
    ver = verify_realization(bt, tau, samples, seed=seed)
    report = {
        "action": "realize",
        "triple": encode_triple(bt),
        "verification": ver,
        "state_signature": list(bt.state.signature()),
    }
    ok = ver["weyl_residual"] <= 1e-9 and ver["green"] <= 1e-10
    return (0 if ok else 2), report


def action_verify(cfg, args, out_dir: Path) -> tuple[int, dict]:
    de = parse_problem(cfg.get("problem"))
    et = elliptic_triple(de, _eta_from(cfg))
    tau = parse_tau(cfg.get("tau"), de.n_boundary)
    seed = _seed_from(cfg, args) or 0
    tol = args.tol if args.tol is not None else 1e-9
    rng = np.random.default_rng(seed)
    failures = []
    suites: dict = {}

    green = et.bt.green_residual()
    suites["green_residual"] = green
    if green > 1e-10:
        failures.append(f"green identity residual {green:.3e}")

    sample_pts = [complex(rng.uniform(-1, 1), rng.uniform(0.5, 2) * s)
                  for s in (1, -1, 1, -1, 1)]
    data = {lam: et.bt.weyl_data(lam) for lam in sample_pts}
    ids = verify_triple_identities(et.bt, sample_pts, seed=seed, data=data)
    suites["triple_identities"] = ids
    for name, val in ids.items():
        if val > tol:
            failures.append(f"identity {name} residual {val:.3e}")

    closed = 0.0
    for lam in sample_pts:
        m = et.weyl(lam)
        m_generic = data[lam].m_mat
        closed = max(closed, float(np.linalg.norm(m_generic - m, 2)
                                   / max(1.0, np.linalg.norm(m, 2))))
    del data    # its LUs of K_lam would otherwise add to the action's peak memory
    suites["weyl_closed_form_residual"] = closed
    if closed > tol:
        failures.append(f"closed-form Weyl mismatch {closed:.3e}")

    lin = _make_linearization(cfg, et, tau, args)
    suites["w_symmetry_residual"] = lin.w_symmetry_residual()
    if suites["w_symmetry_residual"] > 1e-10:
        failures.append("linearization is not W-selfadjoint")

    probes = [(complex(rng.uniform(-2, 2), rng.uniform(0.5, 2) * (-1) ** k),
               rng.standard_normal(de.n_interior)
               + 1j * rng.standard_normal(de.n_interior)) for k in range(8)]

    oracle = 0.0
    for lam, g in probes:
        f1 = krein_resolve(et, tau, lam, g).f
        f2 = direct_solve(et, tau, lam, g)
        f3 = compressed_resolvent(lin, lam, g)
        scale = max(1.0, float(np.linalg.norm(f1)))
        oracle = max(oracle, max(np.linalg.norm(f1 - f2), np.linalg.norm(f1 - f3)) / scale)
    suites["oracle_agreement"] = float(oracle)
    if oracle > 1e-10:
        failures.append(f"oracle disagreement {oracle:.3e}")

    rsamples = default_samples(tau.boundary_dim, seed=seed, count=10)
    realized = realize(tau, samples=rsamples, seed=seed)
    ver = verify_realization(realized, tau, rsamples, seed=seed)
    suites["realization"] = ver
    if ver["weyl_residual"] > 1e-9:
        failures.append(f"realization Weyl residual {ver['weyl_residual']:.3e}")

    if isinstance(tau, RationalNevanlinna):
        pts = [complex(rng.uniform(-2, 2), rng.uniform(0.3, 2)) for _ in range(4)]
        kappa = negative_squares(tau, pts)
        suites["negative_squares"] = kappa
        if kappa != 0:
            failures.append("rational Nevanlinna kernel showed negative squares")

    report = {"action": "verify", "suites": suites,
              "failures": failures, "ok": not failures}
    return (0 if not failures else 2), report


DEMO_CONFIGS = {
    "constant": {
        "problem": {"dim": 1, "n": 40, "coeff": {"p": 1.0, "a": 0.0}, "eta": "auto"},
        "tau": {"kind": "constant", "theta": 2.0},
        "lambda": [1.0, 1.0],
        "rhs": {"kind": "expression", "expr": "sin(pi*x)"},
        "seed": 7,
    },
    "linear": {
        "problem": {"dim": 1, "n": 40, "coeff": {"p": 1.0, "a": 0.0}, "eta": "auto"},
        "tau": {"kind": "rational", "alpha": [0.0], "beta": [1.0]},
        "lambda": [1.0, 1.0],
        "window": [0.2, 9.0],
        "rhs": {"kind": "seeded"},
        "seed": 7,
    },
    "rational": {
        "problem": {"dim": 1, "n": 40, "coeff": {"p": 1.0, "a": 0.0}, "eta": "auto"},
        "tau": {"kind": "rational", "alpha": [0.0, -2.0], "beta": [1.0, 1.0]},
        "lambda": [1.0, 1.0],
        "window": [0.2, 9.0],
        "rhs": {"kind": "seeded"},
        "seed": 7,
    },
}


def action_demo(cfg, args, out_dir: Path) -> tuple[int, dict]:
    results = {}
    worst = 0
    for name, demo_cfg in DEMO_CONFIGS.items():
        sub = out_dir / name
        code_v, rep_v = action_verify(demo_cfg, args, sub)
        code_s, rep_s = action_solve(demo_cfg, args, sub)
        entry = {"verify": rep_v, "solve": rep_s}
        codes = [code_v, code_s]
        if "window" in demo_cfg:
            code_e, rep_e = action_eigen(demo_cfg, args, sub)
            entry["eigen"] = rep_e
            codes.append(code_e)
        write_report(sub, {"action": "demo", "case": name, **entry})
        results[name] = entry
        worst = max(worst, *codes)
    return worst, {"action": "demo", "cases": results}


ACTIONS = {
    "solve": action_solve,
    "eigen": action_eigen,
    "realize": action_realize,
    "verify": action_verify,
    "demo": action_demo,
}


class _ArgumentParser(argparse.ArgumentParser):
    """A malformed flag is a configuration error (exit 1); argparse's own
    exit code 2 is the one this command gives mathematical-domain errors."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="weylbvp",
        description="Solve elliptic boundary value problems with "
                    "spectral-parameter-dependent boundary conditions.")
    p.add_argument("--config", type=Path, help="JSON problem configuration")
    p.add_argument("--action", choices=sorted(ACTIONS),
                   help="pipeline to run (overrides the config's 'action')")
    p.add_argument("--out", type=Path, default=Path("out"),
                   help="output directory (default: ./out)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized inputs")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.tol is not None:           # a NaN tolerance would pass every check
            decode_real(args.tol, "--tol")
        cfg = {}
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            if not isinstance(cfg, dict):
                raise ConfigError("config must be a JSON object")
        action = args.action or cfg.get("action")
        if action not in ACTIONS:
            raise ConfigError(
                f"action must be one of {sorted(ACTIONS)}, got {action!r}")
        code, report = ACTIONS[action](cfg, args, args.out)
        write_report(args.out, report)
        print(json.dumps({"action": action, "exit": code,
                          "out": str(args.out)}, sort_keys=True))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MathDomainError as exc:
        print(f"math domain error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
