"""Command-line front end: parse a JSON problem config, run one of the
solve/eigen/realize/verify/demo pipelines, and emit a JSON report plus
CSV tables.

Exit codes: 0 success, 1 configuration error, 2 mathematical-domain error
or failed verification, 3 internal error.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, MathDomainError, WeylbvpError
from .krein import KreinSpace, LinearRelation
from .opfunc import (
    ConstantFunction,
    RationalNevanlinna,
    RepresentationForm,
    default_samples,
    negative_squares,
)
from .realize import realize, verify_realization
from .elliptic import DiscreteElliptic, build_1d, build_2d, direct_solve, elliptic_triple
from .serialize import decode_matrix, decode_scalar, encode_matrix, encode_triple
from .solver import (
    build_linearization,
    build_linearization_rational,
    compressed_resolvent,
    eigen_correspondence,
    homogeneous_scan,
    krein_resolve,
    solvability_margin,
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


def _eval_node(node, env):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        if node.id in _ALLOWED_NAMES:
            return _ALLOWED_NAMES[node.id]
        raise ConfigError(f"unknown variable '{node.id}' in coefficient expression")
    if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
        return _ALLOWED_BINOPS[type(node.op)](
            _eval_node(node.left, env), _eval_node(node.right, env))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_node(node.operand, env)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _ALLOWED_FUNCS and not node.keywords:
        args = [_eval_node(a, env) for a in node.args]
        return _ALLOWED_FUNCS[node.func.id](*args)
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

        def fn(*args):
            return float(_eval_node(tree, dict(zip(names, args))))

        fn(*([0.5] * len(names)))  # validate eagerly
        return fn
    raise ConfigError("coefficient must be a number or an expression string")


# ---------------------------------------------------------------------------
# config parsing


def parse_problem(cfg) -> DiscreteElliptic:
    if not isinstance(cfg, dict):
        raise ConfigError("'problem' must be an object")
    dim = cfg.get("dim")
    coeff = cfg.get("coeff", {})
    if dim == 1:
        n = int(cfg.get("n", 0))
        return build_1d(
            n,
            p=make_coefficient(coeff.get("p", 1.0), ["x"]),
            a=make_coefficient(coeff.get("a", 0.0), ["x"]),
            interval=tuple(cfg.get("interval", (0.0, 1.0))),
        )
    if dim == 2:
        nx = int(cfg.get("nx", cfg.get("n", 0)))
        ny = int(cfg.get("ny", nx))
        return build_2d(
            nx, ny,
            a11=make_coefficient(coeff.get("a11", 1.0), ["x", "y"]),
            a22=make_coefficient(coeff.get("a22", 1.0), ["x", "y"]),
            a=make_coefficient(coeff.get("a", 0.0), ["x", "y"]),
            rect=tuple(cfg.get("rect", (0.0, 1.0, 0.0, 1.0))),
        )
    raise ConfigError("problem dim must be 1 or 2")


def _coeff_matrix(entry, g: int) -> np.ndarray:
    """Scalar entries broadcast to scalar multiples of the identity."""
    if isinstance(entry, (int, float)):
        return float(entry) * np.eye(g, dtype=complex)
    return decode_matrix(entry)


def parse_tau(cfg, boundary_dim: int | None):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("'tau' must be an object with a 'kind' field")
    kind = cfg["kind"]
    g = boundary_dim if boundary_dim is not None else int(cfg.get("g", 1))
    if kind == "rational":
        alphas = [_coeff_matrix(a, g) for a in cfg.get("alpha", [])]
        betas = [_coeff_matrix(b, g) for b in cfg.get("beta", [])]
        if not alphas:
            raise ConfigError("rational tau needs at least one alpha/beta pair")
        return RationalNevanlinna(alpha=tuple(alphas), beta=tuple(betas))
    if kind == "constant":
        return ConstantFunction(theta=_coeff_matrix(cfg.get("theta", 0.0), g))
    if kind == "representation":
        gram = decode_matrix(cfg["gram"]) if "gram" in cfg else None
        j = decode_matrix(cfg["J"]) if "J" in cfg else None
        space = KreinSpace(int(cfg["dim"]), gram=gram, j=j)
        if "a0_graph" in cfg:
            a0 = LinearRelation.from_graph(space, decode_matrix(cfg["a0_graph"]))
        elif "a0_span" in cfg:
            a0 = LinearRelation.from_span(space, decode_matrix(cfg["a0_span"]))
        else:
            raise ConfigError("representation tau needs 'a0_graph' or 'a0_span'")
        return RepresentationForm(
            space=space, a0=a0,
            gamma=decode_matrix(cfg["gamma"]),
            lambda0=decode_scalar(cfg.get("lambda0", [0.0, 1.0])),
            c=decode_matrix(cfg["C"]) if "C" in cfg
            else np.zeros((decode_matrix(cfg["gamma"]).shape[1],) * 2),
        )
    raise ConfigError(f"unknown tau kind '{kind}'")


def make_rhs(cfg, de: DiscreteElliptic, seed) -> np.ndarray:
    cfg = cfg or {"kind": "seeded"}
    kind = cfg.get("kind", "seeded")
    n = de.n_interior
    if kind in ("seeded", "random", "seeded-random"):
        if seed is None:
            raise ConfigError("a seed is required for randomized right-hand sides")
        rng = np.random.default_rng(int(seed))
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "expression":
        names = ["x"] if de.dim == 1 else ["x", "y"]
        fn = make_coefficient(cfg.get("expr", "0"), names)
        return np.array([fn(*pt) for pt in de.interior_coords], dtype=complex)
    if kind == "file":
        vals = np.loadtxt(cfg["path"], dtype=float, delimiter=",", ndmin=2)
        if vals.shape[0] != n:
            raise ConfigError(f"rhs file has {vals.shape[0]} rows, expected {n}")
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
    lam = decode_scalar(cfg.get("lambda", [0.0, 1.0]))
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
    eta = cfg.get("problem", {}).get("eta", "auto")
    return None if eta == "auto" else float(eta)


def _seed_from(cfg, args):
    if args.seed is not None:
        return args.seed
    return cfg.get("seed")


def _make_linearization(cfg, de, et, tau, args):
    if isinstance(tau, RationalNevanlinna):
        return build_linearization_rational(de, tau, et.eta)
    seed = _seed_from(cfg, args) or 0
    realized = realize(tau, seed=int(seed))
    return build_linearization(et, realized)


def action_eigen(cfg, args, out_dir: Path) -> tuple[int, dict]:
    de = parse_problem(cfg.get("problem"))
    et = elliptic_triple(de, _eta_from(cfg))
    tau = parse_tau(cfg.get("tau"), de.n_boundary)
    window = cfg.get("window")
    if not (isinstance(window, (list, tuple)) and len(window) == 2):
        raise ConfigError("eigen action needs a real 'window': [lo, hi]")
    lin = _make_linearization(cfg, de, et, tau, args)
    tol = args.tol if args.tol is not None else 1e-6
    scan = homogeneous_scan(et, tau, window, grid=int(cfg.get("grid", 400)),
                            accept=tol)
    corr = eigen_correspondence(lin, et, tau, window, tol=tol, scan=scan)
    write_csv(out_dir / "scan.csv", ["lambda", "sigma_min"],
              [[float(x), float(v)] for x, v in zip(scan.grid, scan.values)
               if not math.isnan(v)])
    write_csv(out_dir / "eigenvalues.csv",
              ["lambda", "sigma_min", "pde_residual", "bc_residual"],
              [[e["lambda"], e["sigma_min"], e["pde_residual"], e["bc_residual"]]
               for e in corr["eigenvalues"]])
    report = {
        "action": "eigen",
        "window": [float(window[0]), float(window[1])],
        "w_symmetry_residual": lin.w_symmetry_residual(),
        "hilbert_state": lin.is_hilbert,
        "eigenvalue_count": len(corr["eigenvalues"]),
        "scan_roots": [m["root"] for m in corr["scan_roots"]],
        "correspondence_ok": corr["ok"],
        "failures": corr["failures"],
        "tables": ["eigenvalues.csv", "scan.csv"],
    }
    return (0 if corr["ok"] else 2), report


def action_realize(cfg, args, out_dir: Path) -> tuple[int, dict]:
    tau = parse_tau(cfg.get("tau"), None)
    seed = int(_seed_from(cfg, args) or 0)
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
    seed = int(_seed_from(cfg, args) or 0)
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
    ids = verify_triple_identities(et.bt, sample_pts, seed=seed)
    suites["triple_identities"] = ids
    for name, val in ids.items():
        if val > tol:
            failures.append(f"identity {name} residual {val:.3e}")

    # the identities above checked a0.resolvent at every sample point
    closed = 0.0
    for lam in sample_pts:
        m = et.weyl(lam)
        m_generic = et.bt.weyl_data(lam, check_resolvent=False).m_mat
        closed = max(closed, float(np.linalg.norm(m_generic - m, 2)
                                   / max(1.0, np.linalg.norm(m, 2))))
    suites["weyl_closed_form_residual"] = closed
    if closed > tol:
        failures.append(f"closed-form Weyl mismatch {closed:.3e}")

    lin = _make_linearization(cfg, de, et, tau, args)
    suites["w_symmetry_residual"] = lin.w_symmetry_residual()
    if suites["w_symmetry_residual"] > 1e-10:
        failures.append("linearization is not W-selfadjoint")

    probes = [(complex(rng.uniform(-2, 2), rng.uniform(0.5, 2) * (-1) ** k),
               rng.standard_normal(de.n_interior)
               + 1j * rng.standard_normal(de.n_interior)) for k in range(8)]

    def check_pair(pair):
        lam, g = pair
        f1 = krein_resolve(et, tau, lam, g).f
        f2 = direct_solve(et, tau, lam, g)
        f3 = compressed_resolvent(lin, lam, g)
        scale = max(1.0, float(np.linalg.norm(f1)))
        return max(np.linalg.norm(f1 - f2), np.linalg.norm(f1 - f3)) / scale

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        oracle = max(pool.map(check_pair, probes))
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weylbvp",
        description="Solve elliptic boundary value problems with "
                    "spectral-parameter-dependent boundary conditions.")
    p.add_argument("--config", type=Path, help="JSON problem configuration")
    p.add_argument("--action", choices=sorted(ACTIONS),
                   help="pipeline to run (overrides the config's 'action')")
    p.add_argument("--out", type=Path, default=Path("out"),
                   help="output directory (default: ./out)")
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep width")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized inputs")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = {}
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
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
    except WeylbvpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
