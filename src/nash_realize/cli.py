"""Command line interface: `nash-realize <command> [args]`.

Reports are JSON on stdout (sorted keys, so identical runs are
byte-identical apart from elapsed_seconds); `--out FILE` persists a copy.
Exit code 0 iff the run's verdict is PASS/MINIMAL/success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, catalog
from .analysis import (box_sampler, estimate_reachable_trdeg,
                       estimate_response_trdeg, estimate_trdeg,
                       generate_obs_algebra)
from .config import RunConfig
from .errors import NashRealizeError
from .inputs import GeneralizedInput
from .minimality import (check_minimality, construct_isomorphism,
                         verify_isomorphism)
from .reduction import (minimize, observability_reduce, reachability_reduce,
                        resymbolize, verify_local_realization)
from .system import NashSystem, SystemOracle, flow

_TOL_FLAGS = (
    ("--tol-flow", "flow_tol", "ODE integration tolerance"),
    ("--tol-rank", "rank_tol", "relative singular value cutoff"),
    ("--tol-fit", "fit_tol", "relation fitting residual tolerance"),
    ("--tol-newton", "newton_tol", "implicit-map Newton tolerance"),
    ("--tol-iso", "iso_tol", "isomorphism verification tolerance"),
    ("--derivative-floor", "derivative_floor",
     "minimum |dQ/dT| for implicit solvability"),
)


def _add_common(p: argparse.ArgumentParser):
    d = RunConfig()
    p.add_argument("--seed", type=int, default=d.seed)
    for flag, attr, help_text in _TOL_FLAGS:
        p.add_argument(flag, type=float, default=getattr(d, attr),
                       dest=attr, help=help_text)
    p.add_argument("--depth", type=int, default=d.depth,
                   help="observation algebra Lie-derivative depth")
    p.add_argument("--degree-bound", type=int, default=d.degree_bound)
    p.add_argument("--epsilon", type=float, default=d.epsilon,
                   help="shift input time budget")
    p.add_argument("--trials", type=int, default=d.trials)
    p.add_argument("--budget", type=float, default=d.budget,
                   help="input word time budget")
    p.add_argument("--out", type=str, default=None,
                   help="also write the JSON report to this file")


def _config(args) -> RunConfig:
    d = RunConfig()
    return RunConfig(
        seed=args.seed, flow_tol=args.flow_tol, fd_flow_tol=d.fd_flow_tol,
        rank_tol=args.rank_tol, gap_factor=d.gap_factor,
        fit_tol=args.fit_tol, newton_tol=args.newton_tol,
        iso_tol=args.iso_tol, derivative_floor=args.derivative_floor,
        depth=args.depth, degree_bound=args.degree_bound,
        epsilon=args.epsilon, trials=args.trials, budget=args.budget,
        fd_step=d.fd_step, max_terms=d.max_terms, probe_rays=d.probe_rays)


def _load_system(path: str) -> NashSystem:
    """A file path, or a bundled catalog name like SYS-LIN1."""
    if not os.path.exists(path) and path in catalog.names():
        return catalog.load(path)
    with open(path, encoding="utf-8") as fh:
        return NashSystem.from_json(json.load(fh))


def cmd_simulate(args, cfg: RunConfig):
    sys_ = _load_system(args.system)
    word = GeneralizedInput.from_json(json.loads(args.input), sys_.alphabet)
    traj = flow(sys_, sys_.x0, word, cfg.flow_tol)
    if args.csv:
        samples = traj.sample()
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(["t"] + [f"x{i + 1}" for i in
                                       range(sys_.n)]) + "\n")
            for t, x in samples:
                fh.write(",".join(repr(float(v)) for v in
                                  (t, *np.asarray(x))) + "\n")
    payload = {
        "word": word.to_json(),
        "terminal": [float(v) for v in traj.terminal],
        "outputs": [float(v) for v in sys_.readout_values(traj.terminal)],
        "breakpoints": [float(t) for t in traj.breakpoints],
        "states": [[float(v) for v in x] for x in traj.states],
        "verdict": "success",
    }
    return payload, True


def cmd_analyze(args, cfg: RunConfig):
    sys_ = _load_system(args.system)
    rng = np.random.default_rng(cfg.seed)
    oracle = SystemOracle(sys_, tol=cfg.flow_tol)
    reach = estimate_reachable_trdeg(
        sys_, max_letters=sys_.n, count=4, fd_step=cfg.fd_step,
        rank_tol=cfg.rank_tol, seed=rng, time_budget=cfg.budget,
        flow_tol=cfg.fd_flow_tol, gap_factor=cfg.gap_factor)
    basis = generate_obs_algebra(sys_, cfg.depth, cfg.max_terms)
    obs = estimate_trdeg(basis.generators,
                         box_sampler(sys_.domain, sys_.x0, 0.5, rng),
                         count=4, rank_tol=cfg.rank_tol,
                         gap_factor=cfg.gap_factor)
    resp = estimate_response_trdeg(
        oracle, depth=cfg.depth, max_letters=sys_.n, count=3,
        fd_step=cfg.fd_step, rank_tol=cfg.rank_tol, seed=rng,
        time_budget=cfg.budget, flow_tol=cfg.fd_flow_tol,
        gap_factor=cfg.gap_factor)
    payload = {
        "dimension": sys_.n,
        "reachable": reach.estimated_trdeg == sys_.n,
        "reachable_trdeg": reach.to_json(),
        "observable": obs.estimated_trdeg == sys_.n,
        "obs_trdeg": obs.to_json(),
        "response_trdeg": resp.to_json(),
        "obs_algebra_size": len(basis.generators),
        "verdict": "success",
    }
    return payload, True


def _reduction_payload(red, oracle, cfg: RunConfig, rng):
    rep = verify_local_realization(red, oracle, trials=cfg.trials,
                                   time_budget=0.5 * cfg.budget, tol=1e-6,
                                   seed=rng, flow_tol=cfg.flow_tol)
    payload = {
        "realization": red.to_json(),
        "verification": rep.to_json(),
        "resymbolized": resymbolize(red, seed=cfg.seed),
        "verdict": "PASS" if rep.passed else "FAIL",
    }
    return payload, rep.passed


def cmd_reduce_reach(args, cfg: RunConfig):
    sys_ = _load_system(args.system)
    rng = np.random.default_rng(cfg.seed)
    oracle = SystemOracle(sys_, tol=cfg.flow_tol)
    red = reachability_reduce(sys_, oracle, cfg.epsilon, opts=cfg, rng=rng)
    return _reduction_payload(red, oracle, cfg, rng)


def cmd_reduce_obs(args, cfg: RunConfig):
    sys_ = _load_system(args.system)
    rng = np.random.default_rng(cfg.seed)
    oracle = SystemOracle(sys_, tol=cfg.flow_tol)
    red = observability_reduce(sys_, oracle, cfg.epsilon, opts=cfg, rng=rng)
    return _reduction_payload(red, oracle, cfg, rng)


def cmd_minimize(args, cfg: RunConfig):
    sys_ = _load_system(args.system)
    rng = np.random.default_rng(cfg.seed)
    oracle = SystemOracle(sys_, tol=cfg.flow_tol)
    red = minimize(sys_, oracle, cfg.epsilon, opts=cfg, rng=rng)
    payload, ok = _reduction_payload(red, oracle, cfg, rng)
    verdict = check_minimality(red, SystemOracle(red, tol=cfg.flow_tol),
                               opts=cfg, rng=rng)
    payload["minimality"] = verdict.to_json()
    payload["verdict"] = verdict.verdict if ok else "FAIL"
    return payload, ok and verdict.verdict == "MINIMAL"


def cmd_compare(args, cfg: RunConfig):
    sys1 = _load_system(args.system1)
    sys2 = _load_system(args.system2)
    rng = np.random.default_rng(cfg.seed)
    oracle = SystemOracle(sys1, tol=cfg.flow_tol)
    iso = construct_isomorphism(sys1, sys2, oracle, cfg.epsilon,
                                opts=cfg, rng=rng)
    rep = verify_isomorphism(iso, sys1, sys2, trials=cfg.trials,
                             tol=cfg.iso_tol, opts=cfg, rng=rng)
    payload = {
        "isomorphism": iso.to_json(),
        "verification": rep.to_json(),
        "verdict": "PASS" if rep.passed else "FAIL",
    }
    return payload, rep.passed


def cmd_acceptance(args, cfg: RunConfig):
    from . import acceptance
    only = args.only.split(",") if args.only else None
    rows = acceptance.run_all(cfg, only=only, catalog_dir=args.catalog,
                              stream=lambda line: print(line,
                                                        file=sys.stderr))
    ok = bool(rows) and all(r["passed"] for r in rows)
    payload = {"criteria": rows, "verdict": "PASS" if ok else "FAIL"}
    return payload, ok


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nash-realize",
        description="Flows, transcendence-degree analysis, reduction, and "
                    "minimality checks for power-law control systems.")
    p.add_argument("--version", action="version",
                   version=f"nash-realize {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="integrate one input word")
    sp.add_argument("system", help="system JSON file or catalog name")
    sp.add_argument("--input", required=True,
                    help='word JSON, e.g. \'[["a0",0.693]]\'')
    sp.add_argument("--csv", default=None,
                    help="write sampled trajectory states to CSV")
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("analyze",
                        help="reachability/observability/trdeg report")
    sp.add_argument("system")
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("reduce-reach", help="reachability reduction")
    sp.add_argument("system")
    _add_common(sp)
    sp.set_defaults(func=cmd_reduce_reach)

    sp = sub.add_parser("reduce-obs", help="observability reduction")
    sp.add_argument("system")
    _add_common(sp)
    sp.set_defaults(func=cmd_reduce_obs)

    sp = sub.add_parser("minimize",
                        help="reachability then observability reduction")
    sp.add_argument("system")
    _add_common(sp)
    sp.set_defaults(func=cmd_minimize)

    sp = sub.add_parser("compare",
                        help="construct and verify a local isomorphism")
    sp.add_argument("system1")
    sp.add_argument("system2")
    _add_common(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("acceptance", help="run the acceptance suite")
    sp.add_argument("catalog", nargs="?", default=None,
                    help="directory of system JSON files (default: bundled)")
    sp.add_argument("--only", default=None,
                    help="comma-separated criteria, e.g. A2 or A1,A7")
    _add_common(sp)
    sp.set_defaults(func=cmd_acceptance)
    return p


def _emit(report: dict, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = _config(args)
    t0 = time.perf_counter()
    try:
        payload, ok = args.func(args, cfg)
    except (NashRealizeError, OSError, ValueError, KeyError) as exc:
        payload = {"error": {"type": type(exc).__name__,
                             "message": str(exc)},
                   "verdict": "FAIL"}
        ok = False
    report = {"command": args.command, "config": cfg.to_json(), **payload,
              "elapsed_seconds": round(time.perf_counter() - t0, 3),
              "version": __version__}
    _emit(report, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
