"""Acceptance experiments A1..A8: one function per criterion.

Each runner returns {criterion, passed, elapsed_seconds, limit_seconds,
details}; run_all prints one PASS/FAIL line per criterion. The same code
backs `nash-realize acceptance` and the acceptance test module, so the
gate exercised in CI is exactly the shipped one.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import catalog
from .config import RunConfig
from .errors import DomainExit, BlowUp
from .expr import NashExpr, ALL_REAL, POSITIVE_ORTHANT
from .analysis import (box_sampler, estimate_reachable_trdeg,
                       estimate_response_trdeg, estimate_trdeg,
                       fit_relation)
from .inputs import (GeneralizedInput, admissible, concat, reverse,
                     sample_inputs)
from .minimality import (INCONCLUSIVE, MINIMAL, NOT_MINIMAL,
                         check_minimality, construct_isomorphism,
                         verify_isomorphism)
from .reduction import (_ObsContext, minimize, observability_reduce,
                        reachability_reduce, verify_local_realization)
from .system import SystemOracle, shift_oracle

LIMITS = {"A1": 10.0, "A2": 30.0, "A3": 30.0, "A4": 60.0,
          "A5": 30.0, "A6": 30.0, "A7": 20.0, "A8": 20.0}

# three-way minimality expectations for every bundled system
EXPECTED_VERDICTS = {
    "SYS-LIN1": MINIMAL,
    "SYS-DIAG": NOT_MINIMAL,
    "SYS-PL": MINIMAL,
    "SYS-BILIN": MINIMAL,
    "SYS-RED3": NOT_MINIMAL,
    "SYS-UNOBS": NOT_MINIMAL,
    "SYS-CUBE": MINIMAL,
    "SYS-LIN2": MINIMAL,
    "SYS-LIN3": MINIMAL,
}


def _systems(catalog_dir: Optional[str] = None) -> tuple[dict, list]:
    """(systems, load_errors); a bad file becomes evidence, not a crash."""
    out: dict = {}
    errors: list = []
    if catalog_dir is None:
        for name in catalog.names():
            try:
                out[name] = catalog.load(name)
            except Exception as exc:
                errors.append((name, f"{type(exc).__name__}: {exc}"))
        return out, errors
    import json
    import os
    from .system import NashSystem
    for fn in sorted(os.listdir(catalog_dir)):
        if fn.endswith(".json"):
            try:
                with open(os.path.join(catalog_dir, fn),
                          encoding="utf-8") as fh:
                    out[fn[:-5]] = NashSystem.from_json(json.load(fh))
            except Exception as exc:
                errors.append((fn, f"{type(exc).__name__}: {exc}"))
    return out, errors


def _resp_trdeg(sys, cfg: RunConfig, rng, oracle=None, count=3,
                time_budget=None, depth=None):
    oracle = oracle if oracle is not None else SystemOracle(sys,
                                                            tol=cfg.flow_tol)
    rep = estimate_response_trdeg(
        oracle, depth=cfg.depth if depth is None else depth,
        max_letters=sys.n, count=count,
        fd_step=cfg.fd_step, rank_tol=cfg.rank_tol, seed=rng,
        time_budget=cfg.budget if time_budget is None else time_budget,
        flow_tol=cfg.fd_flow_tol, gap_factor=cfg.gap_factor)
    return rep.estimated_trdeg


def _obs_trdeg(sys, cfg: RunConfig, rng) -> int:
    return _ObsContext(sys, cfg).trdeg(rng).estimated_trdeg


def run_a1(cfg: RunConfig, systems: dict) -> dict:
    """Integer transcendence degrees against hand-computed Kalman ranks."""
    rng = np.random.default_rng(cfg.seed)
    # frozen oracle values: controllability/observability matrix ranks
    expected = {"SYS-LIN1": 1, "SYS-DIAG": 1, "SYS-BILIN": 2,
                "SYS-LIN2": 2, "SYS-LIN3": 3}
    details = {}
    ok = True
    for name, want in expected.items():
        sys = systems[name]
        resp = _resp_trdeg(sys, cfg, rng)
        obs = _obs_trdeg(sys, cfg, rng)
        details[name] = {"expected": want, "response": resp, "obs": obs}
        ok = ok and resp == want and obs == want
    return {"details": details, "ok": ok}


def run_a2(cfg: RunConfig, systems: dict) -> dict:
    """Reachability reduction of the diagonal system at two budgets."""
    sys = systems["SYS-DIAG"]
    details = {}
    ok = True
    for eps in (0.1, 0.01):
        rng = np.random.default_rng(cfg.seed)
        oracle = SystemOracle(sys, tol=cfg.flow_tol)
        red = reachability_reduce(sys, oracle, eps, opts=cfg, rng=rng)
        rep = verify_local_realization(red, oracle, trials=100,
                                       time_budget=0.5, tol=1e-6, seed=rng,
                                       flow_tol=cfg.flow_tol)
        entry = {"dimension": red.dimension,
                 "shift_total_time": red.shift_input.total_time,
                 "max_deviation": rep.max_deviation,
                 "evaluated": rep.evaluated}
        details[f"epsilon={eps}"] = entry
        ok = ok and red.dimension == 1 \
            and 0.0 < red.shift_input.total_time < eps \
            and rep.passed and rep.max_deviation <= 1e-6
    return {"details": details, "ok": ok}


def run_a3(cfg: RunConfig, systems: dict) -> dict:
    """Observability reduction of the reachable-but-unobservable system."""
    sys = systems["SYS-UNOBS"]
    rng = np.random.default_rng(cfg.seed)
    oracle = SystemOracle(sys, tol=cfg.flow_tol)
    red = observability_reduce(sys, oracle, cfg.epsilon, opts=cfg, rng=rng)
    reach = estimate_reachable_trdeg(
        red, max_letters=red.dimension, count=4,
        rank_tol=cfg.rank_tol, seed=rng, time_budget=cfg.budget,
        flow_tol=cfg.fd_flow_tol, gap_factor=cfg.gap_factor)
    resp = estimate_response_trdeg(
        SystemOracle(red, tol=cfg.flow_tol), depth=cfg.depth,
        max_letters=red.dimension, count=3, fd_step=cfg.fd_step,
        rank_tol=cfg.rank_tol, seed=rng, time_budget=cfg.budget,
        flow_tol=cfg.fd_flow_tol, gap_factor=cfg.gap_factor)
    rep = verify_local_realization(red, oracle, trials=100,
                                   time_budget=0.5, tol=1e-6, seed=rng,
                                   flow_tol=cfg.flow_tol)
    ok = (red.dimension == 1 and reach.estimated_trdeg == 1
          and resp.estimated_trdeg == 1 and rep.passed
          and rep.max_deviation <= 1e-6)
    return {"details": {"dimension": red.dimension,
                        "reachable_trdeg": reach.estimated_trdeg,
                        "response_trdeg": resp.estimated_trdeg,
                        "max_deviation": rep.max_deviation}, "ok": ok}


def run_a4(cfg: RunConfig, systems: dict) -> dict:
    """Three-way minimality consistency plus minimize on the redundant
    3-state system."""
    details = {}
    ok = True
    for name, want in EXPECTED_VERDICTS.items():
        sys = systems[name]
        rng = np.random.default_rng(cfg.seed)
        verdict = check_minimality(sys, SystemOracle(sys, tol=cfg.flow_tol),
                                   opts=cfg, rng=rng)
        details[name] = {"verdict": verdict.verdict, "expected": want,
                         "dim": verdict.dim_sigma,
                         "response": verdict.trdeg_response,
                         "obs": verdict.trdeg_obs_sigma,
                         "reachable": verdict.reachable_trdeg}
        ok = ok and verdict.verdict == want
    rng = np.random.default_rng(cfg.seed)
    sys = systems["SYS-RED3"]
    oracle = SystemOracle(sys, tol=cfg.flow_tol)
    red = minimize(sys, oracle, cfg.epsilon, opts=cfg, rng=rng)
    resp = _resp_trdeg(sys, cfg, rng, oracle=oracle)
    details["minimize(SYS-RED3)"] = {"dimension": red.dimension,
                                     "response_trdeg": resp}
    ok = ok and red.dimension == 1 and red.dimension == resp
    return {"details": details, "ok": ok}


def run_a5(cfg: RunConfig, systems: dict) -> dict:
    """Isomorphism between the scalar exponential system and its cubing
    chart."""
    a, b = catalog.ISO_PAIR
    sys1, sys2 = systems[a], systems[b]
    rng = np.random.default_rng(cfg.seed)
    oracle = SystemOracle(sys1, tol=cfg.flow_tol)
    iso = construct_isomorphism(sys1, sys2, oracle, cfg.epsilon,
                                opts=cfg, rng=rng)
    rep = verify_isomorphism(iso, sys1, sys2, trials=100, tol=1e-6,
                             opts=cfg, rng=rng, words=50)
    ok = rep.passed and iso.jacobian_product_residual <= 1e-5
    return {"details": {"report": rep.to_json(),
                        "jacobian_product_residual":
                            iso.jacobian_product_residual,
                        "condition_number": iso.condition_number},
            "ok": ok}


def run_a6(cfg: RunConfig, systems: dict) -> dict:
    """Response trdeg invariance under shifts and budget restriction."""
    details = {}
    ok = True
    for name, sys in systems.items():
        rng = np.random.default_rng(cfg.seed)
        oracle = SystemOracle(sys, tol=cfg.flow_tol)
        base = _resp_trdeg(sys, cfg, rng, oracle=oracle, count=2, depth=1)

        def shifted(u):
            # draws from rng too, between the draws of the shift words
            return _resp_trdeg(sys, cfg, rng, oracle=shift_oracle(oracle, u),
                               count=2, depth=1)

        shifted_vals, _ = admissible(
            (sample_inputs(sys.alphabet, 2, 0.3, 1, rng)[0]
             for _ in range(100)), shifted, 10)
        restricted = _resp_trdeg(sys, cfg, rng, oracle=oracle, count=2,
                                 time_budget=cfg.budget / 10.0, depth=1)
        good = (len(shifted_vals) == 10
                and all(v == base for v in shifted_vals)
                and restricted == base)
        details[name] = {"base": base, "shifted": shifted_vals,
                         "restricted": restricted}
        ok = ok and good
    return {"details": details, "ok": ok}


def run_a7(cfg: RunConfig, systems: dict) -> dict:
    """Flow semigroup/reversal and response word identities."""
    rng = np.random.default_rng(cfg.seed)
    names = sorted(systems)
    tol = 10.0 * cfg.flow_tol
    worst = {"semigroup": 0.0, "reversal": 0.0, "zero_insert": 0.0,
             "split": 0.0}
    cases = 0
    attempts = 0
    while cases < 200 and attempts < 2000:
        attempts += 1
        sys = systems[names[int(rng.integers(len(names)))]]
        u = sample_inputs(sys.alphabet, 2, 0.4, 1, rng)[0]
        v = sample_inputs(sys.alphabet, 2, 0.4, 1, rng)[0]
        kind = cases % 4
        try:
            if kind == 0:
                a = sys.terminal_state(sys.x0, concat(u, v), cfg.flow_tol)
                mid = sys.terminal_state(sys.x0, u, cfg.flow_tol)
                b = sys.terminal_state(mid, v, cfg.flow_tol)
                worst["semigroup"] = max(worst["semigroup"],
                                         float(np.max(np.abs(a - b))))
            elif kind == 1:
                back = sys.terminal_state(sys.x0, concat(u, reverse(u)),
                                          cfg.flow_tol)
                worst["reversal"] = max(
                    worst["reversal"],
                    float(np.max(np.abs(back - np.asarray(sys.x0)))))
            elif kind == 2:
                li = int(rng.integers(len(sys.alphabet)))
                w0 = GeneralizedInput(sys.alphabet,
                                      u.word + ((li, 0.0),) + v.word)
                a = sys.readout_values(
                    sys.terminal_state(sys.x0, concat(u, v), cfg.flow_tol))
                b = sys.readout_values(
                    sys.terminal_state(sys.x0, w0, cfg.flow_tol))
                worst["zero_insert"] = max(worst["zero_insert"],
                                           float(np.max(np.abs(a - b))))
            else:
                split = []
                for li, t in u.word:
                    split += [(li, t / 2.0), (li, t / 2.0)]
                ws = GeneralizedInput(sys.alphabet, tuple(split))
                a = sys.terminal_state(sys.x0, u, cfg.flow_tol)
                b = sys.terminal_state(sys.x0, ws, cfg.flow_tol)
                worst["split"] = max(worst["split"],
                                     float(np.max(np.abs(a - b))))
        except (DomainExit, BlowUp):
            continue
        cases += 1
    ok = cases == 200 and all(v <= tol for v in worst.values())
    return {"details": {"cases": cases, "tolerance": tol,
                        "worst_deviation": worst}, "ok": ok}


def run_a8(cfg: RunConfig, systems: dict) -> dict:
    """Derivative cross-checks, held-out relation validation, and forced
    LOW_CONFIDENCE paths."""
    rng = np.random.default_rng(cfg.seed)
    details = {}
    ok = True

    # (1) eval/diff pairs vs central finite differences, 1e-6 relative
    exprs = []
    for sys in systems.values():
        for row in sys.fields:
            exprs.extend(row)
        exprs.extend(sys.readout)
    worst_fd = 0.0
    for e in exprs:
        positive = e.domain_flag == POSITIVE_ORTHANT
        for _ in range(3):
            x = rng.uniform(0.4, 1.6, size=e.nvars) if positive \
                else rng.uniform(-1.5, 1.5, size=e.nvars)
            h = 1e-5
            for i in range(e.nvars):
                step = np.zeros(e.nvars)
                step[i] = h
                fd = (e.eval_point(x + step) - e.eval_point(x - step)) \
                    / (2.0 * h)
                exact = e.diff(i).eval_point(x)
                rel = abs(fd - exact) / max(1.0, abs(exact))
                worst_fd = max(worst_fd, rel)
    details["fd_relative_error"] = worst_fd
    ok = ok and worst_fd <= 1e-6

    # (2) held-out validation of returned relations
    diag = systems["SYS-DIAG"]
    cap = 20 * 140
    states, _ = admissible(
        (sample_inputs(diag.alphabet, 2, cfg.budget, 1, rng)[0]
         for _ in range(cap)),
        lambda w: diag.terminal_state(diag.x0, w, cfg.flow_tol), 140)
    if len(states) < 140:
        raise DomainExit(f"only {len(states)} of 140 SYS-DIAG words stayed "
                         f"in the domain in {cap} draws")
    states = np.array(states)
    rel = fit_relation(states[:, 1], states[:, [0]], cfg.degree_bound,
                       cfg.fit_tol, seed=rng)
    details["diag_relation_residual"] = None if rel is None else rel.residual
    ok = ok and rel is not None and rel.residual <= cfg.fit_tol
    xs = rng.uniform(0.3, 2.0, size=120)
    rel2 = fit_relation(np.sqrt(xs), xs.reshape(-1, 1), cfg.degree_bound,
                        cfg.fit_tol, seed=rng)
    details["sqrt_relation_residual"] = None if rel2 is None \
        else rel2.residual
    ok = ok and rel2 is not None and rel2.residual <= cfg.fit_tol \
        and rel2.degree_T == 2

    # (3) LOW_CONFIDENCE paths, each forced explicitly.  Three nearly
    # dependent gradients: the third singular value is discarded at
    # rank_tol but sits less than gap_factor below the second.
    from .system import Box
    g1 = NashExpr.variable(0, 3)
    g2 = g1 + NashExpr.variable(1, 3).scale(Fraction(2, 10 ** 6))
    g3 = g1 + NashExpr.variable(2, 3).scale(Fraction(1, 10 ** 11))
    sampler = box_sampler(Box.unbounded(3), (1.0, 1.0, 1.0), 0.5, rng)
    gap_rep = estimate_trdeg([g1, g2, g3], sampler, count=4,
                             rank_tol=cfg.rank_tol, mode="float",
                             gap_factor=cfg.gap_factor)
    details["forced_gap"] = {"gap": gap_rep.gap,
                             "low_confidence": gap_rep.low_confidence}
    ok = ok and gap_rep.low_confidence and np.isfinite(gap_rep.gap)

    tight = estimate_trdeg([g1, g2], sampler, count=3, rank_tol=1e-18,
                           mode="float", gap_factor=cfg.gap_factor)
    details["subnoise_rank_tol"] = tight.low_confidence
    ok = ok and tight.low_confidence

    lin1 = systems["SYS-LIN1"]
    resp_tight = estimate_response_trdeg(
        SystemOracle(lin1, tol=cfg.flow_tol), depth=1, max_letters=1,
        count=2, fd_step=cfg.fd_step, rank_tol=1e-18, seed=rng,
        time_budget=cfg.budget, flow_tol=cfg.fd_flow_tol,
        gap_factor=cfg.gap_factor)
    reach_tight = estimate_reachable_trdeg(
        lin1, max_letters=1, count=2, rank_tol=1e-18,
        seed=rng, time_budget=cfg.budget, flow_tol=cfg.fd_flow_tol,
        gap_factor=cfg.gap_factor)
    details["response_low_confidence"] = resp_tight.low_confidence
    details["reachable_low_confidence"] = reach_tight.low_confidence
    ok = ok and resp_tight.low_confidence and reach_tight.low_confidence

    tight_cfg = RunConfig(**{**cfg.to_json(), "rank_tol": 1e-18})
    verdict = check_minimality(lin1, SystemOracle(lin1, tol=cfg.flow_tol),
                               opts=tight_cfg,
                               rng=np.random.default_rng(cfg.seed))
    details["forced_inconclusive"] = verdict.verdict
    ok = ok and verdict.verdict == INCONCLUSIVE
    return {"details": details, "ok": ok}


_RUNNERS: dict[str, Callable] = {
    "A1": run_a1, "A2": run_a2, "A3": run_a3, "A4": run_a4,
    "A5": run_a5, "A6": run_a6, "A7": run_a7, "A8": run_a8,
}


def run_criterion(name: str, cfg: RunConfig, systems: dict) -> dict:
    limit = LIMITS[name]
    t0 = time.perf_counter()
    try:
        result = _RUNNERS[name](cfg, systems)
    except Exception as exc:  # a criterion failure, not a crash
        elapsed = time.perf_counter() - t0
        return {"criterion": name, "passed": False,
                "elapsed_seconds": elapsed, "limit_seconds": limit,
                "details": {"error": f"{type(exc).__name__}: {exc}"}}
    elapsed = time.perf_counter() - t0
    return {"criterion": name,
            "passed": bool(result["ok"]) and elapsed <= limit,
            "elapsed_seconds": elapsed, "limit_seconds": limit,
            "details": result["details"]}


def run_all(cfg: Optional[RunConfig] = None, only=None,
            catalog_dir: Optional[str] = None,
            stream=print) -> list[dict]:
    cfg = cfg if cfg is not None else RunConfig()
    systems, load_errors = _systems(catalog_dir)
    names = [only] if isinstance(only, str) else (only or sorted(LIMITS))
    rows = []
    for fn, msg in load_errors:
        rows.append({"criterion": f"catalog:{fn}", "passed": False,
                     "elapsed_seconds": 0.0, "limit_seconds": 0.0,
                     "details": {"error": msg}})
        stream(f"catalog:{fn} FAIL ({msg})")
    for name in names:
        row = run_criterion(name, cfg, systems)
        rows.append(row)
        status = "PASS" if row["passed"] else "FAIL"
        stream(f"{name} {status} ({row['elapsed_seconds']:.1f}s, "
               f"limit {row['limit_seconds']:.0f}s)")
    return rows
