"""Minimality verdicts and local isomorphisms between minimal realizations.

Minimality is decided by cross-checking three equivalent characterizations
(dimension vs response transcendence degree; reachability; observability);
any numeric disagreement or low-confidence rank is surfaced as
INCONCLUSIVE rather than silently resolved. Isomorphisms between two
minimal realizations of one response map are built the same way as the
reduction charts: fit each system's coordinates as algebraic functions of
the other's over shared reachable samples, then solve the relations with
Newton around a shifted base point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import RunConfig
from .errors import (BlowUp, DerivativeVanished, DimensionMismatch,
                     DomainExit, DomainViolation, FitFailure,
                     NashRealizeError, NewtonDiverged, NoValidShiftInput,
                     NotBijective)
from .analysis import (estimate_reachable_trdeg, estimate_response_trdeg,
                       estimate_trdeg, fit_relation, generate_obs_algebra,
                       box_sampler)
from .inputs import GeneralizedInput, sample_inputs
from .reduction import (ImplicitMap, PolynomialRelation, _fit_sample_count,
                        _pick_nondegenerate, _sample_shift_word,
                        probe_radius)
from .system import NashSystem, ResponseOracle, SystemOracle

MINIMAL = "MINIMAL"
NOT_MINIMAL = "NOT_MINIMAL"
INCONCLUSIVE = "INCONCLUSIVE"


# ------------------------------------------------------------- minimality


@dataclass(frozen=True)
class MinimalityVerdict:
    dim_sigma: int
    trdeg_response: Optional[int]
    trdeg_obs_sigma: Optional[int]
    reachable_trdeg: Optional[int]
    verdict: str
    witnesses: dict

    def to_json(self) -> dict:
        def field(v):
            return "NOT_EVALUATED" if v is None else v

        return {
            "dim_sigma": self.dim_sigma,
            "trdeg_response": field(self.trdeg_response),
            "trdeg_obs_sigma": field(self.trdeg_obs_sigma),
            "reachable_trdeg": field(self.reachable_trdeg),
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }


def _realization_check(sys, oracle, opts: RunConfig,
                       rng: np.random.Generator) -> tuple[bool, float]:
    words = [GeneralizedInput.empty(sys.alphabet)]
    words += sample_inputs(sys.alphabet, min(3, max(1, sys.n)),
                           0.25 * opts.budget, 14, rng)
    own = SystemOracle(sys, tol=opts.flow_tol)
    max_dev = 0.0
    evaluated = 0
    draws = 0
    qi = 0
    while qi < len(words):
        w = words[qi]
        qi += 1
        try:
            dev = float(np.max(np.abs(oracle.respond(w) - own.respond(w))))
        except (DomainExit, BlowUp):
            draws += 1
            if draws < 40:
                words += sample_inputs(sys.alphabet, 3, 0.25 * opts.budget,
                                       1, rng)
            continue
        evaluated += 1
        max_dev = max(max_dev, dev)
    return (evaluated >= 5 and max_dev <= 1e-6), max_dev


def check_minimality(sys, oracle: ResponseOracle,
                     opts: Optional[RunConfig] = None,
                     rng=None) -> MinimalityVerdict:
    """Three-way minimality verdict with cross-checked evidence.

    With a table-backed oracle only the dimension-vs-response comparison
    can run; reachability and observability are reported NOT_EVALUATED.
    """
    opts = opts if opts is not None else RunConfig()
    rng = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(opts.seed if rng is None else rng)
    n = sys.n
    witnesses: dict = {}

    try:
        resp = estimate_response_trdeg(
            oracle, depth=opts.depth, max_letters=n, count=3,
            fd_step=opts.fd_step, rank_tol=opts.rank_tol, seed=rng,
            time_budget=opts.budget, flow_tol=opts.fd_flow_tol,
            gap_factor=opts.gap_factor)
    except NashRealizeError as exc:
        return MinimalityVerdict(n, None, None, None, INCONCLUSIVE,
                                 {"error": f"response trdeg failed: {exc}"})
    witnesses["response_report"] = resp.to_json()

    if getattr(oracle, "is_table", False):
        c1 = n == resp.estimated_trdeg
        if resp.low_confidence:
            verdict = INCONCLUSIVE
            witnesses["low_confidence"] = ["response"]
        else:
            verdict = MINIMAL if c1 else NOT_MINIMAL
        witnesses["degraded_table_oracle"] = True
        return MinimalityVerdict(n, resp.estimated_trdeg, None, None,
                                 verdict, witnesses)

    ok, dev = _realization_check(sys, oracle, opts, rng)
    witnesses["realization_check_deviation"] = dev
    if not ok:
        witnesses["not_a_realization"] = True
        return MinimalityVerdict(n, resp.estimated_trdeg, None, None,
                                 INCONCLUSIVE, witnesses)

    try:
        reach = estimate_reachable_trdeg(
            sys, max_letters=n, count=4, fd_step=opts.fd_step,
            rank_tol=opts.rank_tol, seed=rng, time_budget=opts.budget,
            flow_tol=opts.fd_flow_tol, gap_factor=opts.gap_factor)
        from .reduction import ReachReduced, _ComposedObsCtx
        if isinstance(sys, NashSystem):
            depth = max(opts.depth, n - 1)
            basis = generate_obs_algebra(sys, depth, opts.max_terms)
            obs = estimate_trdeg(
                basis.generators, box_sampler(sys.domain, sys.x0, 0.5, rng),
                count=4, rank_tol=opts.rank_tol, gap_factor=opts.gap_factor)
            obs_val, obs_low = obs.estimated_trdeg, obs.low_confidence
            obs_rep = obs.to_json()
        elif isinstance(sys, ReachReduced):
            ctx = _ComposedObsCtx(sys, opts)
            obs = estimate_trdeg(ctx.rank_generators(), ctx.sampler(rng),
                                 count=4, rank_tol=opts.rank_tol,
                                 gap_factor=opts.gap_factor)
            obs_val, obs_low = obs.estimated_trdeg, obs.low_confidence
            obs_rep = obs.to_json()
        else:
            # implicit-map realization with no symbolic observation
            # algebra: a reachable realization's observation trdeg equals
            # its response trdeg, and response trdeg = n squeezes it to n
            if reach.estimated_trdeg == n:
                obs_val = resp.estimated_trdeg
                obs_low = resp.low_confidence or reach.low_confidence
                obs_rep = {"derived": "reachable-identity",
                           "value": obs_val}
            elif resp.estimated_trdeg == n:
                obs_val, obs_low = n, resp.low_confidence
                obs_rep = {"derived": "response-squeeze", "value": n}
            else:
                obs_val, obs_low = None, False
                obs_rep = {"derived": "unresolved", "value": None}
    except NashRealizeError as exc:
        witnesses["error"] = str(exc)
        return MinimalityVerdict(n, resp.estimated_trdeg, None, None,
                                 INCONCLUSIVE, witnesses)
    witnesses["reachable_report"] = reach.to_json()
    witnesses["obs_report"] = obs_rep

    low = [name for name, flag in
           (("response", resp.low_confidence),
            ("reachable", reach.low_confidence),
            ("observation", obs_low))
           if flag]
    c1 = n == resp.estimated_trdeg
    c2 = reach.estimated_trdeg == n
    # unresolved obs_val only happens with c2 false, where c3 is moot
    c3 = obs_val == n if obs_val is not None else False
    consistent = c1 == (c2 and c3)
    witnesses["characterizations"] = {
        "dim_equals_response_trdeg": c1,
        "reachable": c2,
        "observable": c3,
    }
    if low:
        witnesses["low_confidence"] = low
        verdict = INCONCLUSIVE
    elif not consistent:
        witnesses["disagreement"] = True
        verdict = INCONCLUSIVE
    else:
        verdict = MINIMAL if c1 else NOT_MINIMAL
    return MinimalityVerdict(n, resp.estimated_trdeg, obs_val,
                             reach.estimated_trdeg, verdict, witnesses)


# ------------------------------------------------------------ isomorphisms


@dataclass
class LocalIsomorphism:
    xi1: tuple
    xi2: tuple
    base1: np.ndarray
    base2: np.ndarray
    shift_input: GeneralizedInput
    radius: float
    jacobian1: np.ndarray
    condition_number: float
    roundtrip_residual: float
    jacobian_product_residual: float

    @property
    def n(self) -> int:
        return len(self.xi1)

    def forward(self, x, warm: Optional[dict] = None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(self.n)
        for j, m in enumerate(self.xi1):
            q0 = warm.get(("f", j)) if warm is not None else None
            out[j] = m.solve(x, q0=q0)
            if warm is not None:
                warm[("f", j)] = out[j]
        return out

    def backward(self, y, warm: Optional[dict] = None) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.empty(self.n)
        for j, m in enumerate(self.xi2):
            q0 = warm.get(("b", j)) if warm is not None else None
            out[j] = m.solve(y, q0=q0)
            if warm is not None:
                warm[("b", j)] = out[j]
        return out

    def forward_jacobian(self, x) -> np.ndarray:
        """Exact implicit-differentiation Jacobian of the forward map."""
        x = np.asarray(x, dtype=float)
        return np.array([m.grad(x) for m in self.xi1])

    def to_json(self) -> dict:
        return {
            "xi1": [m.to_json() for m in self.xi1],
            "xi2": [m.to_json() for m in self.xi2],
            "base1": [float(v) for v in self.base1],
            "base2": [float(v) for v in self.base2],
            "shift_input": self.shift_input.to_json(),
            "radius": None if math.isinf(self.radius) else self.radius,
            "jacobian1": [[float(v) for v in row] for row in self.jacobian1],
            "condition_number": self.condition_number,
            "roundtrip_residual": self.roundtrip_residual,
            "jacobian_product_residual": self.jacobian_product_residual,
        }


def construct_isomorphism(sys1, sys2, oracle: ResponseOracle,
                          epsilon: float, opts: Optional[RunConfig] = None,
                          rng=None) -> LocalIsomorphism:
    """Local state-space isomorphism between two minimal realizations of
    the same response map, built from shared reachable samples."""
    opts = opts if opts is not None else RunConfig()
    rng = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(opts.seed if rng is None else rng)
    if sys1.n != sys2.n:
        raise DimensionMismatch(
            f"dimensions differ: {sys1.n} vs {sys2.n}")
    n = sys1.n
    for tag, s in (("first", sys1), ("second", sys2)):
        verdict = check_minimality(s, oracle, opts, rng)
        if verdict.verdict != MINIMAL:
            raise ValueError(
                f"{tag} system is not verified MINIMAL "
                f"({verdict.verdict}); isomorphism construction requires "
                f"minimal realizations")

    # shared reachable samples: words admissible for both systems
    S = _fit_sample_count(n, opts.degree_bound)
    pts1, pts2 = [], []
    attempts = 0
    while len(pts1) < S:
        w = sample_inputs(sys1.alphabet, max(1, n), opts.budget, 1, rng)[0]
        attempts += 1
        if attempts > 20 * S:
            raise FitFailure("could not collect shared reachable samples")
        try:
            a = sys1.terminal_state(sys1.x0, w, opts.flow_tol)
            b = sys2.terminal_state(sys2.x0, w, opts.flow_tol)
        except (DomainExit, BlowUp):
            continue
        pts1.append(a)
        pts2.append(b)
    X1, X2 = np.array(pts1), np.array(pts2)

    rel_q: list[PolynomialRelation] = []
    rel_r: list[PolynomialRelation] = []
    for j in range(n):
        q = fit_relation(X2[:, j], X1, opts.degree_bound, opts.fit_tol,
                         seed=rng)
        if q is None:
            raise FitFailure(
                f"coordinate {j + 1} of the second system admits no "
                f"relation over the first within degree {opts.degree_bound}")
        rel_q.append(q)
        r = fit_relation(X1[:, j], X2, opts.degree_bound, opts.fit_tol,
                         seed=rng)
        if r is None:
            raise FitFailure(
                f"coordinate {j + 1} of the first system admits no "
                f"relation over the second within degree "
                f"{opts.degree_bound}")
        rel_r.append(r)

    shift = None
    chosen_q = chosen_r = None
    worst = None
    for _ in range(10 * max(1, n)):
        u = _sample_shift_word(sys1.alphabet, n, epsilon, rng)
        try:
            a = sys1.terminal_state(sys1.x0, u, opts.flow_tol)
            b = sys2.terminal_state(sys2.x0, u, opts.flow_tol)
        except (DomainExit, BlowUp):
            continue
        ok = True
        tq, tr = [], []
        for j in range(n):
            pick = _pick_nondegenerate(rel_q[j], b[j], a,
                                       opts.derivative_floor)
            if pick is None:
                ok, worst = False, rel_q[j]
                break
            tq.append(pick)
            pick = _pick_nondegenerate(rel_r[j], a[j], b,
                                       opts.derivative_floor)
            if pick is None:
                ok, worst = False, rel_r[j]
                break
            tr.append(pick)
        if ok:
            shift, chosen_q, chosen_r = u, tq, tr
            base1, base2 = a, b
            break
    if shift is None:
        raise NoValidShiftInput(
            "no shift input made the isomorphism relations nondegenerate",
            relation=None if worst is None else worst.to_json())

    radius = math.inf
    xi1, xi2 = [], []
    for j in range(n):
        m = ImplicitMap(chosen_q[j], base1, base2[j],
                        newton_tol=opts.newton_tol,
                        derivative_floor=opts.derivative_floor)
        radius = min(radius, probe_radius(m, rng, opts.probe_rays))
        xi1.append(m)
        m = ImplicitMap(chosen_r[j], base2, base1[j],
                        newton_tol=opts.newton_tol,
                        derivative_floor=opts.derivative_floor)
        radius = min(radius, probe_radius(m, rng, opts.probe_rays))
        xi2.append(m)

    iso = LocalIsomorphism(tuple(xi1), tuple(xi2), base1, base2, shift,
                           radius, np.eye(n), 0.0, 0.0, 0.0)
    # round-trip on probe points near the base
    rho = 0.3 * (1.0 + float(np.linalg.norm(base1)))
    if math.isfinite(radius):
        rho = min(rho, 0.49 * radius)
    rt = 0.0
    checked = 0
    tries = 0
    while checked < 20 and tries < 400:
        tries += 1
        x = base1 + rho * rng.uniform(-1.0, 1.0, size=n)
        try:
            back = iso.backward(iso.forward(x))
        except (NewtonDiverged, DerivativeVanished):
            continue
        rt = max(rt, float(np.max(np.abs(back - x))))
        checked += 1
    if checked == 0 or rt > opts.iso_tol:
        raise NotBijective(
            f"round-trip residual {rt:.3e} exceeds {opts.iso_tol:.1e} "
            f"on probed points")

    jac1 = np.array([m.grad(base1, q=base2[j]) for j, m in enumerate(xi1)])
    jac2 = np.array([m.grad(base2, q=base1[j]) for j, m in enumerate(xi2)])
    prod_resid = float(np.max(np.abs(jac2 @ jac1 - np.eye(n))))
    cond = float(np.linalg.cond(jac1))
    if not np.isfinite(cond) or prod_resid > 10.0 * opts.iso_tol:
        raise NotBijective(
            f"Jacobian product deviates from identity by {prod_resid:.3e}")
    iso.jacobian1 = jac1
    iso.condition_number = cond
    iso.roundtrip_residual = rt
    iso.jacobian_product_residual = prod_resid
    return iso


@dataclass(frozen=True)
class IsomorphismReport:
    roundtrip_dev: float
    intertwining_dev: float
    readout_dev: float
    trajectory_dev: float
    tol: float
    probes: int
    words: int
    skipped: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "roundtrip_dev": self.roundtrip_dev,
            "intertwining_dev": self.intertwining_dev,
            "readout_dev": self.readout_dev,
            "trajectory_dev": self.trajectory_dev,
            "tol": self.tol,
            "probes": self.probes,
            "words": self.words,
            "skipped": self.skipped,
            "passed": self.passed,
        }


def _readout_values(sys, x) -> np.ndarray:
    return sys.readout_values(np.asarray(x, dtype=float))


def verify_isomorphism(iso: LocalIsomorphism, sys1, sys2,
                       trials: int = 100, tol: float = 1e-6,
                       opts: Optional[RunConfig] = None,
                       rng=None, words: Optional[int] = None
                       ) -> IsomorphismReport:
    """Four checks on probed points near the base: round-trip, field
    intertwining through the finite-difference Jacobian, readout match,
    and trajectory intertwining over random words."""
    opts = opts if opts is not None else RunConfig()
    rng = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(opts.seed if rng is None else rng)
    n = iso.n
    rho = 0.25 * (1.0 + float(np.linalg.norm(iso.base1)))
    if math.isfinite(iso.radius):
        rho = min(rho, 0.4 * iso.radius)
    nletters = len(sys1.alphabet)

    dev_a = dev_b = dev_c = 0.0
    probes = skipped = 0
    tries = 0
    while probes < trials and tries < 20 * trials:
        tries += 1
        x = iso.base1 + rho * rng.uniform(-1.0, 1.0, size=n)
        try:
            y = iso.forward(x)
            back = iso.backward(y)
            h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
            jac_fd = np.zeros((n, n))
            for l in range(n):
                e = np.zeros(n)
                e[l] = h
                jac_fd[:, l] = (iso.forward(x + e) - iso.forward(x - e)) \
                    / (2.0 * h)
            db = 0.0
            for li in range(nletters):
                f1 = sys1.field_values(x, li)
                f2 = sys2.field_values(y, li)
                db = max(db, float(np.max(np.abs(jac_fd @ f1 - f2))))
            dc = float(np.max(np.abs(_readout_values(sys2, y)
                                     - _readout_values(sys1, x))))
        except (NewtonDiverged, DerivativeVanished, DomainViolation,
                DomainExit):
            skipped += 1
            continue
        if not np.isfinite(db) or not np.isfinite(dc):
            skipped += 1
            continue
        dev_a = max(dev_a, float(np.max(np.abs(back - x))))
        dev_b = max(dev_b, db)
        dev_c = max(dev_c, dc)
        probes += 1

    dev_d = 0.0
    words_done = 0
    wtries = 0
    nwords = max(10, trials // 5) if words is None else words
    while words_done < nwords and wtries < 20 * nwords:
        wtries += 1
        v = sample_inputs(sys1.alphabet, max(1, n), 0.5 * opts.budget,
                          1, rng)[0]
        try:
            t1 = sys1.terminal_state(iso.base1, v, opts.flow_tol)
            t2 = sys2.terminal_state(iso.base2, v, opts.flow_tol)
            mapped = iso.forward(t1)
        except (DomainExit, BlowUp, NewtonDiverged, DerivativeVanished):
            skipped += 1
            continue
        dev_d = max(dev_d, float(np.max(np.abs(mapped - t2))))
        words_done += 1

    passed = (probes >= max(1, trials // 2)
              and words_done >= max(1, nwords // 2)
              and dev_a <= tol and dev_b <= tol and dev_c <= tol
              and dev_d <= tol)
    return IsomorphismReport(dev_a, dev_b, dev_c, dev_d, tol, probes,
                             words_done, skipped, passed)
