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

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import RunConfig
from .errors import (BlowUp, DerivativeVanished, DimensionMismatch,
                     DomainExit, DomainViolation, FitFailure,
                     NashRealizeError, NewtonDiverged, NotBijective)
from .analysis import estimate_reachable_trdeg, estimate_response_trdeg
from .inputs import GeneralizedInput, admissible, sample_inputs
from .reduction import ReachReduced, _build_chart, _ObsContext
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
    own = SystemOracle(sys, tol=opts.flow_tol)
    # the empty word, then 14 draws and up to 39 replacements
    words = itertools.chain(
        [GeneralizedInput.empty(sys.alphabet)],
        (sample_inputs(sys.alphabet, min(3, max(1, sys.n)),
                       0.25 * opts.budget, 1, rng)[0] for _ in range(53)))
    devs, _ = admissible(
        words, lambda w: float(np.max(np.abs(oracle.respond(w)
                                             - own.respond(w)))), 15)
    max_dev = max([0.0] + devs)
    return (len(devs) >= 5 and max_dev <= 1e-6), max_dev


def check_minimality(sys, oracle: ResponseOracle,
                     opts: Optional[RunConfig] = None,
                     rng=None) -> MinimalityVerdict:
    """Three-way minimality verdict with cross-checked evidence.

    With a table-backed oracle only the dimension-vs-response comparison
    can run; reachability and observability are reported NOT_EVALUATED.
    """
    opts = opts if opts is not None else RunConfig()
    rng = np.random.default_rng(opts.seed if rng is None else rng)
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
            sys, max_letters=n, count=4,
            rank_tol=opts.rank_tol, seed=rng, time_budget=opts.budget,
            flow_tol=opts.fd_flow_tol, gap_factor=opts.gap_factor)
        if isinstance(sys, (NashSystem, ReachReduced)):
            obs = _ObsContext(sys, opts).trdeg(rng)
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

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([m.solve(x) for m in self.xi1])

    def backward(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.array([m.solve(y) for m in self.xi2])

    def forward_jacobian(self, x, y=None) -> np.ndarray:
        """Exact implicit-differentiation Jacobian of the forward map at
        x; y, when given, is forward(x), which spares the solves."""
        x = np.asarray(x, dtype=float)
        return np.array([m.grad(x, q=None if y is None else y[j])
                         for j, m in enumerate(self.xi1)])

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
    rng = np.random.default_rng(opts.seed if rng is None else rng)
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

    def sample_targets(S):
        # shared reachable samples: words admissible for both systems
        pairs, _ = admissible(
            (sample_inputs(sys1.alphabet, max(1, n), opts.budget, 1, rng)[0]
             for _ in range(20 * S)),
            lambda w: (sys1.terminal_state(sys1.x0, w, opts.flow_tol),
                       sys2.terminal_state(sys2.x0, w, opts.flow_tol)), S)
        if len(pairs) < S:
            raise FitFailure("could not collect shared reachable samples")
        X1 = np.array([a for a, _ in pairs])
        X2 = np.array([b for _, b in pairs])
        # per coordinate: the second system's over the first, then back
        return [target for j in range(n) for target in (
            (X2[:, j], X1, f"coordinate {j + 1} of the second system "
             f"admits no relation over the first within degree "
             f"{opts.degree_bound}", None),
            (X1[:, j], X2, f"coordinate {j + 1} of the first system "
             f"admits no relation over the second within degree "
             f"{opts.degree_bound}", None))]

    def at_shift(u):
        a = sys1.terminal_state(sys1.x0, u, opts.flow_tol)
        b = sys2.terminal_state(sys2.x0, u, opts.flow_tol)
        return (a, b), [p for j in range(n) for p in ((b[j], a), (a[j], b))]

    shift, (base1, base2), maps, radius = _build_chart(
        sys1, n, sample_targets, at_shift, epsilon, opts, rng,
        failure="no shift input made the isomorphism relations "
                "nondegenerate")
    xi1, xi2 = maps[0::2], maps[1::2]

    iso = LocalIsomorphism(tuple(xi1), tuple(xi2), base1, base2, shift,
                           radius, np.eye(n), 0.0, 0.0, 0.0)
    # round-trip on probe points near the base
    rho = 0.3 * (1.0 + float(np.linalg.norm(base1)))
    if math.isfinite(radius):
        rho = min(rho, 0.49 * radius)
    devs, _ = admissible(
        (base1 + rho * rng.uniform(-1.0, 1.0, size=n) for _ in range(400)),
        lambda x: float(np.max(np.abs(iso.backward(iso.forward(x)) - x))),
        20, skip=(NewtonDiverged, DerivativeVanished))
    rt = max([0.0] + devs)
    if not devs or rt > opts.iso_tol:
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


def verify_isomorphism(iso: LocalIsomorphism, sys1, sys2,
                       trials: int = 100, tol: float = 1e-6,
                       opts: Optional[RunConfig] = None,
                       rng=None, words: Optional[int] = None
                       ) -> IsomorphismReport:
    """Four checks on probed points near the base: round-trip, field
    intertwining through the exact Jacobian of the forward map, readout
    match, and trajectory intertwining over random words."""
    opts = opts if opts is not None else RunConfig()
    rng = np.random.default_rng(opts.seed if rng is None else rng)
    n = iso.n
    rho = 0.25 * (1.0 + float(np.linalg.norm(iso.base1)))
    if math.isfinite(iso.radius):
        rho = min(rho, 0.4 * iso.radius)
    nletters = len(sys1.alphabet)

    def probe(x):
        """(round-trip, intertwining, readout) deviations at x; None when
        the intertwining or the readout deviation is not finite."""
        y = iso.forward(x)
        back = iso.backward(y)
        jac = iso.forward_jacobian(x, y)
        db = 0.0
        for li in range(nletters):
            f1 = sys1.field_values(x, li)
            f2 = sys2.field_values(y, li)
            db = max(db, float(np.max(np.abs(jac @ f1 - f2))))
        dc = float(np.max(np.abs(sys2.readout_values(y)
                                 - sys1.readout_values(x))))
        if not np.isfinite(db) or not np.isfinite(dc):
            return None
        return float(np.max(np.abs(back - x))), db, dc

    probed, skipped = admissible(
        (iso.base1 + rho * rng.uniform(-1.0, 1.0, size=n)
         for _ in range(20 * trials)), probe, trials,
        skip=(NewtonDiverged, DerivativeVanished, DomainViolation,
              DomainExit))
    dev_a, dev_b, dev_c = (max([0.0] + [p[k] for p in probed])
                           for k in range(3))

    def trajectory(v):
        t1 = sys1.terminal_state(iso.base1, v, opts.flow_tol)
        t2 = sys2.terminal_state(iso.base2, v, opts.flow_tol)
        return float(np.max(np.abs(iso.forward(t1) - t2)))

    nwords = max(10, trials // 5) if words is None else words
    traced, wskipped = admissible(
        (sample_inputs(sys1.alphabet, max(1, n), 0.5 * opts.budget, 1,
                       rng)[0] for _ in range(20 * nwords)), trajectory,
        nwords, skip=(DomainExit, BlowUp, NewtonDiverged, DerivativeVanished))
    dev_d = max([0.0] + traced)

    passed = (len(probed) >= max(1, trials // 2)
              and len(traced) >= max(1, nwords // 2)
              and dev_a <= tol and dev_b <= tol and dev_c <= tol
              and dev_d <= tol)
    return IsomorphismReport(dev_a, dev_b, dev_c, dev_d, tol, len(probed),
                             len(traced), skipped + wskipped, passed)
