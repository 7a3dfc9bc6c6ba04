"""Reachability and observability reduction to locally minimal realizations.

Both procedures follow the same shape: estimate a transcendence degree d,
pick a transcendence basis, fit polynomial relations expressing everything
else over the basis, sample a short shift input making every relation's
T-derivative nondegenerate at the shifted point, and assemble a reduced
d-dimensional system whose vector fields and readout are Newton-backed
implicit-function evaluations of the fitted relations. Reduced systems are
evaluator compositions, never re-fitted symbolic expressions; a
best-effort polynomial resymbolization is exported for inspection only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .config import RunConfig
from .errors import (AlphabetMismatch, DerivativeVanished, DomainExit,
                     FitFailure, NewtonDiverged, NoValidShiftInput,
                     NotReachableInput)
from .expr import lie_derivative, stacked_evaluator, tangent_evaluator
from .analysis import (FuncGenerator, PolynomialRelation, TranscendenceReport,
                       estimate_reachable_trdeg, estimate_response_trdeg,
                       estimate_trdeg, fit_relation, generate_obs_algebra,
                       monomial_count, box_sampler)
from .inputs import GeneralizedInput, admissible, concat, sample_inputs
from .system import (DEFAULT_FLOW_TOL, Box, NashSystem, ResponseOracle,
                     SystemOracle, duration_sensitivities, integrate_segments,
                     shift_oracle)

NEWTON_MAX_ITER = 50


# ----------------------------------------------------------- implicit maps


class ImplicitMap:
    """One scalar branch T = G(z) of a relation Q(T, z) = 0.

    The base point pins the branch: Newton always starts from the
    continuation value supplied by the caller (fallback: the base), so the
    map follows the solution sheet through (q*, z*) rather than jumping to
    another root.
    """

    def __init__(self, relation: PolynomialRelation, base_z, base_q: float,
                 newton_tol: float = 1e-12, max_iter: int = NEWTON_MAX_ITER,
                 derivative_floor: float = 1e-6, polish: bool = True):
        self.relation = relation
        self.base_z = np.asarray(base_z, dtype=float)
        self.newton_tol = newton_tol
        self.max_iter = max_iter
        self.derivative_floor = derivative_floor
        self.validity_radius = math.inf
        self.base_q = float(base_q)
        if polish:
            # pin Q(q*, z*) = 0 to Newton tolerance, not just fit tolerance
            self.base_q = self.solve(self.base_z, q0=float(base_q))

    def solve(self, z, q0: Optional[float] = None) -> float:
        """G(z) by Newton's method from q0 (default: the base value).

        The z-part of every term is computed once, which leaves Q(., z)
        as a polynomial in T; each iterate evaluates it, its monomial
        scale and dQ/dT by Horner's rule. An iterate is accepted when
        |Q| <= newton_tol * max(1, scale). Raises DerivativeVanished when
        |dQ/dT| falls below derivative_floor, NewtonDiverged on a
        nonfinite value or iterate or after max_iter steps.
        """
        at = self.relation._in_T(np.asarray(z, dtype=float).tolist())
        q = self.base_q if q0 is None else float(q0)
        for _ in range(self.max_iter):
            val, scale, d = at(q)
            if not math.isfinite(val):
                raise NewtonDiverged("nonfinite relation value")
            if abs(val) <= self.newton_tol * max(1.0, scale):
                return q
            if abs(d) < self.derivative_floor:
                raise DerivativeVanished(
                    f"|dQ/dT| = {abs(d):.3e} below floor at iterate")
            q = q - val / d
            if not math.isfinite(q):
                raise NewtonDiverged("Newton iterate diverged")
        raise NewtonDiverged(f"no convergence in {self.max_iter} steps")

    def grad(self, z, q: Optional[float] = None) -> np.ndarray:
        """dG/dz by exact implicit differentiation at the solved branch."""
        z = np.asarray(z, dtype=float)
        if q is None:
            q = self.solve(z)
        d, dz = self.relation.gradient(q, z)
        if abs(d) < self.derivative_floor:
            raise DerivativeVanished("implicit derivative below floor")
        return -dz / d

    def to_json(self) -> dict:
        return {
            "relation": self.relation.to_json(),
            "base_z": [float(v) for v in self.base_z],
            "base_q": self.base_q,
            "newton_tol": self.newton_tol,
            "max_iter": self.max_iter,
            "derivative_floor": self.derivative_floor,
            "validity_radius":
                None if math.isinf(self.validity_radius)
                else self.validity_radius,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ImplicitMap":
        m = cls(PolynomialRelation.from_json(data["relation"]),
                data["base_z"], data["base_q"],
                newton_tol=data["newton_tol"], max_iter=data["max_iter"],
                derivative_floor=data["derivative_floor"], polish=False)
        r = data.get("validity_radius")
        m.validity_radius = math.inf if r is None else float(r)
        return m


def probe_radius(m: ImplicitMap, rng: np.random.Generator,
                 rays: int = 16) -> float:
    """Half the distance to the nearest Newton failure along random rays
    from the base point; sets and returns the map's validity radius."""
    d = m.base_z.size
    if d == 0:
        m.validity_radius = math.inf
        return m.validity_radius
    r0 = 1e-2 * (1.0 + float(np.linalg.norm(m.base_z)))
    rmax = 100.0 * (1.0 + float(np.linalg.norm(m.base_z)))
    dists = []
    for _ in range(rays):
        direction = rng.normal(size=d)
        nrm = np.linalg.norm(direction)
        if nrm == 0.0:
            continue
        direction /= nrm
        q = m.base_q
        r = r0
        fail = None
        while r <= rmax:
            try:
                q = m.solve(m.base_z + r * direction, q0=q)
            except (NewtonDiverged, DerivativeVanished):
                fail = r
                break
            r *= 2.0
        dists.append(rmax if fail is None else 0.5 * fail)
    m.validity_radius = min(dists) if dists else rmax
    return m.validity_radius


# ------------------------------------------------------- reduced systems


class LocalRealization:
    """Base for evaluator-backed reduced systems.

    Subclasses provide _session(warm) -> (rhs_for_letter, tangent), the
    closures of one integration: the field per letter and, per letter,
    z -> (f(z), Df(z)) from the same Newton solves, whose continuation
    state lives in the dict `warm`; and readout_values and
    readout_and_jacobian. Each flow starts a fresh session, so no warm
    start passes from one flow to the next. Trajectories that push an
    implicit map off its branch surface as DomainExit.
    """

    provenance: str
    dimension: int
    alphabet = None
    r: int
    x0: np.ndarray
    shift_input: GeneralizedInput
    radius: float

    @property
    def n(self) -> int:
        return self.dimension

    @cached_property
    def _box(self) -> Box:
        # a chart is all of R^d: no exit event, only finite end states
        return Box.unbounded(self.dimension)

    def _session(self, warm: dict):
        raise NotImplementedError

    def readout_values(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _readout_and_jacobian(self, z: np.ndarray):
        raise NotImplementedError

    def readout_and_jacobian(self, z: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
        """h(z) and Dh(z), r x d; a Newton failure raises DomainExit, as
        in respond."""
        try:
            return self._readout_and_jacobian(np.asarray(z, dtype=float))
        except (NewtonDiverged, DerivativeVanished) as exc:
            raise DomainExit(f"readout left the chart: {exc}") from exc

    def field_values(self, z, letter: int) -> np.ndarray:
        """f^V_alpha(z), one evaluation outside any integration."""
        rhs = self._session({})[0](letter)
        return np.asarray(rhs(0.0, np.asarray(z, dtype=float)))

    def terminal_state(self, z, u: GeneralizedInput,
                       tol: float = DEFAULT_FLOW_TOL) -> np.ndarray:
        """Terminal state of u from z: one flow on a fresh session."""
        if u.alphabet != self.alphabet:
            raise AlphabetMismatch("word alphabet differs from system")
        try:
            return integrate_segments(self._session({})[0], self._box,
                                      np.asarray(z, dtype=float), u.word,
                                      tol).terminal
        except (NewtonDiverged, DerivativeVanished) as exc:
            raise DomainExit(_CHART_EXIT.format(exc)) from exc

    def duration_sensitivities(self, z, u: GeneralizedInput,
                               suffixes: Sequence[GeneralizedInput],
                               tol: float = DEFAULT_FLOW_TOL):
        """Terminal state and duration Jacobian of u, continued along each
        suffix; see system.duration_sensitivities."""
        for w in (u, *suffixes):
            if w.alphabet != self.alphabet:
                raise AlphabetMismatch("word alphabet differs from system")
        return _chart_exits(duration_sensitivities(
            self._session, self._box, np.asarray(z, dtype=float), u.word,
            [s.word for s in suffixes], tol))

    def respond(self, u: GeneralizedInput,
                tol: float = DEFAULT_FLOW_TOL) -> np.ndarray:
        term = self.terminal_state(self.x0, u, tol)
        try:
            out = self.readout_values(term)
        except (NewtonDiverged, DerivativeVanished) as exc:
            raise DomainExit(f"readout left the chart: {exc}") from exc
        if not np.all(np.isfinite(out)):
            raise DomainExit("readout not finite on the chart boundary")
        return out

    def to_json(self) -> dict:
        raise NotImplementedError


_CHART_EXIT = "trajectory left the chart validity region: {}"


def _chart_exits(states):
    """states, with a Newton failure of the chart raised as DomainExit."""
    try:
        yield from states
    except (NewtonDiverged, DerivativeVanished) as exc:
        raise DomainExit(_CHART_EXIT.format(exc)) from exc


class ReachReduced(LocalRealization):
    """Chart on the reachable set: state = basis coordinates, the rest of
    the original state reconstructed by implicit maps."""

    def __init__(self, parent: NashSystem, basis_idx: Sequence[int],
                 maps: dict, x0, shift_input: GeneralizedInput,
                 radius: float, provenance: str = "REACH_REDUCED"):
        self.parent = parent
        self.basis_idx = tuple(int(i) for i in basis_idx)
        self.maps = dict(maps)  # nonbasis coordinate index -> ImplicitMap
        self.x0 = np.asarray(x0, dtype=float)
        self.shift_input = shift_input
        self.radius = radius
        self.provenance = provenance
        self.dimension = len(self.basis_idx)
        self.alphabet = parent.alphabet
        self.r = parent.r

    def lift(self, z, warm: Optional[dict] = None) -> np.ndarray:
        """G(z): the full original state over the chart point z."""
        z = np.asarray(z, dtype=float)
        x = np.empty(self.parent.n)
        x[list(self.basis_idx)] = z
        for i, m in self.maps.items():
            q0 = warm.get(i) if warm is not None else None
            x[i] = m.solve(z, q0=q0)
            if warm is not None:
                warm[i] = x[i]
        return x

    def lift_jacobian(self, z, x: Optional[np.ndarray] = None) -> np.ndarray:
        """DG(z), n x d; basis rows are unit vectors, the rest implicit."""
        z = np.asarray(z, dtype=float)
        if x is None:
            x = self.lift(z)
        J = np.zeros((self.parent.n, self.dimension))
        for l, i in enumerate(self.basis_idx):
            J[i, l] = 1.0
        for i, m in self.maps.items():
            J[i] = m.grad(z, q=x[i])
        return J

    @cached_property
    def _basis_kernels(self) -> tuple:
        """Per letter, the basis rows of the parent's field."""
        return tuple(stacked_evaluator([f[i] for i in self.basis_idx])
                     for f in self.parent.fields)

    @cached_property
    def _basis_tangent_kernels(self) -> tuple:
        """Per letter, the basis rows of the parent's field and of its
        Jacobian."""
        return tuple(tangent_evaluator([f[i] for i in self.basis_idx])
                     for f in self.parent.fields)

    def _session(self, warm: dict):
        def rhs_for_letter(li: int):
            kernel = self._basis_kernels[li]

            def f(_t, zz):
                return kernel(self.lift(zz, warm))

            return f

        def tangent(li: int):
            kernel = self._basis_tangent_kernels[li]

            def g(zz):
                x = self.lift(zz, warm)
                fx, jac = kernel(x)
                return fx, jac @ self.lift_jacobian(zz, x)

            return g

        return rhs_for_letter, tangent

    def readout_values(self, z: np.ndarray) -> np.ndarray:
        return self.parent.readout_values(self.lift(z))

    def _readout_and_jacobian(self, z: np.ndarray):
        x = self.lift(z)
        h, dh = self.parent.readout_and_jacobian(x)
        return h, dh @ self.lift_jacobian(z, x)

    def to_json(self) -> dict:
        return {
            "provenance": self.provenance,
            "dimension": self.dimension,
            "basis_idx": list(self.basis_idx),
            "maps": {str(i): m.to_json() for i, m in self.maps.items()},
            "x0": [float(v) for v in self.x0],
            "shift_input": self.shift_input.to_json(),
            "radius": None if math.isinf(self.radius) else self.radius,
        }

    @classmethod
    def from_json(cls, parent: NashSystem, data: dict) -> "ReachReduced":
        maps = {int(k): ImplicitMap.from_json(v)
                for k, v in data["maps"].items()}
        radius = data.get("radius")
        return cls(parent, data["basis_idx"], maps, data["x0"],
                   GeneralizedInput.from_json(data["shift_input"],
                                              parent.alphabet),
                   math.inf if radius is None else float(radius),
                   provenance=data.get("provenance", "REACH_REDUCED"))


class ObsReduced(LocalRealization):
    """State = transcendence basis of the observation algebra; dynamics
    and readout are implicit maps of the fitted relations."""

    def __init__(self, alphabet, r: int, maps_f, maps_h, x0,
                 shift_input: GeneralizedInput, radius: float,
                 provenance: str = "OBS_REDUCED", stages=()):
        self.alphabet = alphabet
        self.r = r
        self.maps_f = tuple(tuple(row) for row in maps_f)
        self.maps_h = tuple(maps_h)
        self.x0 = np.asarray(x0, dtype=float)
        self.shift_input = shift_input
        self.radius = radius
        self.provenance = provenance
        self.stages = tuple(stages)
        self.dimension = len(self.maps_f[0]) if self.maps_f else len(x0)

    def _session(self, warm: dict):
        def rhs_for_letter(li: int):
            row = self.maps_f[li]

            def f(_t, zz):
                out = np.empty(len(row))
                for l, m in enumerate(row):
                    q0 = warm.get((li, l))
                    out[l] = m.solve(zz, q0=q0)
                    warm[(li, l)] = out[l]
                return out

            return f

        def tangent(li: int):
            row, rhs = self.maps_f[li], rhs_for_letter(li)

            def g(zz):
                out = rhs(0.0, zz)
                return out, np.array([m.grad(zz, q=q)
                                      for m, q in zip(row, out)])

            return g

        return rhs_for_letter, tangent

    def readout_values(self, z: np.ndarray) -> np.ndarray:
        return np.array([m.solve(z) for m in self.maps_h])

    def _readout_and_jacobian(self, z: np.ndarray):
        h = self.readout_values(z)
        return h, np.array([m.grad(z, q=q) for m, q in zip(self.maps_h, h)])

    def to_json(self) -> dict:
        data = {
            "provenance": self.provenance,
            "dimension": self.dimension,
            "r": self.r,
            "alphabet": self.alphabet.to_json(),
            "maps_f": [[m.to_json() for m in row] for row in self.maps_f],
            "maps_h": [m.to_json() for m in self.maps_h],
            "x0": [float(v) for v in self.x0],
            "shift_input": self.shift_input.to_json(),
            "radius": None if math.isinf(self.radius) else self.radius,
        }
        if self.stages:
            data["stages"] = [s.to_json() for s in self.stages]
        return data

    @classmethod
    def from_json(cls, alphabet, data: dict,
                  stages=()) -> "ObsReduced":
        radius = data.get("radius")
        return cls(alphabet, int(data["r"]),
                   [[ImplicitMap.from_json(m) for m in row]
                    for row in data["maps_f"]],
                   [ImplicitMap.from_json(m) for m in data["maps_h"]],
                   data["x0"],
                   GeneralizedInput.from_json(data["shift_input"], alphabet),
                   math.inf if radius is None else float(radius),
                   provenance=data.get("provenance", "OBS_REDUCED"),
                   stages=stages)


def realization_from_json(data: dict, parent: NashSystem) -> LocalRealization:
    """Re-instantiate a serialized realization against its original
    system file."""
    prov = data["provenance"]
    if prov == "REACH_REDUCED":
        return ReachReduced.from_json(parent, data)
    if prov == "OBS_REDUCED":
        return ObsReduced.from_json(parent.alphabet, data)
    if prov == "MINIMIZED":
        stage1 = ReachReduced.from_json(parent, data["stages"][0])
        stage2 = ObsReduced.from_json(parent.alphabet, data["stages"][1])
        red = ObsReduced.from_json(parent.alphabet, data,
                                   stages=(stage1, stage2))
        return red
    raise ValueError(f"unknown provenance {prov!r}")


# ------------------------------------------------------------ verification


@dataclass(frozen=True)
class VerificationReport:
    max_deviation: float
    tol: float
    evaluated: int
    skipped: int
    failures: tuple
    passed: bool

    def to_json(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "tol": self.tol,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "failures": [{"word": w, "deviation": d}
                         for w, d in self.failures],
            "passed": self.passed,
        }


def verify_local_realization(red: LocalRealization, oracle: ResponseOracle,
                             trials: int = 100, time_budget: float = 0.5,
                             tol: float = 1e-6, seed=None,
                             max_letters: int = 3,
                             flow_tol: float = DEFAULT_FLOW_TOL
                             ) -> VerificationReport:
    """Compare the reduced system's response against the shifted oracle on
    random words. Words inadmissible on either side are skipped and
    replaced (they are data, not failures)."""
    rng = np.random.default_rng(seed)
    shifted = shift_oracle(oracle, red.shift_input)
    words = itertools.chain(
        [GeneralizedInput.empty(red.alphabet)],
        (sample_inputs(red.alphabet, max_letters, time_budget, 1, rng)[0]
         for _ in range(4 * trials - 1)))

    def deviation(w):
        return w, float(np.max(np.abs(shifted.respond(w)
                                      - red.respond(w, flow_tol))))

    done, skipped = admissible(words, deviation, max(1, trials))
    max_dev = max([0.0] + [dev for _, dev in done])
    failures = tuple((w.to_json(), dev) for w, dev in done if dev > tol)
    passed = not failures and len(done) >= max(1, trials // 2)
    return VerificationReport(max_dev, tol, len(done), skipped, failures,
                              passed)


# ----------------------------------------------------------- shared pieces


def _fit_sample_count(nbasis: int, degree_bound: int) -> int:
    # fit split keeps 80%; scanning degree D needs 3x its monomial count
    m = monomial_count(nbasis + 1, degree_bound)
    return int(math.ceil(3.8 * m)) + 25


def _sample_shift_word(alphabet, n: int, epsilon: float,
                       rng: np.random.Generator) -> GeneralizedInput:
    while True:
        u = sample_inputs(alphabet, max(1, n), epsilon, 1, rng)[0]
        if 0.0 < u.total_time < epsilon:
            return u


def _pick_nondegenerate(rel: PolynomialRelation, q: float, z: np.ndarray,
                        floor: float) -> Optional[PolynomialRelation]:
    """The fitted relation, or an alternate of the same minimal degree,
    whose T-derivative clears the floor at (q, z); None if none does."""
    cands = (rel,) + tuple(rel.alternates)
    best, best_d = None, floor
    for c in cands:
        d = abs(c.dT(q, z))
        if d > best_d:
            best, best_d = c, d
    return best


def _build_chart(sys_like, nbasis: int, sample_targets, at_shift,
                 epsilon: float, opts: RunConfig, rng: np.random.Generator,
                 failure: str = "no shift input within epsilon made all "
                                "implicit derivatives nondegenerate"):
    """The step both reductions and the isomorphism share: fit a relation
    Q(T, z) = 0 for each target over the basis, draw shift words within
    epsilon until every relation (or an alternate of the same degree) has
    |dQ/dT| above the floor at the shifted point, and pin one implicit map
    per target there.

    sample_targets(S) gives, from S samples, one (values, basis values,
    message, report) per target, in order; a target that admits no
    relation raises FitFailure(message, report). at_shift(u) gives
    (state, [(q, z) per target]) after the shift word u and may raise
    DomainExit or BlowUp. Returns the shift word, its state, the maps in
    target order and their smallest validity radius.
    """
    relations = []
    for values, basis, message, report in sample_targets(
            _fit_sample_count(nbasis, opts.degree_bound)):
        rel = fit_relation(values, basis, opts.degree_bound, opts.fit_tol,
                           seed=rng)
        if rel is None:
            raise FitFailure(message, report=report)
        relations.append(rel)
    worst = None

    def nondegenerate(u):
        nonlocal worst
        state, points = at_shift(u)
        picks = []
        for rel, (q, z) in zip(relations, points):
            pick = _pick_nondegenerate(rel, q, z, opts.derivative_floor)
            if pick is None:
                worst = rel
                return None
            picks.append(pick)
        return u, state, points, picks

    found, _ = admissible(
        (_sample_shift_word(sys_like.alphabet, sys_like.n, epsilon, rng)
         for _ in range(10 * max(1, sys_like.n))), nondegenerate, 1)
    if not found:
        raise NoValidShiftInput(
            failure, relation=None if worst is None else worst.to_json())
    u, state, points, picks = found[0]
    maps = [ImplicitMap(rel, z, q, newton_tol=opts.newton_tol,
                        derivative_floor=opts.derivative_floor)
            for rel, (q, z) in zip(picks, points)]
    radius = min([math.inf] + [probe_radius(m, rng, opts.probe_rays)
                               for m in maps])
    return u, state, maps, radius


def _gate(red: LocalRealization, oracle: ResponseOracle, opts: RunConfig,
          rng: np.random.Generator) -> None:
    rep = verify_local_realization(
        red, oracle, trials=20, time_budget=0.25 * opts.budget,
        tol=1e-6, seed=rng, flow_tol=opts.flow_tol)
    if not rep.passed:
        raise FitFailure("reduced realization failed input-output "
                         "verification", report=rep.to_json())


# -------------------------------------------------------------- procedure 1


def _sample_reachable_states(sys, count: int, opts: RunConfig,
                             rng: np.random.Generator) -> np.ndarray:
    cap = 11 * count    # count states and up to 10 * count redraws
    states, _ = admissible(
        (sample_inputs(sys.alphabet, max(1, sys.n), opts.budget, 1, rng)[0]
         for _ in range(cap)),
        lambda w: sys.terminal_state(sys.x0, w, opts.flow_tol), count)
    if len(states) < count:
        raise DomainExit(f"only {len(states)} of {count} reachable-state "
                         f"words stayed in the domain in {cap} draws")
    return np.array(states)


def reachability_reduce(sys: NashSystem, oracle: ResponseOracle,
                        epsilon: float, opts: Optional[RunConfig] = None,
                        rng=None) -> ReachReduced:
    """Reduce to a chart on the reachable set.

    Steps: transcendence basis among coordinate functions (greedy
    pivoting), per-coordinate relation fits over reachable samples, shift
    input with all T-derivatives nondegenerate, implicit maps, post-checks.
    """
    opts = opts if opts is not None else RunConfig()
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(opts.seed if rng is None else rng)

    reach = estimate_reachable_trdeg(
        sys, max_letters=sys.n, count=4,
        rank_tol=opts.rank_tol, seed=rng, time_budget=opts.budget,
        flow_tol=opts.fd_flow_tol, gap_factor=opts.gap_factor)
    d = reach.estimated_trdeg
    if d == 0:
        raise FitFailure("reachable set is zero-dimensional; no chart",
                         report=reach.to_json())
    basis_idx = tuple(sorted(reach.basis_indices))
    nonbasis = [i for i in range(sys.n) if i not in basis_idx]

    def sample_targets(S):
        if not nonbasis:
            return []
        states = _sample_reachable_states(sys, S, opts, rng)
        B = states[:, list(basis_idx)]
        return [(states[:, i], B,
                 f"coordinate x{i + 1} admits no relation over the basis "
                 f"within degree {opts.degree_bound}",
                 {"coordinate": i, "degree_bound": opts.degree_bound})
                for i in nonbasis]

    def at_shift(u):
        x = sys.terminal_state(sys.x0, u, opts.flow_tol)
        z = x[list(basis_idx)]
        return z, [(x[i], z) for i in nonbasis]

    shift, zbar, maps, radius = _build_chart(sys, d, sample_targets,
                                             at_shift, epsilon, opts, rng)
    red = ReachReduced(sys, basis_idx, dict(zip(nonbasis, maps)), zbar,
                       shift, radius)

    post = estimate_reachable_trdeg(
        red, max_letters=d, count=4,
        rank_tol=opts.rank_tol, seed=rng, time_budget=opts.budget,
        flow_tol=opts.fd_flow_tol, gap_factor=opts.gap_factor)
    if post.estimated_trdeg != d:
        raise FitFailure(
            f"reduced system is not semi-algebraically reachable "
            f"(trdeg {post.estimated_trdeg} != {d})", report=post.to_json())
    _gate(red, oracle, opts, rng)
    return red


# -------------------------------------------------------------- procedure 2


class _ObsContext:
    """Observation-algebra access for a symbolic system (chart None) or a
    chart-reduced one. A chart works through its parent's algebra, by the
    identity (Lie derivative along the reduced field of g composed with
    the chart) = (Lie derivative of g) composed with the chart."""

    def __init__(self, sys_like, opts: RunConfig):
        self.chart = None if isinstance(sys_like, NashSystem) else sys_like
        self.sys = sys_like if self.chart is None else sys_like.parent
        self.opts = opts
        depth = max(opts.depth, self.sys.n - 1)
        self.generators = generate_obs_algebra(self.sys, depth,
                                               opts.max_terms).generators

    def sampler(self, rng):
        red = self.chart
        if red is None:
            return box_sampler(self.sys.domain, self.sys.x0, 0.5, rng)
        rho = 0.3 * (1.0 + float(np.linalg.norm(red.x0)))
        if math.isfinite(red.radius):
            rho = min(rho, 0.49 * red.radius)

        def liftable(z):
            red.lift(z)
            return z

        def sample(count: int) -> np.ndarray:
            pts, _ = admissible(
                (red.x0 + rho * rng.uniform(-1.0, 1.0, size=red.dimension)
                 for _ in range(100 * count)),
                liftable, count, skip=(NewtonDiverged, DerivativeVanished))
            if len(pts) < count:
                raise DomainExit("chart neighborhood sampling kept failing")
            return np.array(pts)

        return sample

    def lift(self, state) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        return state if self.chart is None else self.chart.lift(state)

    def rank_generators(self):
        """The generators themselves, so polynomial ones keep the exact
        rank; on a chart, each composed with the chart map."""
        red = self.chart
        if red is None:
            return self.generators
        out = []
        for g in self.generators:
            def grad(z, kernel=stacked_evaluator(g.gradient())):
                x = red.lift(z)
                return red.lift_jacobian(z, x).T @ kernel(x)

            out.append(FuncGenerator(grad, label=str(g)))
        return out

    def trdeg(self, rng) -> TranscendenceReport:
        """Transcendence degree of the observation algebra near the base
        state."""
        return estimate_trdeg(self.rank_generators(), self.sampler(rng),
                              count=4, rank_tol=self.opts.rank_tol,
                              gap_factor=self.opts.gap_factor)


def observability_reduce(sys_like, oracle: ResponseOracle, epsilon: float,
                         opts: Optional[RunConfig] = None,
                         rng=None) -> ObsReduced:
    """Reduce a reachable system to a transcendence basis of its
    observation algebra.

    Accepts a symbolic system or a chart-reduced one; the latter works
    through the parent's symbolic observation algebra composed with the
    chart map.
    """
    opts = opts if opts is not None else RunConfig()
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(opts.seed if rng is None else rng)

    reach = estimate_reachable_trdeg(
        sys_like, max_letters=sys_like.n, count=4,
        rank_tol=opts.rank_tol, seed=rng, time_budget=opts.budget,
        flow_tol=opts.fd_flow_tol, gap_factor=opts.gap_factor)
    if reach.estimated_trdeg != sys_like.n:
        raise NotReachableInput(
            f"observability reduction requires a semi-algebraically "
            f"reachable input (reachable trdeg {reach.estimated_trdeg} "
            f"< dim {sys_like.n})")

    ctx = _ObsContext(sys_like, opts)
    rank_report = ctx.trdeg(rng)
    d = rank_report.estimated_trdeg
    if d == 0:
        raise FitFailure("observation algebra has transcendence degree 0",
                         report=rank_report.to_json())
    phi = [ctx.generators[i] for i in rank_report.basis_indices]
    alphabet = sys_like.alphabet
    nletters = len(alphabet)
    readout = ctx.sys.readout
    # targets: the basis functions' derivatives, letter-major, then the
    # readout components
    exprs = [lie_derivative(ctx.sys.fields[li], g)
             for li in range(nletters) for g in phi] + list(readout)
    failures = [
        (f"derivative of basis function {i} along letter "
         f"{alphabet.names[li]!r} admits no relation within degree "
         f"{opts.degree_bound}", {"letter": alphabet.names[li], "basis": i})
        for li in range(nletters) for i in range(d)]
    failures += [(f"readout component {j} admits no relation within "
                  f"degree {opts.degree_bound}", {"output": j})
                 for j in range(len(readout))]

    phi_at, targets_at = stacked_evaluator(phi), stacked_evaluator(exprs)

    def sample_targets(S):
        X = np.array([ctx.lift(z) for z in ctx.sampler(rng)(S)])
        PHI = np.array([phi_at(x) for x in X])
        targets = np.array([targets_at(x) for x in X])
        return [(targets[:, k], PHI, msg, report)
                for k, (msg, report) in enumerate(failures)]

    def at_shift(u):
        x = ctx.lift(sys_like.terminal_state(sys_like.x0, u, opts.flow_tol))
        z = phi_at(x)
        return z, [(float(v), z) for v in targets_at(x)]

    shift, zbar, maps, radius = _build_chart(sys_like, d, sample_targets,
                                             at_shift, epsilon, opts, rng)
    maps_f = [maps[li * d:(li + 1) * d] for li in range(nletters)]
    red = ObsReduced(alphabet, len(readout), maps_f, maps[nletters * d:],
                     zbar, shift, radius)

    post_reach = estimate_reachable_trdeg(
        red, max_letters=d, count=4,
        rank_tol=opts.rank_tol, seed=rng, time_budget=opts.budget,
        flow_tol=opts.fd_flow_tol, gap_factor=opts.gap_factor)
    if post_reach.estimated_trdeg != d:
        raise FitFailure(
            f"observability-reduced system lost reachability "
            f"(trdeg {post_reach.estimated_trdeg} != {d})",
            report=post_reach.to_json())
    post_resp = estimate_response_trdeg(
        SystemOracle(red, tol=opts.flow_tol), depth=opts.depth,
        max_letters=d, count=3, fd_step=opts.fd_step,
        rank_tol=opts.rank_tol, seed=rng, time_budget=opts.budget,
        flow_tol=opts.fd_flow_tol, gap_factor=opts.gap_factor)
    if post_resp.estimated_trdeg != d:
        raise FitFailure(
            f"observability-reduced system is not observable: response "
            f"trdeg {post_resp.estimated_trdeg} != dim {d}",
            report=post_resp.to_json())
    _gate(red, oracle, opts, rng)
    return red


def minimize(sys: NashSystem, oracle: ResponseOracle, epsilon: float,
             opts: Optional[RunConfig] = None, rng=None) -> ObsReduced:
    """Reachability reduction then observability reduction, half the shift
    budget each; the result's dimension equals the response map's
    transcendence degree."""
    opts = opts if opts is not None else RunConfig()
    rng = np.random.default_rng(opts.seed if rng is None else rng)
    stage1 = reachability_reduce(sys, oracle, epsilon / 2.0, opts, rng)
    shifted = shift_oracle(oracle, stage1.shift_input)
    stage2 = observability_reduce(stage1, shifted, epsilon / 2.0, opts, rng)
    total_shift = concat(stage1.shift_input, stage2.shift_input)
    red = ObsReduced(stage2.alphabet, stage2.r, stage2.maps_f,
                     stage2.maps_h, stage2.x0, total_shift, stage2.radius,
                     provenance="MINIMIZED", stages=(stage1, stage2))
    resp = estimate_response_trdeg(
        oracle, depth=opts.depth, max_letters=sys.n, count=3,
        fd_step=opts.fd_step, rank_tol=opts.rank_tol, seed=rng,
        time_budget=opts.budget, flow_tol=opts.fd_flow_tol,
        gap_factor=opts.gap_factor)
    if red.dimension != resp.estimated_trdeg:
        raise FitFailure(
            f"minimized dimension {red.dimension} != response "
            f"transcendence degree {resp.estimated_trdeg}",
            report=resp.to_json())
    _gate(red, oracle, opts, rng)
    return red


# ------------------------------------------------------------- export aid


def resymbolize(red: LocalRealization, degree: int = 3, samples: int = 200,
                seed=0) -> dict:
    """Best-effort polynomial regression of the reduced vector fields and
    readout for inspection; never used in verification."""
    rng = np.random.default_rng(seed)
    d = red.dimension
    rho = 0.2 * (1.0 + float(np.linalg.norm(red.x0)))
    if math.isfinite(red.radius):
        rho = min(rho, 0.4 * red.radius)

    def readable(z):
        red.readout_values(z)
        return z

    pts, _ = admissible((red.x0 + rho * rng.uniform(-1.0, 1.0, size=d)
                         for _ in range(20 * samples)), readable, samples,
                        skip=(NewtonDiverged, DerivativeVanished))
    Z = np.array(pts)
    from .analysis import _monomials
    monos = _monomials(d, degree)
    A = np.column_stack([np.prod(Z ** np.asarray(e), axis=1) for e in monos])

    def fit_columns(values: np.ndarray) -> tuple[list, float]:
        coef, *_ = np.linalg.lstsq(A, values, rcond=None)
        resid = float(np.max(np.abs(A @ coef - values))) if len(values) else 0.0
        keep = np.abs(coef) > 1e-10
        return ([{"exps": list(map(int, monos[i])), "coeff": float(coef[i])}
                 for i in np.flatnonzero(keep)], resid)

    out = {"degree": degree, "fields": {}, "readout": [], "max_residual": 0.0}
    worst = 0.0
    for li, name in enumerate(red.alphabet.names):
        comps = []
        F = np.array([red.field_values(z, li) for z in Z])
        for c in range(d):
            terms, resid = fit_columns(F[:, c])
            worst = max(worst, resid)
            comps.append(terms)
        out["fields"][name] = comps
    H = np.array([red.readout_values(z) for z in Z])
    for j in range(red.r):
        terms, resid = fit_columns(H[:, j])
        worst = max(worst, resid)
        out["readout"].append(terms)
    out["max_residual"] = worst
    return out
