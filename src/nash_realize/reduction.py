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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .config import RunConfig
from .errors import (AlphabetMismatch, BlowUp, DerivativeVanished,
                     DomainExit, FitFailure, NewtonDiverged,
                     NoValidShiftInput, NotReachableInput)
from .expr import NashExpr, lie_derivative, stacked_evaluator
from .analysis import (FuncGenerator, PolynomialRelation, TranscendenceReport,
                       estimate_reachable_trdeg, estimate_response_trdeg,
                       estimate_trdeg, fit_relation, generate_obs_algebra,
                       monomial_count, box_sampler)
from .inputs import GeneralizedInput, concat, sample_inputs
from .system import (DEFAULT_FLOW_TOL, Box, NashSystem, ResponseOracle,
                     SystemOracle, shift_oracle, terminal_states)

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
        rel = self.relation
        z = np.asarray(z, dtype=float)
        q = self.base_q if q0 is None else float(q0)
        for _ in range(self.max_iter):
            val, scale, d = rel.newton_terms(q, z)
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
        d = self.relation.dT(q, z)
        if abs(d) < self.derivative_floor:
            raise DerivativeVanished("implicit derivative below floor")
        return -self.relation.grad_z(q, z) / d

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


def implicit_solve(m: ImplicitMap, z) -> float:
    """Solve Q(T, z) = 0 for T on the map's branch (continuation warm
    starts are supplied by trajectory integrators via solve's q0)."""
    return m.solve(z)


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

    Subclasses provide _rhs_session(warm) (per-integration closures whose
    Newton continuation state lives in the dict `warm`) and
    readout_values. Trajectories that push an implicit map off its branch
    surface as DomainExit.
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

    def _rhs_session(self, warm: dict):
        raise NotImplementedError

    def readout_values(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def field_values(self, z, letter: int) -> np.ndarray:
        """f^V_alpha(z), one evaluation outside any integration."""
        rhs = self._rhs_session({})(letter)
        return np.asarray(rhs(0.0, np.asarray(z, dtype=float)))

    def terminal_states(self, z, words: Sequence[GeneralizedInput],
                        tol: float = DEFAULT_FLOW_TOL):
        """Terminal state of each word from z, in order, every shared
        prefix integrated once; each segment resumes the Newton warm
        starts its breakpoint had in the word integrated whole."""
        for u in words:
            if u.alphabet != self.alphabet:
                raise AlphabetMismatch("word alphabet differs from system")
        box = Box.unbounded(self.dimension)
        states = terminal_states(self._rhs_session, box.contains,
                                 np.asarray(z, dtype=float),
                                 [u.word for u in words], tol)
        return _chart_exits(states)

    def terminal_state(self, z, u: GeneralizedInput,
                       tol: float = DEFAULT_FLOW_TOL) -> np.ndarray:
        return next(self.terminal_states(z, [u], tol))

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


def _chart_exits(states):
    """states, with a Newton failure of the chart raised as DomainExit."""
    try:
        yield from states
    except (NewtonDiverged, DerivativeVanished) as exc:
        raise DomainExit(
            f"trajectory left the chart validity region: {exc}") from exc


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

    def _rhs_session(self, warm: dict):
        def rhs_for_letter(li: int):
            kernel = self._basis_kernels[li]

            def f(_t, zz):
                return kernel(self.lift(zz, warm))

            return f

        return rhs_for_letter

    def readout_values(self, z: np.ndarray) -> np.ndarray:
        return self.parent.readout_values(self.lift(z))

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

    def _rhs_session(self, warm: dict):
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

        return rhs_for_letter

    def readout_values(self, z: np.ndarray) -> np.ndarray:
        return np.array([m.solve(z) for m in self.maps_h])

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
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    shifted = shift_oracle(oracle, red.shift_input)
    words = [GeneralizedInput.empty(red.alphabet)]
    words += sample_inputs(red.alphabet, max_letters, time_budget,
                           max(0, trials - 1), rng)
    max_dev = 0.0
    evaluated = skipped = 0
    failures = []
    budget_draws = 4 * trials
    qi = 0
    while qi < len(words):
        w = words[qi]
        qi += 1
        try:
            want = shifted.respond(w)
            got = red.respond(w, flow_tol)
        except (DomainExit, BlowUp):
            skipped += 1
            if len(words) < budget_draws:
                words += sample_inputs(red.alphabet, max_letters,
                                       time_budget, 1, rng)
            continue
        dev = float(np.max(np.abs(want - got)))
        max_dev = max(max_dev, dev)
        evaluated += 1
        if dev > tol:
            failures.append((w.to_json(), dev))
    passed = not failures and evaluated >= max(1, trials // 2)
    return VerificationReport(max_dev, tol, evaluated, skipped,
                              tuple(failures), passed)


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
    states = []
    attempts = 0
    while len(states) < count:
        w = sample_inputs(sys.alphabet, max(1, sys.n), opts.budget, 1, rng)[0]
        try:
            x = sys.terminal_state(sys.x0, w, opts.flow_tol)
        except (DomainExit, BlowUp):
            attempts += 1
            if attempts > 10 * count:
                raise
            continue
        states.append(x)
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
    rng = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(opts.seed if rng is None else rng)

    reach = estimate_reachable_trdeg(
        sys, max_letters=sys.n, count=4, fd_step=opts.fd_step,
        rank_tol=opts.rank_tol, seed=rng, time_budget=opts.budget,
        flow_tol=opts.fd_flow_tol, gap_factor=opts.gap_factor)
    d = reach.estimated_trdeg
    if d == 0:
        raise FitFailure("reachable set is zero-dimensional; no chart",
                         report=reach.to_json())
    basis_idx = tuple(sorted(reach.basis_indices))
    nonbasis = [i for i in range(sys.n) if i not in basis_idx]

    relations: dict[int, PolynomialRelation] = {}
    if nonbasis:
        S = _fit_sample_count(d, opts.degree_bound)
        states = _sample_reachable_states(sys, S, opts, rng)
        B = states[:, list(basis_idx)]
        for i in nonbasis:
            rel = fit_relation(states[:, i], B, opts.degree_bound,
                               opts.fit_tol, seed=rng)
            if rel is None:
                raise FitFailure(
                    f"coordinate x{i + 1} admits no relation over the "
                    f"basis within degree {opts.degree_bound}",
                    report={"coordinate": i,
                            "degree_bound": opts.degree_bound})
            relations[i] = rel

    chosen: dict[int, PolynomialRelation] = {}
    shift = xbar = None
    worst = None
    for _ in range(10 * max(1, sys.n)):
        u = _sample_shift_word(sys.alphabet, sys.n, epsilon, rng)
        try:
            x = sys.terminal_state(sys.x0, u, opts.flow_tol)
        except (DomainExit, BlowUp):
            continue
        z = x[list(basis_idx)]
        trial: dict[int, PolynomialRelation] = {}
        ok = True
        for i, rel in relations.items():
            pick = _pick_nondegenerate(rel, x[i], z, opts.derivative_floor)
            if pick is None:
                ok = False
                worst = rel
                break
            trial[i] = pick
        if ok:
            shift, xbar, chosen = u, x, trial
            break
    if shift is None:
        raise NoValidShiftInput(
            "no shift input within epsilon made all implicit derivatives "
            "nondegenerate",
            relation=None if worst is None else worst.to_json())

    zbar = xbar[list(basis_idx)]
    maps: dict[int, ImplicitMap] = {}
    radius = math.inf
    for i, rel in chosen.items():
        m = ImplicitMap(rel, zbar, xbar[i], newton_tol=opts.newton_tol,
                        derivative_floor=opts.derivative_floor)
        radius = min(radius, probe_radius(m, rng, opts.probe_rays))
        maps[i] = m

    red = ReachReduced(sys, basis_idx, maps, zbar, shift, radius)

    post = estimate_reachable_trdeg(
        red, max_letters=d, count=4, fd_step=opts.fd_step,
        rank_tol=opts.rank_tol, seed=rng, time_budget=opts.budget,
        flow_tol=opts.fd_flow_tol, gap_factor=opts.gap_factor)
    if post.estimated_trdeg != d:
        raise FitFailure(
            f"reduced system is not semi-algebraically reachable "
            f"(trdeg {post.estimated_trdeg} != {d})", report=post.to_json())
    _gate(red, oracle, opts, rng)
    return red


# -------------------------------------------------------------- procedure 2


class _SymbolicObsCtx:
    """Observation-algebra access for a symbolic system."""

    def __init__(self, sys: NashSystem, opts: RunConfig):
        self.sys = sys
        depth = max(opts.depth, sys.n - 1)
        self.basis = generate_obs_algebra(sys, depth, opts.max_terms)
        self.generators = self.basis.generators
        self._lie_cache: dict = {}

    @property
    def state_dim(self) -> int:
        return self.sys.n

    @property
    def base_state(self) -> np.ndarray:
        return np.asarray(self.sys.x0, dtype=float)

    def sampler(self, rng):
        return box_sampler(self.sys.domain, self.sys.x0, 0.5, rng)

    def lift(self, state: np.ndarray) -> np.ndarray:
        return np.asarray(state, dtype=float)

    def rank_generators(self):
        return self.generators

    def lie_expr(self, li: int, g: NashExpr) -> NashExpr:
        key = (li, g)
        if key not in self._lie_cache:
            self._lie_cache[key] = lie_derivative(self.sys.fields[li], g)
        return self._lie_cache[key]

    def readout_exprs(self):
        return self.sys.readout

    def terminal(self, u, tol):
        return self.sys.terminal_state(self.sys.x0, u, tol)


class _ComposedObsCtx:
    """Observation-algebra access for a chart-reduced system, using the
    identity (Lie derivative along the reduced field of g composed with
    the chart) = (Lie derivative of g) composed with the chart."""

    def __init__(self, red: ReachReduced, opts: RunConfig):
        self.red = red
        parent = red.parent
        depth = max(opts.depth, parent.n - 1)
        self.basis = generate_obs_algebra(parent, depth, opts.max_terms)
        self.generators = self.basis.generators
        self._lie_cache: dict = {}
        self._grad_cache: dict = {}

    @property
    def state_dim(self) -> int:
        return self.red.dimension

    @property
    def base_state(self) -> np.ndarray:
        return self.red.x0

    def sampler(self, rng):
        red = self.red
        rho = 0.3 * (1.0 + float(np.linalg.norm(red.x0)))
        if math.isfinite(red.radius):
            rho = min(rho, 0.49 * red.radius)

        def sample(count: int) -> np.ndarray:
            pts = []
            attempts = 0
            while len(pts) < count:
                attempts += 1
                if attempts > 100 * count:
                    raise DomainExit(
                        "chart neighborhood sampling kept failing")
                z = red.x0 + rho * rng.uniform(-1.0, 1.0, size=red.dimension)
                try:
                    red.lift(z)
                except (NewtonDiverged, DerivativeVanished):
                    continue
                pts.append(z)
            return np.array(pts)

        return sample

    def lift(self, state: np.ndarray) -> np.ndarray:
        return self.red.lift(np.asarray(state, dtype=float))

    def _grads(self, g: NashExpr):
        if g not in self._grad_cache:
            self._grad_cache[g] = g.gradient()
        return self._grad_cache[g]

    def rank_generators(self):
        red = self.red
        out = []
        for g in self.generators:
            grads = self._grads(g)

            def val(z, g=g):
                return g.eval_point(red.lift(z))

            def grad(z, g=g, grads=grads):
                x = red.lift(z)
                gx = np.array([dg.eval_point(x) for dg in grads])
                return red.lift_jacobian(z, x).T @ gx

            out.append(FuncGenerator(val, grad, label=str(g)))
        return out

    def lie_expr(self, li: int, g: NashExpr) -> NashExpr:
        key = (li, g)
        if key not in self._lie_cache:
            self._lie_cache[key] = lie_derivative(
                self.red.parent.fields[li], g)
        return self._lie_cache[key]

    def readout_exprs(self):
        return self.red.parent.readout

    def terminal(self, u, tol):
        return self.red.terminal_state(self.red.x0, u, tol)


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
    rng = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(opts.seed if rng is None else rng)

    reach = estimate_reachable_trdeg(
        sys_like, max_letters=sys_like.n, count=4, fd_step=opts.fd_step,
        rank_tol=opts.rank_tol, seed=rng, time_budget=opts.budget,
        flow_tol=opts.fd_flow_tol, gap_factor=opts.gap_factor)
    if reach.estimated_trdeg != sys_like.n:
        raise NotReachableInput(
            f"observability reduction requires a semi-algebraically "
            f"reachable input (reachable trdeg {reach.estimated_trdeg} "
            f"< dim {sys_like.n})")

    ctx = _SymbolicObsCtx(sys_like, opts) if isinstance(sys_like, NashSystem) \
        else _ComposedObsCtx(sys_like, opts)

    rank_report = estimate_trdeg(ctx.rank_generators(), ctx.sampler(rng),
                                 count=4, rank_tol=opts.rank_tol,
                                 gap_factor=opts.gap_factor)
    d = rank_report.estimated_trdeg
    if d == 0:
        raise FitFailure("observation algebra has transcendence degree 0",
                         report=rank_report.to_json())
    phi = [ctx.generators[i] for i in rank_report.basis_indices]

    S = _fit_sample_count(d, opts.degree_bound)
    pts = ctx.sampler(rng)(S)
    X = np.array([ctx.lift(z) for z in pts])
    PHI = np.column_stack([[g.eval_point(x) for x in X] for g in phi])

    alphabet = sys_like.alphabet
    nletters = len(alphabet)
    readout = ctx.readout_exprs()

    rel_f: list[list[PolynomialRelation]] = []
    for li in range(nletters):
        row = []
        for i, g in enumerate(phi):
            tgt_expr = ctx.lie_expr(li, g)
            tvals = np.array([tgt_expr.eval_point(x) for x in X])
            rel = fit_relation(tvals, PHI, opts.degree_bound, opts.fit_tol,
                               seed=rng)
            if rel is None:
                raise FitFailure(
                    f"derivative of basis function {i} along letter "
                    f"{alphabet.names[li]!r} admits no relation within "
                    f"degree {opts.degree_bound}",
                    report={"letter": alphabet.names[li], "basis": i})
            row.append(rel)
        rel_f.append(row)
    rel_h: list[PolynomialRelation] = []
    for j, h in enumerate(readout):
        tvals = np.array([h.eval_point(x) for x in X])
        rel = fit_relation(tvals, PHI, opts.degree_bound, opts.fit_tol,
                           seed=rng)
        if rel is None:
            raise FitFailure(
                f"readout component {j} admits no relation within "
                f"degree {opts.degree_bound}", report={"output": j})
        rel_h.append(rel)

    shift = None
    chosen_f = chosen_h = None
    worst = None
    for _ in range(10 * max(1, sys_like.n)):
        u = _sample_shift_word(alphabet, sys_like.n, epsilon, rng)
        try:
            xbar_state = ctx.terminal(u, opts.flow_tol)
        except (DomainExit, BlowUp):
            continue
        x = ctx.lift(xbar_state)
        z = np.array([g.eval_point(x) for g in phi])
        ok = True
        trial_f = []
        for li in range(nletters):
            row = []
            for i, rel in enumerate(rel_f[li]):
                q = ctx.lie_expr(li, phi[i]).eval_point(x)
                pick = _pick_nondegenerate(rel, q, z, opts.derivative_floor)
                if pick is None:
                    ok, worst = False, rel
                    break
                row.append((pick, q))
            if not ok:
                break
            trial_f.append(row)
        if not ok:
            continue
        trial_h = []
        for j, rel in enumerate(rel_h):
            q = readout[j].eval_point(x)
            pick = _pick_nondegenerate(rel, q, z, opts.derivative_floor)
            if pick is None:
                ok, worst = False, rel
                break
            trial_h.append((pick, q))
        if ok:
            shift, chosen_f, chosen_h = u, trial_f, trial_h
            zbar = z
            break
    if shift is None:
        raise NoValidShiftInput(
            "no shift input within epsilon made all implicit derivatives "
            "nondegenerate",
            relation=None if worst is None else worst.to_json())

    radius = math.inf
    maps_f = []
    for li in range(nletters):
        row = []
        for rel, q in chosen_f[li]:
            m = ImplicitMap(rel, zbar, q, newton_tol=opts.newton_tol,
                            derivative_floor=opts.derivative_floor)
            radius = min(radius, probe_radius(m, rng, opts.probe_rays))
            row.append(m)
        maps_f.append(row)
    maps_h = []
    for rel, q in chosen_h:
        m = ImplicitMap(rel, zbar, q, newton_tol=opts.newton_tol,
                        derivative_floor=opts.derivative_floor)
        radius = min(radius, probe_radius(m, rng, opts.probe_rays))
        maps_h.append(m)

    red = ObsReduced(alphabet, len(readout), maps_f, maps_h, zbar, shift,
                     radius)

    post_reach = estimate_reachable_trdeg(
        red, max_letters=d, count=4, fd_step=opts.fd_step,
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
    rng = rng if isinstance(rng, np.random.Generator) \
        else np.random.default_rng(opts.seed if rng is None else rng)
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
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    d = red.dimension
    rho = 0.2 * (1.0 + float(np.linalg.norm(red.x0)))
    if math.isfinite(red.radius):
        rho = min(rho, 0.4 * red.radius)
    pts = []
    attempts = 0
    while len(pts) < samples and attempts < 20 * samples:
        attempts += 1
        z = red.x0 + rho * rng.uniform(-1.0, 1.0, size=d)
        try:
            red.readout_values(z)
        except (NewtonDiverged, DerivativeVanished):
            continue
        pts.append(z)
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
