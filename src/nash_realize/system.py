"""Nash systems, trajectory computation, and response oracles.

A system is the quadruple (X, f, h, x0): an open box/orthant state space,
one power-law vector field per input letter, a power-law readout, and an
initial state. Flows integrate segment by segment under piecewise-constant
inputs; negative durations integrate backward. Response oracles wrap either
a system (exact simulation) or a finite table of precomputed responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (AlphabetMismatch, ArityMismatch, BlowUp, DomainExit,
                     OffGrid)
from .expr import (ALL_REAL, POSITIVE_ORTHANT, NashExpr, stacked_evaluator,
                   tangent_evaluator)
from .inputs import GeneralizedInput, InputAlphabet, concat

DEFAULT_FLOW_TOL = 1e-10


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box, optionally intersected with {x_i > 0}."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    positive: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.lower)
        if len(self.upper) != n or len(self.positive) != n:
            raise ValueError("bound arrays must share a length")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")

    @classmethod
    def unbounded(cls, n: int, positive: bool = False) -> "Box":
        lo = 0.0 if positive else -math.inf
        return cls(tuple(lo for _ in range(n)),
                   tuple(math.inf for _ in range(n)),
                   tuple(positive for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.lower)

    @property
    def all_positive(self) -> bool:
        return all(self.positive)

    @cached_property
    def _faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(coordinate, bound, sign) of each finite face, a positivity
        constraint folded into its coordinate's lower face. The margin of
        face k at x, sign[k] * (x[coordinate[k]] - bound[k]), is positive
        inside."""
        faces = []
        for i, (lo, hi, pos) in enumerate(zip(self.lower, self.upper,
                                              self.positive)):
            lo = max(lo, 0.0) if pos else lo
            if lo > -math.inf:
                faces.append((i, lo, 1.0))
            if hi < math.inf:
                faces.append((i, hi, -1.0))
        idx, bound, sign = zip(*faces) if faces else ((), (), ())
        return (np.array(idx, dtype=int), np.array(bound, dtype=float),
                np.array(sign, dtype=float))

    def _margins(self, x: np.ndarray) -> np.ndarray:
        idx, bound, sign = self._faces
        return sign * (x[idx] - bound)

    def contains(self, x: np.ndarray) -> bool:
        # isfinite rejects nan and +-inf, which a box without faces
        # would otherwise let through. The faces index the first n
        # coordinates only, so contains and exit_event also serve a
        # variational state (x, V) flattened after x.
        x = np.asarray(x, dtype=float)
        return bool(np.all(np.isfinite(x)) and np.all(self._margins(x) > 0))

    @cached_property
    def exit_event(self) -> Optional[Callable[[float, np.ndarray], float]]:
        """Terminal solve_ivp event for leaving the box: the smallest face
        margin, falling through zero. None on R^n, which has no face."""
        if not self._faces[0].size:
            return None

        def event(_t, y):
            return np.min(self._margins(y))

        event.terminal = True
        event.direction = -1
        return event

    def to_json(self) -> dict:
        def enc(v):
            return None if math.isinf(v) else v
        return {"lower": [enc(v) for v in self.lower],
                "upper": [enc(v) for v in self.upper],
                "positive": list(self.positive)}

    @classmethod
    def from_json(cls, data: dict) -> "Box":
        lower = tuple(-math.inf if v is None else float(v)
                      for v in data["lower"])
        upper = tuple(math.inf if v is None else float(v)
                      for v in data["upper"])
        return cls(lower, upper, tuple(bool(b) for b in data["positive"]))


@dataclass(frozen=True)
class NashSystem:
    """(X, f, h, x0) with a finite input alphabet.

    fields[i] is the vector field for alphabet letter i.
    """

    domain: Box
    alphabet: InputAlphabet
    fields: tuple[tuple[NashExpr, ...], ...]
    readout: tuple[NashExpr, ...]
    x0: tuple[float, ...]

    def __post_init__(self):
        n = len(self.x0)
        if self.domain.n != n:
            raise ArityMismatch("domain dimension differs from x0")
        if len(self.fields) != len(self.alphabet):
            raise ValueError("one vector field per alphabet letter required")
        exprs = [e for f in self.fields for e in f] + list(self.readout)
        for f in self.fields:
            if len(f) != n:
                raise ArityMismatch("field component count differs from n")
        if not self.readout:
            raise ValueError("readout must be nonempty")
        for e in exprs:
            if e.nvars != n:
                raise ArityMismatch("expression arity differs from n")
            if e.domain_flag == POSITIVE_ORTHANT and not self.domain.all_positive:
                raise ValueError(
                    "positive-orthant expression on a domain without a full "
                    "positivity mask")
        if not self.domain.contains(np.asarray(self.x0, dtype=float)):
            raise ValueError("x0 must lie strictly inside the domain")

    @property
    def n(self) -> int:
        return len(self.x0)

    @property
    def r(self) -> int:
        return len(self.readout)

    @cached_property
    def _field_kernels(self) -> tuple:
        return tuple(stacked_evaluator(f) for f in self.fields)

    @cached_property
    def _readout_kernel(self):
        return stacked_evaluator(self.readout)

    @cached_property
    def _tangent_kernels(self) -> tuple:
        return tuple(tangent_evaluator(f) for f in self.fields)

    @cached_property
    def _readout_tangent_kernel(self):
        return tangent_evaluator(self.readout)

    def rhs(self, letter: int) -> Callable[[float, np.ndarray], np.ndarray]:
        kernel = self._field_kernels[letter]

        def f(_t, y):
            return kernel(y)

        return f

    def field_values(self, x: np.ndarray, letter: int) -> np.ndarray:
        return self._field_kernels[letter](x)

    def readout_values(self, x: np.ndarray) -> np.ndarray:
        return self._readout_kernel(x)

    def readout_and_jacobian(self, x: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
        """h(x) and Dh(x), r x n."""
        return self._readout_tangent_kernel(x)

    def _tangent(self, letter: int):
        """x -> (f(x), Df(x)) of the letter's field."""
        return self._tangent_kernels[letter]

    def terminal_state(self, x: Sequence[float], u: GeneralizedInput,
                       tol: float = DEFAULT_FLOW_TOL) -> np.ndarray:
        return flow(self, x, u, tol).terminal

    def duration_sensitivities(self, x: Sequence[float], u: GeneralizedInput,
                               suffixes: Sequence[GeneralizedInput],
                               tol: float = DEFAULT_FLOW_TOL
                               ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Terminal state and duration Jacobian of u, continued along each
        suffix; see duration_sensitivities."""
        for w in (u, *suffixes):
            if w.alphabet != self.alphabet:
                raise AlphabetMismatch(
                    "word alphabet differs from system alphabet")
        return duration_sensitivities(
            lambda _warm: (self.rhs, self._tangent), self.domain, x, u.word,
            [s.word for s in suffixes], tol)

    # -------------------------------------------------------------- serial

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "domain": self.domain.to_json(),
            "alphabet": self.alphabet.to_json(),
            "fields": {name: [e.to_json() for e in self.fields[i]]
                       for i, name in enumerate(self.alphabet.names)},
            "readout": [h.to_json() for h in self.readout],
            "x0": list(self.x0),
        }

    @classmethod
    def from_json(cls, data: dict) -> "NashSystem":
        n = int(data["n"])
        domain = Box.from_json(data["domain"])
        alphabet = InputAlphabet.from_json(data["alphabet"])

        def load_expr(term_list):
            # fractional or negative exponents force the orthant flag
            flag = ALL_REAL
            for t in term_list:
                for e in t["exps"]:
                    q = Fraction(e)
                    if q.denominator != 1 or q < 0:
                        flag = POSITIVE_ORTHANT
            return NashExpr.from_json(term_list, n, flag)

        fields = tuple(
            tuple(load_expr(e) for e in data["fields"][name])
            for name in alphabet.names)
        readout = tuple(load_expr(e) for e in data["readout"])
        x0 = tuple(float(v) for v in data["x0"])
        return cls(domain, alphabet, fields, readout, x0)


@dataclass(frozen=True)
class Trajectory:
    """Breakpoint times and states of one flow."""

    breakpoints: tuple[float, ...]          # cumulative signed times
    states: tuple[tuple[float, ...], ...]   # state at each breakpoint
    terminal: np.ndarray


def _integrate(fun, x, dur, tol, **kwargs):
    """One DOP853 segment of signed duration dur from x."""
    return solve_ivp(fun, (0.0, dur), x, method="DOP853", rtol=tol,
                     atol=tol, **kwargs)


def integrate_segments(rhs_for_letter, box: Box, x, word, tol):
    """Shared segment-by-segment integrator: one flow of word from x.

    rhs_for_letter(i) -> f(t, y). The integrator restarts at every
    breakpoint, from the state the previous segment ended in. Raises
    DomainExit when the trajectory leaves the open box: the box's exit
    event stops the integration at a face or positivity constraint.
    Crossings are seen at accepted steps, so an excursion that leaves and
    re-enters within one step goes unseen. Raises BlowUp on integrator
    failure with the trajectory still inside, and on a nonfinite end
    state. Overflow and nan in the field kernels and scipy's stage sums
    are silenced for the whole call: they surface as these errors.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = np.asarray(x, dtype=float)
        if not box.contains(x):
            raise DomainExit("initial state outside the domain")
        breakpoints = [0.0]
        states = [tuple(x)]
        t_abs = 0.0
        for letter, dur in word:
            if dur != 0.0:
                fun = rhs_for_letter(letter)
                sol = _integrate(fun, x, dur, tol, events=box.exit_event)
                if sol.status == 1:
                    raise DomainExit("trajectory left the domain")
                if not sol.success:
                    # classify the failure: an Euler step over the
                    # remaining duration that lands finite-but-outside
                    # means the trajectory runs into the domain boundary,
                    # not a blowup (fractional fields fail on nan stages
                    # before an accepted step crosses x = 0)
                    reached = sol.t[-1] if sol.t.size else 0.0
                    x_end = sol.y[:, -1] if sol.y.size else x
                    try:
                        y_pred = x_end + (dur - reached) * np.asarray(
                            fun(0.0, x_end))
                    except Exception:
                        y_pred = None
                    if y_pred is not None and np.all(np.isfinite(y_pred)) \
                            and not box.contains(y_pred):
                        raise DomainExit(
                            "trajectory reaches the domain boundary")
                    raise BlowUp(f"integration failed: {sol.message}")
                x = sol.y[:, -1].copy()
                if not np.all(np.isfinite(x)):
                    raise BlowUp("nonfinite state")
                t_abs += dur
            breakpoints.append(t_abs)
            states.append(tuple(x))
        return Trajectory(tuple(breakpoints), tuple(states), x)


def _variational_rhs(tangent, n: int):
    """f(t, (x, V)) = (f(x), Df(x) V), V flattened row-major after x."""
    def f(_t, y):
        fx, jac = tangent(y[:n])
        return np.concatenate([fx, (jac @ y[n:].reshape(n, -1)).ravel()])

    return f


def duration_sensitivities(session, box: Box, x, word, suffixes, tol
                           ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(x_end, V) for word followed by each suffix, in order, where column
    j of V is the exact derivative of x_end by the duration of word's
    slot j (the variational equations).

    word and the suffixes are (letter, duration) tuples.
    session(warm) -> (rhs_for_letter, tangent) starts one integration:
    rhs_for_letter is the plain flow, and tangent(letter) -> g with
    g(x) = (f(x), Df(x)); both may keep solver warm starts in the dict
    `warm` (a symbolic system ignores it). Every segment runs through
    integrate_segments on the state (x, V): the columns evolve by
    V' = Df(x) V, and at breakpoint j, in state x_j, V gains the column
    f_{a_j}(x_j). The first segment has no column yet and flows x alone.
    Each suffix continues all columns from word's terminal (x, V), in a
    session on a copy of the warm starts word ended with. Raises as
    integrate_segments does.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    warm: dict = {}
    rhs, tangent = session(warm)

    def variational(tangent_for_letter):
        return lambda letter: _variational_rhs(tangent_for_letter(letter), n)

    y = x
    for j, (letter, dur) in enumerate(word):
        y = integrate_segments(variational(tangent) if j else rhs, box, y,
                               [(letter, dur)], tol).terminal
        v = np.column_stack([y[n:].reshape(n, j),
                             rhs(letter)(0.0, y[:n])])
        y = np.concatenate([y[:n], v.ravel()])
    for suffix in suffixes:
        end = integrate_segments(variational(session(dict(warm))[1]), box,
                                 y, suffix, tol).terminal
        yield end[:n], end[n:].reshape(n, -1)


def flow(sys: NashSystem, x: Sequence[float], u: GeneralizedInput,
         tol: float = DEFAULT_FLOW_TOL) -> Trajectory:
    """Integrate the system along u starting at x (backward for negative
    durations)."""
    if u.alphabet != sys.alphabet:
        raise AlphabetMismatch("word alphabet differs from system alphabet")
    return integrate_segments(sys.rhs, sys.domain, x, u.word, tol)


def sample_flow(sys: NashSystem, traj: Trajectory, u: GeneralizedInput,
                tol: float = DEFAULT_FLOW_TOL, per_segment: int = 16):
    """(time, state) samples along traj, the flow of u, for CSV export:
    the start, then per_segment points per segment at equal fractions of
    its duration. Each segment is integrated again from its breakpoint
    state; the steps are those of the flow, so the points come from the
    same step interpolants."""
    fracs = np.linspace(0.0, 1.0, per_segment + 1)[1:]
    out = [(traj.breakpoints[0], np.asarray(traj.states[0]))]
    for (letter, dur), t0, x, t1, x1 in zip(
            u.word, traj.breakpoints, traj.states, traj.breakpoints[1:],
            traj.states[1:]):
        if dur == 0.0:
            out.append((t1, np.asarray(x1)))
            continue
        ts = fracs * dur
        sol = _integrate(sys.rhs(letter), x, dur, tol, t_eval=ts)
        out.extend((t0 + t, y) for t, y in zip(ts, sol.y.T))
    return out


# --------------------------------------------------------------- oracles


class ResponseOracle:
    """Interface: respond(u) -> output vector in R^r."""

    alphabet: InputAlphabet
    r: int
    is_table = False

    def respond(self, u: GeneralizedInput) -> np.ndarray:
        raise NotImplementedError


class SystemOracle(ResponseOracle):
    """Response map of a simulated system. Works for symbolic systems and
    for reduced evaluator-backed systems (anything with terminal_state and
    readout_values)."""

    def __init__(self, sys, x0=None, tol: float = DEFAULT_FLOW_TOL):
        self.system = sys
        self.alphabet = sys.alphabet
        self.x0 = np.asarray(sys.x0 if x0 is None else x0, dtype=float)
        self.tol = tol
        self.r = len(sys.readout_values(self.x0))

    def respond(self, u: GeneralizedInput) -> np.ndarray:
        sys = self.system
        return sys.readout_values(sys.terminal_state(self.x0, u, self.tol))


@dataclass(frozen=True)
class TableFamily:
    """Responses on one rectangular duration grid for a fixed letter word."""

    letter_seq: tuple[str, ...]
    axes: tuple[tuple[float, ...], ...]
    values: tuple  # nested lists, shape (len(axes[0]), ..., r)

    @cached_property
    def _values_arr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def covers(self, durations: Sequence[float]) -> bool:
        if len(durations) != len(self.axes):
            return False
        for t, axis in zip(durations, self.axes):
            if not (axis[0] - 1e-12 <= t <= axis[-1] + 1e-12):
                return False
        return True

    def interpolate(self, durations: Sequence[float]) -> np.ndarray:
        """Multilinear interpolation; exact at grid nodes."""
        vals = self._values_arr
        idx_w = []
        for t, axis in zip(durations, self.axes):
            a = np.asarray(axis)
            if a.size == 1:
                if abs(t - a[0]) > 1e-9 * max(1.0, abs(a[0])):
                    raise OffGrid(f"duration {t} off singleton axis {a[0]}")
                idx_w.append(((0, 1.0),))
                continue
            j = int(np.searchsorted(a, t) - 1)
            j = min(max(j, 0), a.size - 2)
            w = (t - a[j]) / (a[j + 1] - a[j])
            if w < 1e-12:
                idx_w.append(((j, 1.0),))
            elif w > 1 - 1e-12:
                idx_w.append(((j + 1, 1.0),))
            else:
                idx_w.append(((j, 1.0 - w), (j + 1, w)))
        out = np.zeros(vals.shape[-1])
        stack = [((), 1.0)]
        for options in idx_w:
            stack = [(ix + (j,), w * wj) for ix, w in stack
                     for j, wj in options]
        for ix, w in stack:
            out += w * vals[ix]
        return out


class TableOracle(ResponseOracle):
    """Response map stored as finite grids; no underlying system needed."""

    is_table = True

    def __init__(self, alphabet: InputAlphabet,
                 families: Sequence[TableFamily], r: int):
        self.alphabet = alphabet
        self.families = list(families)
        self.r = r

    def respond(self, u: GeneralizedInput) -> np.ndarray:
        seq = u.letter_names()
        durs = u.durations()
        for fam in self.families:
            if fam.letter_seq == seq and fam.covers(durs):
                return fam.interpolate(durs)
        raise OffGrid(f"no stored grid covers the word {u.to_json()}")

    @classmethod
    def tabulate(cls, oracle: ResponseOracle,
                 plans: Sequence[tuple[tuple[str, ...], Sequence[Sequence[float]]]]
                 ) -> "TableOracle":
        """Evaluate an existing oracle on rectangular grids.

        plans: (letter_seq, axes) pairs; axes is one sorted duration list
        per slot.
        """
        alphabet = oracle.alphabet
        families = []
        for seq, axes in plans:
            axes_t = tuple(tuple(float(t) for t in a) for a in axes)
            shape = tuple(len(a) for a in axes_t)
            grid = np.zeros(shape + (oracle.r,))
            for idx in np.ndindex(*shape):
                durs = [axes_t[s][idx[s]] for s in range(len(seq))]
                word = GeneralizedInput.of(
                    alphabet, *[(nm, t) for nm, t in zip(seq, durs)])
                grid[idx] = oracle.respond(word)
            families.append(TableFamily(tuple(seq), axes_t,
                                        grid.tolist()))
        return cls(alphabet, families, oracle.r)


class _ShiftedOracle(ResponseOracle):
    """p_u as a view: respond(v) = base.respond(uv)."""

    def __init__(self, base: ResponseOracle, u: GeneralizedInput):
        self.base = base
        self.u = u
        self.alphabet = base.alphabet
        self.r = base.r
        self.is_table = base.is_table

    def respond(self, v: GeneralizedInput) -> np.ndarray:
        return self.base.respond(concat(self.u, v))


def shift_oracle(oracle: ResponseOracle,
                 u: GeneralizedInput) -> ResponseOracle:
    """Oracle for the shifted response map p_u(v) = p(uv)."""
    if len(u.word) == 0:
        return oracle
    if isinstance(oracle, SystemOracle):
        # advance the initial state; raises DomainExit if u is not flowable
        shifted = oracle.system.terminal_state(oracle.x0, u, oracle.tol)
        return SystemOracle(oracle.system, x0=shifted, tol=oracle.tol)
    return _ShiftedOracle(oracle, u)
