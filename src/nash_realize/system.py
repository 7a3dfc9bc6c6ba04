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
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (AlphabetMismatch, ArityMismatch, BlowUp, DomainExit,
                     OffGrid)
from .expr import ALL_REAL, POSITIVE_ORTHANT, NashExpr, stacked_evaluator
from .inputs import GeneralizedInput, InputAlphabet, concat

DEFAULT_FLOW_TOL = 1e-10

# interior samples per segment for domain-exit detection
_EXIT_SAMPLES = 8


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

    def contains(self, x: np.ndarray) -> bool:
        # the open comparisons also reject nan and +-inf
        for xi, lo, hi, pos in zip(x, self.lower, self.upper, self.positive):
            if not lo < xi < hi:
                return False
            if pos and xi <= 0:
                return False
        return True

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

    def field_for(self, letter: int) -> tuple[NashExpr, ...]:
        return self.fields[letter]

    @cached_property
    def _field_kernels(self) -> tuple:
        return tuple(stacked_evaluator(f) for f in self.fields)

    @cached_property
    def _readout_kernel(self):
        return stacked_evaluator(self.readout)

    def rhs(self, letter: int) -> Callable[[float, np.ndarray], np.ndarray]:
        kernel = self._field_kernels[letter]

        def f(_t, y):
            return kernel(y)

        return f

    def field_values(self, x: np.ndarray, letter: int) -> np.ndarray:
        return self._field_kernels[letter](x)

    def readout_values(self, x: np.ndarray) -> np.ndarray:
        return self._readout_kernel(x)

    def terminal_states(self, x: Sequence[float],
                        words: Sequence[GeneralizedInput],
                        tol: float = DEFAULT_FLOW_TOL) -> Iterator[np.ndarray]:
        """Terminal state of each word from x, in order; see
        terminal_states."""
        for u in words:
            if u.alphabet != self.alphabet:
                raise AlphabetMismatch(
                    "word alphabet differs from system alphabet")
        return terminal_states(lambda _warm: self.rhs, self.domain.contains,
                               x, [u.word for u in words], tol)

    def terminal_state(self, x: Sequence[float], u: GeneralizedInput,
                       tol: float = DEFAULT_FLOW_TOL) -> np.ndarray:
        return next(self.terminal_states(x, [u], tol))

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
                from fractions import Fraction
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
    """Breakpoint states plus dense-output segments of one flow."""

    breakpoints: tuple[float, ...]          # cumulative signed times
    states: tuple[tuple[float, ...], ...]   # state at each breakpoint
    segments: tuple                          # (duration, OdeSolution or None)
    terminal: np.ndarray

    def sample(self, per_segment: int = 16):
        """(time, state) samples along the word, for CSV export."""
        out = [(self.breakpoints[0], np.asarray(self.states[0]))]
        t_abs = self.breakpoints[0]
        for (dur, sol), t_next in zip(self.segments, self.breakpoints[1:]):
            if sol is None:
                out.append((t_next, np.asarray(self.states[len(out) - 1])))
            else:
                for frac in np.linspace(0.0, 1.0, per_segment + 1)[1:]:
                    out.append((t_abs + frac * dur, sol.sol(frac * dur)))
            t_abs = t_next
        return out


def integrate_segments(rhs_for_letter, in_domain, x, word, tol,
                       on_breakpoint=None):
    """Shared segment-by-segment integrator.

    rhs_for_letter(i) -> f(t, y); in_domain(y) -> bool. Raises DomainExit
    when any dense-output sample leaves the domain, BlowUp on integrator
    failure with the trajectory still inside. on_breakpoint(j, x), when
    given, sees the state x after each segment j (0-based) as it is
    reached.
    """
    x = np.asarray(x, dtype=float)
    if not in_domain(x):
        raise DomainExit("initial state outside the domain")
    breakpoints = [0.0]
    states = [tuple(x)]
    segments = []
    t_abs = 0.0
    for letter, dur in word:
        if dur == 0.0:
            segments.append((0.0, None))
            breakpoints.append(t_abs)
            states.append(tuple(x))
            if on_breakpoint is not None:
                on_breakpoint(len(segments) - 1, x)
            continue
        fun = rhs_for_letter(letter)
        sol = solve_ivp(fun, (0.0, dur), x,
                        method="DOP853", rtol=tol, atol=tol,
                        dense_output=True)
        reached = sol.t[-1] if sol.t.size else 0.0
        check_ts = np.linspace(0.0, reached, _EXIT_SAMPLES + 2)[1:]
        if sol.sol is not None and check_ts.size:
            samples = sol.sol(check_ts).T
            for y in samples:
                if not in_domain(y):
                    raise DomainExit("trajectory left the domain")
        if not sol.success:
            # classify the failure: an Euler step over the remaining
            # duration that lands finite-but-outside means the trajectory
            # runs into the domain boundary, not a blowup
            x_end = sol.y[:, -1] if sol.y.size else x
            try:
                y_pred = x_end + (dur - reached) * np.asarray(fun(0.0,
                                                                  x_end))
            except Exception:
                y_pred = None
            if y_pred is not None and np.all(np.isfinite(y_pred)) \
                    and not in_domain(y_pred):
                raise DomainExit("trajectory reaches the domain boundary")
            raise BlowUp(f"integration failed: {sol.message}")
        x = sol.y[:, -1].copy()
        if not np.all(np.isfinite(x)):
            raise BlowUp("nonfinite state")
        t_abs += dur
        segments.append((dur, sol))
        breakpoints.append(t_abs)
        states.append(tuple(x))
        if on_breakpoint is not None:
            on_breakpoint(len(segments) - 1, x)
    return Trajectory(tuple(breakpoints), tuple(states),
                      tuple(segments), x)


def terminal_states(rhs_session, in_domain, x, words, tol
                    ) -> Iterator[np.ndarray]:
    """Terminal state of each word from x, in order, integrating every
    prefix the words share once.

    words are (letter, duration) tuples. rhs_session(warm) -> rhs_for_letter
    starts an integration whose right-hand sides may keep solver warm
    starts in the dict `warm` (a symbolic system ignores it). Each
    breakpoint state reached is cached with a copy of `warm` as it stood
    there, and each word is integrated by one integrate_segments call from
    the deepest cached prefix. integrate_segments restarts the integrator
    at every breakpoint, so each state equals that of the word integrated
    whole, bit for bit. States are yielded as they are computed, so an
    error surfaces at the first word that meets it, as it would word by
    word.
    """
    cache: dict = {}    # prefix -> (breakpoint state, warm starts there)
    for word in words:
        word = tuple(word)
        depth = len(word)
        while depth and word[:depth] not in cache:
            depth -= 1
        if depth and depth == len(word):
            yield cache[word][0].copy()
            continue
        start, warm = cache[word[:depth]] if depth else (x, {})
        warm = dict(warm)

        def save(j, y, word=word, depth=depth, warm=warm):
            cache[word[:depth + j + 1]] = (y, dict(warm))

        yield integrate_segments(rhs_session(warm), in_domain, start,
                                 word[depth:], tol, save).terminal.copy()


def flow(sys: NashSystem, x: Sequence[float], u: GeneralizedInput,
         tol: float = DEFAULT_FLOW_TOL) -> Trajectory:
    """Integrate the system along u starting at x (backward for negative
    durations)."""
    if u.alphabet != sys.alphabet:
        raise AlphabetMismatch("word alphabet differs from system alphabet")
    return integrate_segments(sys.rhs, sys.domain.contains, x, u.word, tol)


def state_to_output(sys: NashSystem, g: NashExpr, u: GeneralizedInput,
                    tol: float = DEFAULT_FLOW_TOL) -> float:
    """g evaluated at the trajectory terminal state (the state-to-output
    map of one Nash function)."""
    if g.nvars != sys.n:
        raise ArityMismatch("g arity differs from system dimension")
    return g.eval_point(flow(sys, sys.x0, u, tol).terminal)


# --------------------------------------------------------------- oracles


class ResponseOracle:
    """Interface: respond(u) -> output vector in R^r."""

    alphabet: InputAlphabet
    r: int
    is_table = False

    def respond(self, u: GeneralizedInput) -> np.ndarray:
        raise NotImplementedError

    def respond_many(self, words: Sequence[GeneralizedInput]
                     ) -> list[np.ndarray]:
        """Responses to several words, in order; the first failing word
        raises."""
        return [self.respond(u) for u in words]


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
        return self.respond_many([u])[0]

    def respond_many(self, words: Sequence[GeneralizedInput]
                     ) -> list[np.ndarray]:
        """Responses with every shared word prefix integrated once."""
        sys = self.system
        return [sys.readout_values(x)
                for x in sys.terminal_states(self.x0, words, self.tol)]


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


def respond(oracle: ResponseOracle, u: GeneralizedInput) -> np.ndarray:
    return oracle.respond(u)


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
