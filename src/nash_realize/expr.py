"""Differentiation-closed symbolic kernel.

The representable function class is finite sums of power-law monomials

    c1 * x1^(q11) * ... * xn^(q1n)  +  c2 * ... ,

with exact rational coefficients and exponents. Polynomials (the ALL_REAL
flag, nonnegative integer exponents) live on all of R^n; general rational
exponents require the open positive orthant (POSITIVE_ORTHANT flag). Both
classes are closed under partial differentiation, which is what makes
Lie-derivative towers exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ArityMismatch, DomainViolation, ExactnessUnavailable

ALL_REAL = "ALL_REAL"
POSITIVE_ORTHANT = "POSITIVE_ORTHANT"

EXACT = "EXACT"
FLOAT = "FLOAT"

Rational = Union[Fraction, int, str]

# One term: (coefficient, exponent vector), everything an exact rational.
Term = tuple[Fraction, tuple[Fraction, ...]]


def _frac(v: Rational) -> Fraction:
    if isinstance(v, Fraction):
        return v
    return Fraction(v)


def _merge_flags(a: str, b: str) -> str:
    return ALL_REAL if a == ALL_REAL and b == ALL_REAL else POSITIVE_ORTHANT


@dataclass(frozen=True)
class NashExpr:
    """Canonical power-law sum. Immutable; arithmetic returns new values."""

    terms: tuple[Term, ...]
    nvars: int
    domain_flag: str = ALL_REAL

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("nvars must be positive")
        if self.domain_flag not in (ALL_REAL, POSITIVE_ORTHANT):
            raise ValueError(f"unknown domain flag {self.domain_flag!r}")
        merged: dict[tuple[Fraction, ...], Fraction] = {}
        for coeff, exps in self.terms:
            coeff = _frac(coeff)
            exps = tuple(_frac(e) for e in exps)
            if len(exps) != self.nvars:
                raise ArityMismatch(
                    f"term has {len(exps)} exponents, expected {self.nvars}")
            merged[exps] = merged.get(exps, Fraction(0)) + coeff
        canon = tuple(
            (c, e) for e, c in sorted(merged.items()) if c != 0)
        if self.domain_flag == ALL_REAL:
            for _, exps in canon:
                for e in exps:
                    if e.denominator != 1 or e < 0:
                        raise ValueError(
                            "ALL_REAL expressions must have nonnegative "
                            f"integer exponents, got {e}")
        object.__setattr__(self, "terms", canon)

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, nvars: int, domain_flag: str = ALL_REAL) -> "NashExpr":
        return cls((), nvars, domain_flag)

    @classmethod
    def constant(cls, c: Rational, nvars: int,
                 domain_flag: str = ALL_REAL) -> "NashExpr":
        exps = tuple(Fraction(0) for _ in range(nvars))
        return cls(((_frac(c), exps),), nvars, domain_flag)

    @classmethod
    def variable(cls, i: int, nvars: int,
                 domain_flag: str = ALL_REAL) -> "NashExpr":
        exps = tuple(Fraction(1 if j == i else 0) for j in range(nvars))
        return cls(((Fraction(1), exps),), nvars, domain_flag)

    @classmethod
    def monomial(cls, coeff: Rational, exps: Sequence[Rational],
                 domain_flag: str = ALL_REAL) -> "NashExpr":
        e = tuple(_frac(v) for v in exps)
        return cls(((_frac(coeff), e),), len(e), domain_flag)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for _, exps in self.terms)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    # ------------------------------------------------------------ arithmetic

    def _check_arity(self, other: "NashExpr"):
        if self.nvars != other.nvars:
            raise ArityMismatch(
                f"nvars {self.nvars} vs {other.nvars}")

    def __add__(self, other: "NashExpr") -> "NashExpr":
        self._check_arity(other)
        return NashExpr(self.terms + other.terms, self.nvars,
                        _merge_flags(self.domain_flag, other.domain_flag))

    def __sub__(self, other: "NashExpr") -> "NashExpr":
        return self + (-other)

    def __neg__(self) -> "NashExpr":
        return NashExpr(tuple((-c, e) for c, e in self.terms),
                        self.nvars, self.domain_flag)

    def __mul__(self, other) -> "NashExpr":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_arity(other)
        prod = []
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                prod.append((c1 * c2,
                             tuple(a + b for a, b in zip(e1, e2))))
        return NashExpr(tuple(prod), self.nvars,
                        _merge_flags(self.domain_flag, other.domain_flag))

    __rmul__ = __mul__

    def scale(self, c: Rational) -> "NashExpr":
        c = _frac(c)
        return NashExpr(tuple((c * ci, e) for ci, e in self.terms),
                        self.nvars, self.domain_flag)

    # ------------------------------------------------------------ evaluation

    @cached_property
    def _float_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # coefficient vector (T,) and exponent matrix (T, nvars)
        if not self.terms:
            return (np.zeros(0), np.zeros((0, self.nvars)))
        coeffs = np.array([float(c) for c, _ in self.terms])
        exps = np.array([[float(e) for e in exps] for _, exps in self.terms])
        return coeffs, exps

    def eval(self, x: Sequence, mode: str = FLOAT):
        """Value at a point. EXACT mode returns a Fraction and requires an
        ALL_REAL expression with rational coordinates."""
        if len(x) != self.nvars:
            raise ArityMismatch(f"point has {len(x)} coords, "
                                f"expected {self.nvars}")
        if self.domain_flag == POSITIVE_ORTHANT:
            if any(float(xi) <= 0 for xi in x):
                raise DomainViolation(
                    "positive-orthant expression evaluated at a point with "
                    "a nonpositive coordinate")
        if mode == EXACT:
            if self.domain_flag != ALL_REAL:
                raise ExactnessUnavailable(
                    "EXACT evaluation needs integer exponents (ALL_REAL)")
            xq = [_frac(xi) if not isinstance(xi, float) else Fraction(xi)
                  for xi in x]
            total = Fraction(0)
            for c, exps in self.terms:
                v = c
                for xi, e in zip(xq, exps):
                    v *= xi ** int(e)
                total += v
            return total
        if mode != FLOAT:
            raise ValueError(f"unknown evaluation mode {mode!r}")
        return self.eval_point(np.asarray(x, dtype=float))

    def eval_point(self, x: np.ndarray) -> float:
        """Fast float evaluation, no domain checking beyond nan propagation."""
        coeffs, exps = self._float_arrays
        if coeffs.size == 0:
            return 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            powed = np.power(x[None, :], exps)
        return float(coeffs @ np.prod(powed, axis=1))

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Float evaluation over rows of X, shape (S, nvars) -> (S,).
        Invalid points yield nan rather than raising."""
        X = np.asarray(X, dtype=float)
        coeffs, exps = self._float_arrays
        if coeffs.size == 0:
            return np.zeros(X.shape[0])
        with np.errstate(invalid="ignore", divide="ignore"):
            powed = np.power(X[:, None, :], exps[None, :, :])
        return np.prod(powed, axis=2) @ coeffs

    # -------------------------------------------------------- differentiation

    def diff(self, i: int) -> "NashExpr":
        """Exact partial derivative with respect to variable i (0-based)."""
        if not 0 <= i < self.nvars:
            raise ArityMismatch(f"variable index {i} out of range")
        out = []
        for c, exps in self.terms:
            e = exps[i]
            if e == 0:
                continue
            new = tuple(v - 1 if j == i else v for j, v in enumerate(exps))
            out.append((c * e, new))
        return NashExpr(tuple(out), self.nvars, self.domain_flag)

    def gradient(self) -> tuple["NashExpr", ...]:
        return tuple(self.diff(i) for i in range(self.nvars))

    # ----------------------------------------------------------- comparisons

    def scalar_multiple_of(self, other: "NashExpr"):
        """Return c with self = c * other, or None. Zero is a multiple of
        everything; nothing (except zero) is a multiple of zero."""
        if self.nvars != other.nvars:
            return None
        if self.is_zero:
            return Fraction(0)
        if other.is_zero:
            return None
        if len(self.terms) != len(other.terms):
            return None
        ratio = None
        for (c1, e1), (c2, e2) in zip(self.terms, other.terms):
            if e1 != e2:
                return None
            r = c1 / c2
            if ratio is None:
                ratio = r
            elif r != ratio:
                return None
        return ratio

    # -------------------------------------------------------------- serial

    def to_json(self) -> list:
        return [{"coeff": f"{c.numerator}/{c.denominator}",
                 "exps": [f"{e.numerator}/{e.denominator}" for e in exps]}
                for c, exps in self.terms]

    @classmethod
    def from_json(cls, data: Iterable[dict], nvars: int,
                  domain_flag: str = ALL_REAL) -> "NashExpr":
        terms = []
        for t in data:
            coeff = Fraction(t["coeff"])
            exps = tuple(Fraction(e) for e in t["exps"])
            terms.append((coeff, exps))
        return cls(tuple(terms), nvars, domain_flag)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, exps in self.terms:
            factors = [str(c)]
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                factors.append(f"x{j + 1}" if e == 1 else f"x{j + 1}^({e})")
            parts.append("*".join(factors))
        return " + ".join(parts)


def stacked_evaluator(exprs: Sequence[NashExpr]):
    """x -> np.array([e.eval_point(x) for e in exprs]), bit for bit.

    Every term of every expression goes into one exponent matrix, so one
    power-product gives all monomials; each expression then takes the dot
    product over its own slice of them, the same sum eval_point computes.
    """
    parts = []      # (coefficients, slice of the stacked monomials)
    stop = 0
    for e in exprs:
        coeffs = e._float_arrays[0]
        parts.append((coeffs, slice(stop, stop + coeffs.size)))
        stop += coeffs.size
    exps = np.vstack([e._float_arrays[1] for e in exprs])

    def evaluate(x: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            monos = np.power(x[None, :], exps).prod(axis=1)
        return np.array([c.dot(monos[s]) if c.size else 0.0
                         for c, s in parts])

    return evaluate


def lie_derivative(field_exprs: Sequence[NashExpr], g: NashExpr) -> NashExpr:
    """Lie derivative of g along the vector field (sum_i f_i * dg/dx_i)."""
    if len(field_exprs) != g.nvars:
        raise ArityMismatch(
            f"field has {len(field_exprs)} components, expected {g.nvars}")
    for f in field_exprs:
        if f.nvars != g.nvars:
            raise ArityMismatch("field component arity differs from g")
    total = NashExpr.zero(g.nvars, g.domain_flag)
    for i, f in enumerate(field_exprs):
        dg = g.diff(i)
        if dg.is_zero or f.is_zero:
            continue
        total = total + f * dg
    return total


def gradient(g: NashExpr) -> tuple[NashExpr, ...]:
    return g.gradient()
