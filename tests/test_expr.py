"""Symbolic power-law kernel: exact arithmetic, differentiation, closure."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nash_realize.errors import (ArityMismatch, DomainViolation,
                                 ExactnessUnavailable)
from nash_realize.expr import (ALL_REAL, EXACT, POSITIVE_ORTHANT, NashExpr,
                               gradient, lie_derivative, stacked_evaluator)


def x(i, n, flag=ALL_REAL):
    return NashExpr.variable(i, n, flag)


def mono(c, exps, flag=ALL_REAL):
    return NashExpr.monomial(c, exps, flag)


def test_canonical_merge():
    a = x(0, 2) + x(0, 2)
    assert a.terms == ((Fraction(2), (Fraction(1), Fraction(0))),)
    assert (x(0, 2) - x(0, 2)).is_zero
    # construction order must not matter
    b = x(0, 2) + x(1, 2)
    c = x(1, 2) + x(0, 2)
    assert b.terms == c.terms


def test_zero_coefficients_dropped():
    e = mono(Fraction(0), (2, 0))
    assert e.is_zero
    assert e.term_count == 0


def _random_exprs(rng, n=3, count=3):
    out = []
    for _ in range(count):
        e = NashExpr.zero(n)
        for _ in range(int(rng.integers(1, 4))):
            c = Fraction(int(rng.integers(-9, 10)) or 1,
                         int(rng.integers(1, 7)))
            exps = tuple(int(v) for v in rng.integers(0, 4, size=n))
            e = e + mono(c, exps)
        out.append(e)
    return out


def test_ring_axioms_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = _random_exprs(rng)
        assert ((a + b) + c).terms == (a + (b + c)).terms
        assert (a + b).terms == (b + a).terms
        assert (a * b).terms == (b * a).terms
        assert (a * (b + c)).terms == (a * b + a * c).terms
        assert ((a * b) * c).terms == (a * (b * c)).terms
        assert (a + NashExpr.zero(3)).terms == a.terms
        assert (a * NashExpr.constant(1, 3)).terms == a.terms


def test_eval_fractional_exponent_example():
    # 3 * x1^2 * x2^(-1/2) at (2, 4): 3 * 4 / 2 = 6
    e = mono(3, (Fraction(2), Fraction(-1, 2)), POSITIVE_ORTHANT)
    assert e.eval((2.0, 4.0)) == pytest.approx(6.0, abs=1e-14)


def test_eval_matches_mpmath():
    """High-precision oracle for float evaluation."""
    rng = np.random.default_rng(3)
    e = mono(Fraction(3, 7), (Fraction(2), Fraction(-1, 2)),
             POSITIVE_ORTHANT) + \
        mono(Fraction(-2, 5), (Fraction(1, 3), Fraction(3)),
             POSITIVE_ORTHANT)
    with mpmath.workdps(50):
        for _ in range(25):
            pt = rng.uniform(0.2, 3.0, size=2)
            want = mpmath.mpf(0)
            for c, exps in e.terms:
                term = mpmath.mpf(c.numerator) / c.denominator
                for xi, ex in zip(pt, exps):
                    term *= mpmath.power(mpmath.mpf(float(xi)),
                                         mpmath.mpf(ex.numerator)
                                         / ex.denominator)
                want += term
            got = e.eval(tuple(pt))
            assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


def test_exact_mode():
    e = mono(Fraction(1, 3), (2, 1)) + mono(2, (0, 0))
    v = e.eval((Fraction(3), Fraction(1, 2)), mode=EXACT)
    assert v == Fraction(1, 3) * 9 * Fraction(1, 2) + 2
    assert isinstance(v, Fraction)
    frac = mono(1, (Fraction(1, 2),), POSITIVE_ORTHANT)
    with pytest.raises(ExactnessUnavailable):
        frac.eval((4.0,), mode=EXACT)


def test_eval_guards():
    e = mono(1, (Fraction(1, 2),), POSITIVE_ORTHANT)
    with pytest.raises(DomainViolation):
        e.eval((-1.0,))
    with pytest.raises(ArityMismatch):
        e.eval((1.0, 2.0))


def test_all_real_rejects_fractional_exponents():
    with pytest.raises(ValueError):
        mono(1, (Fraction(1, 2),), ALL_REAL)
    with pytest.raises(ValueError):
        mono(1, (-1,), ALL_REAL)


def test_diff_closed_form():
    e = mono(3, (Fraction(2), Fraction(-1, 2)), POSITIVE_ORTHANT)
    d0 = e.diff(0)
    d1 = e.diff(1)
    assert d0.terms == ((Fraction(6), (Fraction(1), Fraction(-1, 2))),)
    assert d1.terms == ((Fraction(-3, 2), (Fraction(2), Fraction(-3, 2))),)


def test_diff_drops_constant_direction():
    e = mono(5, (0, 2))
    assert e.diff(0).is_zero
    assert e.diff(1).terms == ((Fraction(10), (Fraction(0), Fraction(1))),)


def test_diff_finite_difference_crosscheck():
    rng = np.random.default_rng(7)
    exprs = [
        mono(Fraction(2, 3), (3, 1)) + mono(-1, (0, 2)),
        mono(1, (Fraction(5, 2), Fraction(-1, 3)), POSITIVE_ORTHANT),
        mono(Fraction(7, 4), (Fraction(1, 2), Fraction(2)),
             POSITIVE_ORTHANT) + mono(1, (Fraction(0), Fraction(1)),
                                      POSITIVE_ORTHANT),
    ]
    h = 1e-6
    for e in exprs:
        for _ in range(10):
            pt = rng.uniform(0.5, 2.0, size=2)
            for i in range(2):
                step = np.zeros(2)
                step[i] = h
                fd = (e.eval_point(pt + step) - e.eval_point(pt - step)) \
                    / (2 * h)
                exact = e.diff(i).eval_point(pt)
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_closure_under_differentiation():
    # derivatives of power-law sums stay power-law sums, fractional
    # exponents included
    e = mono(2, (Fraction(1, 2), Fraction(-3, 2)), POSITIVE_ORTHANT)
    d = e.diff(0).diff(1)
    assert isinstance(d, NashExpr)
    assert all(isinstance(c, Fraction) for c, _ in d.terms)
    g = gradient(e)
    assert len(g) == 2
    assert g[0].terms == e.diff(0).terms


@settings(max_examples=80, deadline=None, database=None)
@given(st.lists(
    st.tuples(st.integers(-9, 9), st.integers(1, 6),
              st.lists(st.fractions(min_value=-4, max_value=4,
                                    max_denominator=4),
                       min_size=2, max_size=2)),
    min_size=1, max_size=4))
def test_closure_property_random_expressions(terms):
    e = NashExpr.zero(2)
    for num, den, exps in terms:
        e = e + mono(Fraction(num, den), tuple(exps), POSITIVE_ORTHANT)
    for i in range(2):
        d = e.diff(i)
        assert isinstance(d, NashExpr)
        assert all(isinstance(c, Fraction) and
                   all(isinstance(p, Fraction) for p in exps)
                   for c, exps in d.terms)
        assert np.isfinite(d.eval_point(np.array([1.3, 0.7])))


def test_scalar_multiple():
    a = mono(2, (1, 0)) + mono(4, (0, 1))
    b = mono(1, (1, 0)) + mono(2, (0, 1))
    assert a.scalar_multiple_of(b) == Fraction(2)
    assert b.scalar_multiple_of(a) == Fraction(1, 2)
    assert x(0, 2).scalar_multiple_of(x(1, 2)) is None
    assert NashExpr.zero(2).scalar_multiple_of(b) == Fraction(0)
    assert b.scalar_multiple_of(NashExpr.zero(2)) is None


def test_json_round_trip_exact():
    e = mono(Fraction(-22, 7), (Fraction(1, 3), Fraction(2)),
             POSITIVE_ORTHANT) + mono(Fraction(1, 9), (0, 1),
                                      POSITIVE_ORTHANT)
    back = NashExpr.from_json(e.to_json(), 2, POSITIVE_ORTHANT)
    assert back.terms == e.terms


def test_lie_derivative():
    # f = (x,), g = x^2: L_f g = 2x * x = 2 x^2
    f = (x(0, 1),)
    g = mono(1, (2,))
    lg = lie_derivative(f, g)
    assert lg.terms == ((Fraction(2), (Fraction(2),)),)


def test_mul_by_rational():
    e = x(0, 1) * Fraction(3, 2)
    assert e.terms == ((Fraction(3, 2), (Fraction(1),)),)
    assert (x(0, 1).scale(0)).is_zero


def test_stacked_evaluator_matches_eval_point_bit_for_bit():
    P = POSITIVE_ORTHANT
    h, t = Fraction(1, 2), Fraction(1, 3)
    fractional = (
        mono(2, (h, -t, 1), P) + mono(Fraction(-3, 7), (0, h, -h), P)
        + mono(5, (t, t, t), P),
        mono(-1, (-h, 0, 2 * t), P),
        NashExpr.zero(3, P),
    )
    polynomial = (NashExpr.zero(2), x(0, 2) * x(1, 2) + mono(3, (2, 0)))
    rng = np.random.default_rng(1)
    for field in (fractional, polynomial, fractional[:1], fractional[2:]):
        evaluate = stacked_evaluator(field)
        n = field[0].nvars
        for _ in range(200):
            pt = np.exp(2.0 * rng.normal(size=n))
            want = np.array([e.eval_point(pt) for e in field])
            assert evaluate(pt).tobytes() == want.tobytes()
