"""Shared test helpers."""

from fractions import Fraction

import mpmath
import pytest


def exact_terms(e, pt):
    """The terms c * m of e at the float point pt as Fractions: exact for
    integer exponents, to 40 digits (mpmath) for fractional ones."""
    out = []
    for c, exps in e.terms:
        v = c
        for xi, q in zip(pt, exps):
            xq = Fraction(float(xi))
            if q.denominator == 1:
                v *= xq ** int(q)
                continue
            with mpmath.workdps(40):
                base = mpmath.mpf(xq.numerator) / xq.denominator
                w = mpmath.power(base, mpmath.mpf(q.numerator) / q.denominator)
            man, exp = w.man_exp
            v *= man * Fraction(2) ** exp
        out.append(v)
    return out


def _assert_matches_exact_sum(evaluate, field, pt):
    """Each value within (terms + nvars) * 2^-53 * sum |c * m| of the
    exact sum of its terms at pt."""
    got = evaluate(pt)
    assert got.shape == (len(field),)
    for value, e in zip(got, field):
        terms = exact_terms(e, pt)
        bound = (len(terms) + e.nvars) * Fraction(1, 2 ** 53) * sum(
            abs(t) for t in terms)
        assert abs(Fraction(float(value)) - sum(terms)) <= bound, (e, pt)


@pytest.fixture
def assert_matches_exact_sum():
    """The check of a kernel's values against exact sums of terms."""
    return _assert_matches_exact_sum
