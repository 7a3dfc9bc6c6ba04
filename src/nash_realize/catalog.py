"""Bundled example systems used by the CLI, tests, and acceptance suite.

Systems are both constructed programmatically (exact rational data) and
shipped as JSON files under catalog_data/; the two must agree, which the
test suite checks. Names are stable identifiers for the CLI.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

from .expr import ALL_REAL, POSITIVE_ORTHANT, NashExpr
from .inputs import InputAlphabet
from .system import Box, NashSystem

_PM = InputAlphabet(("a0", "a1"), ((1.0,), (-1.0,)))


def _mono(coeff, exps, flag=ALL_REAL) -> NashExpr:
    return NashExpr.monomial(coeff, exps, flag)


def _linear(coeffs, flag=ALL_REAL) -> NashExpr:
    n = len(coeffs)
    out = NashExpr.zero(n, flag)
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        out = out + _mono(c, [1 if j == i else 0 for j in range(n)], flag)
    return out


def _affine(coeffs, const) -> NashExpr:
    out = _linear(coeffs)
    if const != 0:
        out = out + NashExpr.constant(const, len(coeffs))
    return out


def build_lin1() -> NashSystem:
    x = NashExpr.variable(0, 1)
    return NashSystem(Box.unbounded(1), _PM,
                      ((x,), (-x,)), (x,), (1.0,))


def build_diag() -> NashSystem:
    x1 = NashExpr.variable(0, 2)
    x2 = NashExpr.variable(1, 2)
    return NashSystem(Box.unbounded(2), _PM,
                      ((x1, x2), (-x1, -x2)), (x1 + x2,), (1.0, 1.0))


def build_pl() -> NashSystem:
    half = Fraction(1, 2)
    root = _mono(1, [half], POSITIVE_ORTHANT)
    x = NashExpr.variable(0, 1, POSITIVE_ORTHANT)
    return NashSystem(Box.unbounded(1, positive=True), _PM,
                      ((root,), (root.scale(-1),)), (x,), (1.0,))


def build_bilin() -> NashSystem:
    # drift A2, control A1: f_alpha(x) = alpha*A1*x + A2*x
    a1 = ((0, 1), (1, 0))
    a2 = ((Fraction(3, 10), Fraction(-1, 5)),
          (Fraction(1, 10), Fraction(1, 5)))

    def row(i, sign):
        return _linear([sign * a1[i][j] + a2[i][j] for j in range(2)])

    readout = _linear([1, Fraction(2, 5)])
    return NashSystem(Box.unbounded(2), _PM,
                      ((row(0, 1), row(1, 1)), (row(0, -1), row(1, -1))),
                      (readout,), (1.0, 0.5))


def build_red3() -> NashSystem:
    xs = [NashExpr.variable(i, 3) for i in range(3)]
    return NashSystem(Box.unbounded(3), _PM,
                      (tuple(xs), tuple(x.scale(-1) for x in xs)),
                      (xs[0] + xs[1],), (1.0, 1.0, 1.0))


def build_unobs() -> NashSystem:
    # reachable but unobservable: x2 is autonomous and never read out
    x1 = NashExpr.variable(0, 2)
    x2 = NashExpr.variable(1, 2)
    return NashSystem(Box.unbounded(2), _PM,
                      ((x1, x2), (-x1, x2)), (x1,), (1.0, 2.0))


def build_cube() -> NashSystem:
    # SYS-LIN1 in the chart z = x^3: dz/dt = 3*alpha*z, h = z^(1/3)
    z = NashExpr.variable(0, 1, POSITIVE_ORTHANT)
    third = _mono(1, [Fraction(1, 3)], POSITIVE_ORTHANT)
    return NashSystem(Box.unbounded(1, positive=True), _PM,
                      ((z.scale(3),), (z.scale(-3),)), (third,), (1.0,))


def build_lin2() -> NashSystem:
    # controllable + observable companion pair
    a = ((0, 1), (Fraction(-1, 2), -1))
    b = (0, 1)

    def field(sign):
        return tuple(_affine(list(a[i]), sign * b[i]) for i in range(2))

    return NashSystem(Box.unbounded(2), _PM, (field(1), field(-1)),
                      (_linear([1, 0]),), (1.0, 0.5))


def build_lin3() -> NashSystem:
    a = ((0, 1, 0), (0, 0, 1),
         (Fraction(-1, 2), -1, Fraction(-7, 10)))
    b = (0, 0, 1)

    def field(sign):
        return tuple(_affine(list(a[i]), sign * b[i]) for i in range(3))

    return NashSystem(Box.unbounded(3), _PM, (field(1), field(-1)),
                      (_linear([1, 0, 0]),), (1.0, 0.5, -0.25))


_BUILDERS = {
    "SYS-LIN1": build_lin1,
    "SYS-DIAG": build_diag,
    "SYS-PL": build_pl,
    "SYS-BILIN": build_bilin,
    "SYS-RED3": build_red3,
    "SYS-UNOBS": build_unobs,
    "SYS-CUBE": build_cube,
    "SYS-LIN2": build_lin2,
    "SYS-LIN3": build_lin3,
}

# the pair related by a known Nash diffeomorphism (state cubing)
ISO_PAIR = ("SYS-LIN1", "SYS-CUBE")


def names() -> list[str]:
    return list(_BUILDERS)


def build(name: str) -> NashSystem:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown catalog system {name!r}") from None


def load(name: str) -> NashSystem:
    """The shipped JSON version of a catalog system."""
    ref = resources.files("nash_realize").joinpath(
        "catalog_data", f"{name}.json")
    with ref.open("r", encoding="utf-8") as fh:
        return NashSystem.from_json(json.load(fh))

