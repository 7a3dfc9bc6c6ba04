"""References the benchmark checks the program against.

Everything here is computed without calling nash_realize: closed-form
flows (augmented matrix exponentials for affine fields, the explicit
SYS-PL formula, rotation matrices), accessibility and Kalman ranks from
hand-written system matrices, the table of hand-derived transcendence
degrees, and the cube map that relates SYS-LIN1 to SYS-CUBE. README.md
in this directory derives the table.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

# ---------------------------------------------------------------- catalog
#
# The catalog systems with affine fields, written out by hand from the
# definitions in the program's catalog: per letter a matrix A and a
# constant b (x' = A x + b), a linear readout C (None where the readout
# is not linear), and x0. Letter a0 is the input value +1, a1 is -1.

_I2, _I3 = np.eye(2), np.eye(3)
_BILIN_A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
_BILIN_A2 = np.array([[0.3, -0.2], [0.1, 0.2]])
_LIN2_A = np.array([[0.0, 1.0], [-0.5, -1.0]])
_LIN3_A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.5, -1.0, -0.7]])

AFFINE = {
    "SYS-LIN1": dict(A=[[[1.0]], [[-1.0]]], b=[[0.0], [0.0]],
                     C=[[1.0]], x0=[1.0]),
    "SYS-DIAG": dict(A=[_I2, -_I2], b=[[0, 0], [0, 0]],
                     C=[[1.0, 1.0]], x0=[1.0, 1.0]),
    "SYS-BILIN": dict(A=[_BILIN_A1 + _BILIN_A2, -_BILIN_A1 + _BILIN_A2],
                      b=[[0, 0], [0, 0]], C=[[1.0, 0.4]], x0=[1.0, 0.5]),
    "SYS-RED3": dict(A=[_I3, -_I3], b=[[0, 0, 0], [0, 0, 0]],
                     C=[[1.0, 1.0, 0.0]], x0=[1.0, 1.0, 1.0]),
    "SYS-UNOBS": dict(A=[np.diag([1.0, 1.0]), np.diag([-1.0, 1.0])],
                      b=[[0, 0], [0, 0]], C=[[1.0, 0.0]], x0=[1.0, 2.0]),
    "SYS-LIN2": dict(A=[_LIN2_A, _LIN2_A], b=[[0, 1], [0, -1]],
                     C=[[1.0, 0.0]], x0=[1.0, 0.5]),
    "SYS-LIN3": dict(A=[_LIN3_A, _LIN3_A], b=[[0, 0, 1], [0, 0, -1]],
                     C=[[1.0, 0.0, 0.0]], x0=[1.0, 0.5, -0.25]),
    # z' = 3*alpha*z with readout z^(1/3): affine field, nonlinear readout
    "SYS-CUBE": dict(A=[[[3.0]], [[-3.0]]], b=[[0.0], [0.0]],
                     C=None, x0=[1.0]),
}

# Hand-derived (reachable, observation-algebra, response) transcendence
# degrees of every catalog system. README.md gives the derivation; for the
# affine systems `kalman_degrees` recomputes them from AFFINE.
DEGREES = {
    "SYS-LIN1": (1, 1, 1),
    "SYS-DIAG": (1, 1, 1),
    "SYS-PL": (1, 1, 1),
    "SYS-BILIN": (2, 2, 2),
    "SYS-RED3": (1, 1, 1),
    "SYS-UNOBS": (2, 1, 1),
    "SYS-CUBE": (1, 1, 1),
    "SYS-LIN2": (2, 2, 2),
    "SYS-LIN3": (3, 3, 3),
}

DIMENSIONS = {"SYS-LIN1": 1, "SYS-DIAG": 2, "SYS-PL": 1, "SYS-BILIN": 2,
              "SYS-RED3": 3, "SYS-UNOBS": 2, "SYS-CUBE": 1, "SYS-LIN2": 2,
              "SYS-LIN3": 3}


def check_affine_matches(name: str, system_json: dict) -> None:
    """Raise if the catalog's serialized fields differ from AFFINE[name].

    Compares exact term data, so the references above describe the same
    systems the program loads."""
    spec = AFFINE[name]
    n = len(spec["x0"])
    for li, letter in enumerate(system_json["alphabet"]):
        A = np.zeros((n, n))
        b = np.zeros(n)
        for i, comp in enumerate(system_json["fields"][letter]):
            for term in comp:
                exps = [Fraction(e) for e in term["exps"]]
                c = float(Fraction(term["coeff"]))
                if all(e == 0 for e in exps):
                    b[i] += c
                elif sorted(exps) == [0] * (n - 1) + [1]:
                    A[i, exps.index(1)] += c
                else:
                    raise ValueError(f"{name}: non-affine term {term}")
        if not (np.array_equal(A, np.asarray(spec["A"][li], float))
                and np.array_equal(b, np.asarray(spec["b"][li], float))):
            raise ValueError(f"{name}: letter {letter} differs from the "
                             "hand-written reference")
    if list(system_json["x0"]) != list(spec["x0"]):
        raise ValueError(f"{name}: x0 differs from the reference")


# ------------------------------------------------------------ closed forms


def affine_flow(A_list, b_list, x0, word) -> np.ndarray:
    """Exact terminal state of x' = A_a x + b_a along word [(a, t), ...],
    from the augmented matrix exponential expm(t [[A, b], [0, 0]])."""
    x = np.append(np.asarray(x0, dtype=float), 1.0)
    n = x.size - 1
    for letter, t in word:
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = A_list[letter]
        M[:n, n] = b_list[letter]
        x = scipy.linalg.expm(t * M) @ x
    return x[:n]


def pl_flow(x0: float, word) -> float:
    """SYS-PL: x' = +-sqrt(x), so sqrt(x) moves linearly at rate +-1/2.
    Raises ValueError when sqrt(x) would reach 0 (the face x = 0)."""
    r = math.sqrt(x0)
    for letter, t in word:
        r += (0.5 if letter == 0 else -0.5) * t
        if r <= 0.0:
            raise ValueError("SYS-PL word leaves the positive orthant")
    return r * r


# Rotation system: a0 is x' = (x2, -x1), a1 is x' = (-x2, x1), on the box
# x1 < ROT_FACE. From x = r (sin phi, cos phi) letter a0 advances phi at
# unit rate, so x1 = r sin(phi + t).
ROT_FACE = 0.99
ROT_X0 = (0.0, 1.0)


def _rotate(x, s):
    c, sn = math.cos(s), math.sin(s)
    return np.array([c * x[0] + sn * x[1], -sn * x[0] + c * x[1]])


def rotation_outcome(x, word, margin: float):
    """Classify a rotation word from x by its exact trajectory.

    Returns (kind, terminal) with kind one of
      "inside"   - the trajectory stays at least `margin` below the face;
      "exit"     - it first crosses the face in a segment that ends at
                   least `margin` beyond it;
      "excursion"- it crosses the face and is back inside by the end of
                   that same segment;
      "close"    - it comes within `margin` of the face without either.
    terminal is the exact end state (meaningful for "inside").
    """
    x = np.asarray(x, dtype=float)
    for letter, t in word:
        s = t if letter == 0 else -t
        r = math.hypot(x[0], x[1])
        phi = math.atan2(x[0], x[1])
        lo, hi = phi + min(0.0, s), phi + max(0.0, s)
        # does [lo, hi] contain pi/2 + 2 pi k, where x1 peaks at r?
        k = math.ceil((lo - math.pi / 2) / (2 * math.pi))
        peak = r if math.pi / 2 + 2 * math.pi * k <= hi else \
            max(r * math.sin(lo), r * math.sin(hi))
        x = _rotate(x, s)
        if peak >= ROT_FACE - margin:
            if peak < ROT_FACE + margin:
                return "close", x
            if x[0] >= ROT_FACE + margin:
                return "exit", x
            if x[0] < ROT_FACE - margin:
                return "excursion", x
            return "close", x
    return "inside", x


# Words from x0 = (0, 1) whose exact trajectory crosses x1 = 0.99 and
# returns within one segment. The program's exit check samples only a few
# dense-output points per segment, so it misses these.
ROT_EXCURSIONS = (
    ((0, 2 * math.pi),),
    ((1, -2 * math.pi),),
    ((0, math.pi),),
)


# --------------------------------------------------- Kalman and Lie ranks


def _rank(M, rel=1e-9) -> int:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > rel * max(sv[0], 1e-300)))


def _span_closure(start, grow, dim_cap):
    """Span of `start` closed under grow(v) -> new vectors (flattened)."""
    basis = []
    queue = list(start)
    while queue:
        v = queue.pop(0)
        if _rank(basis + [v]) > len(basis):
            basis.append(v)
            if len(basis) == dim_cap:
                break
            queue.extend(grow(v, basis))
    return basis


def kalman_degrees(spec) -> tuple[int, int, int]:
    """(reachable, observation, response) degrees of an affine system.

    Reachable: rank at (x0, 1) of the Lie algebra generated by the
    augmented matrices [[A_a, b_a], [0, 0]] (the orbit of the flows,
    negative times allowed). Observation: rank of the span of C A_w over
    letter words w. Response: rank of the observation rows applied to the
    orbit's tangent space."""
    A = [np.asarray(a, dtype=float) for a in spec["A"]]
    b = [np.asarray(v, dtype=float) for v in spec["b"]]
    n = A[0].shape[0]
    aug = []
    for Ai, bi in zip(A, b):
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = Ai
        M[:n, n] = bi
        aug.append(M.ravel())

    def brackets(v, basis):
        V = v.reshape(n + 1, n + 1)
        return [(V @ W.reshape(n + 1, n + 1)
                 - W.reshape(n + 1, n + 1) @ V).ravel() for W in basis]

    lie = _span_closure(aug, brackets, (n + 1) ** 2)
    xa = np.append(np.asarray(spec["x0"], dtype=float), 1.0)
    tangent = np.array([(v.reshape(n + 1, n + 1) @ xa)[:n] for v in lie]).T
    reach = _rank(tangent.T)
    C = np.atleast_2d(np.asarray(spec["C"], dtype=float))
    obs_rows = _span_closure(list(C), lambda r, _b: [r @ Ai for Ai in A], n)
    O = np.array(obs_rows)
    return reach, _rank(O), _rank(O @ tangent)


# -------------------------------------------------------------- cube map


def cube(x: float) -> float:
    """SYS-CUBE is SYS-LIN1 in the chart z = x^3."""
    return x ** 3


def affine_readout(name: str, x) -> np.ndarray:
    spec = AFFINE[name]
    if spec["C"] is None:
        return np.array([float(x[0]) ** (1.0 / 3.0)])
    return np.asarray(spec["C"], dtype=float) @ np.asarray(x, dtype=float)
