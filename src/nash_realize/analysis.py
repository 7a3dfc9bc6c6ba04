"""Observation algebras, transcendence-degree estimation, relation fitting.

Transcendence degree of a family of functions is estimated as the generic
rank of its Jacobian (classical Jacobian criterion): exact rational
elimination when every generator is polynomial, SVD rank at random points
otherwise. The response-map variant differentiates oracle responses with
respect to switching durations of sampled words; derivative generators of
the observation algebra are realized by extending the words with short
random suffixes, which spans the same space as iterated time derivatives
for analytic responses. Duration derivatives of a simulated system are
exact, from its variational equations; an oracle without a field (a
table) gets Richardson differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import (DegenerateSamples, DomainExit, ExpressionBlowup,
                     IllConditioned, BlowUp)
from .expr import ALL_REAL, NashExpr, lie_derivative, stacked_evaluator
from .inputs import (GeneralizedInput, InputAlphabet, admissible, concat,
                     diverse_word)
from .system import Box, NashSystem, ResponseOracle, SystemOracle

DEFAULT_RANK_TOL = 1e-8
DEFAULT_GAP_FACTOR = 1e6
DEFAULT_FD_STEP = 1e-3
DEFAULT_FD_FLOW_TOL = 1e-12

# relative floor below which finite-difference rows count as zero
_ROW_FLOOR = 1e-7
# absolute derivative scale below which the whole map counts as constant
_CONST_FLOOR = 1e-9
# rank tolerances below float noise cannot certify an integer rank
_NOISE_FLOOR_TOL = 1e-13


# ------------------------------------------------------------ obs algebra


@dataclass(frozen=True)
class ObsAlgebraBasis:
    """Lie-derivative generators of the observation algebra, to a depth.

    words[i] is (output index, tuple of letter names applied outermost
    last), so words[i] = (j, ()) for the readout components themselves.
    """

    generators: tuple[NashExpr, ...]
    words: tuple[tuple[int, tuple[str, ...]], ...]
    depth: int


def generate_obs_algebra(sys: NashSystem, depth: int,
                         max_terms: int = 1000) -> ObsAlgebraBasis:
    """Breadth-first Lie closure of the readout up to the given depth.

    Exact duplicates and scalar multiples of already-known generators are
    pruned (pruning never changes the transcendence degree). Readout
    components are always kept. Raises ExpressionBlowup, carrying the
    partial basis, when a derivative exceeds the term cap.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    gens: list[NashExpr] = []
    words: list[tuple[int, tuple[str, ...]]] = []
    seen: set[NashExpr] = set()
    for j, h in enumerate(sys.readout):
        if h in seen:
            continue
        gens.append(h)
        words.append((j, ()))
        seen.add(h)
    frontier = list(zip(gens, words))
    for _ in range(depth):
        nxt = []
        for g, (j, trail) in frontier:
            for li, name in enumerate(sys.alphabet.names):
                lg = lie_derivative(sys.fields[li], g)
                if lg.term_count > max_terms:
                    raise ExpressionBlowup(
                        f"Lie derivative exceeded {max_terms} terms",
                        partial_basis=ObsAlgebraBasis(
                            tuple(gens), tuple(words), depth))
                if lg.is_zero or lg in seen:
                    continue
                if any(lg.scalar_multiple_of(k) is not None for k in gens):
                    continue
                gens.append(lg)
                words.append((j, trail + (name,)))
                seen.add(lg)
                nxt.append((lg, (j, trail + (name,))))
        frontier = nxt
        if not frontier:
            break
    return ObsAlgebraBasis(tuple(gens), tuple(words), depth)


# ------------------------------------------------------------ rank reports


@dataclass(frozen=True)
class TranscendenceReport:
    estimated_trdeg: int
    rank_tolerance: float
    basis_indices: tuple[int, ...]
    singular_values: tuple[tuple[float, ...], ...]
    sample_points: tuple
    gap: float
    low_confidence: bool
    method: str
    labels: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "estimated_trdeg": self.estimated_trdeg,
            "rank_tolerance": self.rank_tolerance,
            "basis_indices": list(self.basis_indices),
            "singular_values": [list(sv) for sv in self.singular_values],
            "sample_points": [list(p) if not isinstance(p, (int, float))
                              else p for p in self.sample_points],
            "gap": self.gap if np.isfinite(self.gap) else None,
            "low_confidence": self.low_confidence,
            "method": self.method,
            "labels": list(self.labels),
        }


def _rank_from_sv(sv: np.ndarray, rank_tol: float,
                  gap_factor: float) -> tuple[int, float, bool]:
    """(rank, gap at the cut, low_confidence). gap is inf when nothing is
    discarded; confidence also drops for sub-noise tolerances."""
    if sv.size == 0 or sv[0] <= 0.0:
        return 0, np.inf, rank_tol < _NOISE_FLOOR_TOL
    rank = int(np.sum(sv >= rank_tol * sv[0]))
    if rank < sv.size and sv[rank] > 0.0:
        gap = float(sv[rank - 1] / sv[rank])
    else:
        gap = np.inf
    low = gap < gap_factor or rank_tol < _NOISE_FLOOR_TOL
    return rank, gap, low


@dataclass(frozen=True)
class _RankEvidence:
    singular_values: tuple[float, ...]
    rank: int
    gap: float
    low_confidence: bool
    pivots: tuple[int, ...]


def _rank_evidence(mat: np.ndarray, const_floor: float, rank_tol: float,
                   gap_factor: float) -> _RankEvidence:
    """SVD rank of mat's rows scaled to unit norm. Rows below _ROW_FLOOR
    of the largest are dropped, and all of them when none exceeds
    const_floor; pivots are the greedy row basis from column-pivoted QR,
    as indices into mat."""
    nrm = np.linalg.norm(mat, axis=1)
    keep = nrm > _ROW_FLOOR * max(nrm.max(), 1e-300)
    if nrm.max() <= const_floor:
        keep[:] = False
    norm_mat = mat[keep] / nrm[keep, None]
    sv = np.linalg.svd(norm_mat, compute_uv=False) if keep.any() \
        else np.zeros(0)
    rank, gap, low = _rank_from_sv(sv, rank_tol, gap_factor)
    pivots: tuple[int, ...] = ()
    if rank:
        _q, _r, piv = scipy.linalg.qr(norm_mat.T, pivoting=True)
        kept_idx = np.flatnonzero(keep)
        pivots = tuple(int(kept_idx[p]) for p in piv[:rank])
    return _RankEvidence(tuple(float(s) for s in sv), rank, gap, low, pivots)


def _exact_rank_pivots(rows: list[list[Fraction]],
                       ncols: int) -> tuple[int, list[int]]:
    """Fraction Gaussian elimination; returns rank and pivot column order
    (earlier columns preferred, so lower generator indices win ties)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        sel = None
        for r in range(row, nrows):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        pivots.append(col)
        inv = mat[row][col]
        for r in range(row + 1, nrows):
            if mat[r][col] != 0:
                factor = mat[r][col] / inv
                for c in range(col, ncols):
                    mat[r][c] -= factor * mat[row][c]
        row += 1
        if row == nrows:
            break
    return len(pivots), pivots


class FuncGenerator:
    """Non-symbolic generator for rank estimation: a gradient callable
    (exact where implicit differentiation applies, finite differences
    otherwise)."""

    def __init__(self, grad: Callable[[np.ndarray], np.ndarray],
                 label: str = "", is_constant: bool = False):
        self.grad = grad
        self.label = label
        self.is_constant = is_constant


def box_sampler(domain: Box, center: Sequence[float], radius: float,
                rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    """Uniform sampler on a ball around center, clipped into the open
    domain by rejection."""
    c = np.asarray(center, dtype=float)

    def sample(count: int) -> np.ndarray:
        pts, _ = admissible(
            (c + radius * rng.uniform(-1.0, 1.0, size=c.size)
             for _ in range(100 * count)),
            lambda x: x if domain.contains(x) else None, count)
        if len(pts) < count:
            raise DegenerateSamples(
                "sampler failed to find points inside the domain")
        return np.array(pts)

    return sample


def estimate_trdeg(generators: Sequence, sampler: Callable[[int], np.ndarray],
                   count: int = 4, rank_tol: float = DEFAULT_RANK_TOL,
                   mode: str = "auto",
                   gap_factor: float = DEFAULT_GAP_FACTOR) -> TranscendenceReport:
    """Transcendence degree of a generator family as generic Jacobian rank.

    Uses exact rational elimination when every generator is a polynomial
    (mode "auto"/"exact"); otherwise float SVD rank, maximized over sample
    points, with the greedy basis read off column pivoting.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    pts = np.atleast_2d(np.asarray(sampler(count), dtype=float))
    nv = pts.shape[1]
    all_poly = all(isinstance(g, NashExpr) and g.domain_flag == ALL_REAL
                   for g in gens)
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    use_exact = all_poly and mode in ("auto", "exact")
    if mode == "exact" and not all_poly:
        raise ValueError("exact mode needs polynomial generators")

    grads = [g.gradient() if isinstance(g, NashExpr) else None for g in gens]
    labels = tuple(
        g.label if isinstance(g, FuncGenerator) else str(g) for g in gens)

    if use_exact:
        best_rank, best_pivots, best_idx = 0, [], 0
        sv_evidence = []
        for pi, x in enumerate(pts):
            xq = [Fraction(float(v)) for v in x]
            rows = [[dg.eval(xq, mode="EXACT") for dg in grads[i]]
                    for i in range(len(gens))]
            # columns are generators: transpose so pivots give basis indices
            cols = [[rows[i][j] for i in range(len(gens))]
                    for j in range(nv)]
            rank, pivots = _exact_rank_pivots(cols, len(gens))
            jac = np.array([[float(v) for v in r] for r in rows])
            sv_evidence.append(
                _rank_evidence(jac, 0.0, rank_tol, gap_factor).singular_values)
            if rank > best_rank:
                best_rank, best_pivots, best_idx = rank, pivots, pi
        if best_rank == 0 and any(not g.is_constant for g in gens):
            raise DegenerateSamples(
                "all sample points give rank 0 for nonconstant generators")
        return TranscendenceReport(
            estimated_trdeg=best_rank, rank_tolerance=rank_tol,
            basis_indices=tuple(best_pivots[:best_rank]),
            singular_values=tuple(sv_evidence),
            sample_points=tuple(tuple(float(v) for v in p) for p in pts),
            gap=np.inf, low_confidence=False, method="exact-rational",
            labels=labels)

    best = None
    sv_evidence = []
    grad_at = [g.grad if dgs is None else stacked_evaluator(dgs)
               for g, dgs in zip(gens, grads)]
    for x in pts:
        jac = np.zeros((len(gens), nv))
        for i, grad in enumerate(grad_at):
            jac[i] = grad(x)
        if not np.all(np.isfinite(jac)):
            sv_evidence.append(())
            continue
        ev = _rank_evidence(jac, _CONST_FLOOR, rank_tol, gap_factor)
        sv_evidence.append(ev.singular_values)
        if ev.singular_values and (best is None or ev.rank > best.rank):
            best = ev
    if best is None:
        # the evidence of a point where no row counts
        best = _rank_evidence(np.zeros((1, nv)), _CONST_FLOOR, rank_tol,
                              gap_factor)
    if best.rank == 0 and any(not g.is_constant for g in gens):
        raise DegenerateSamples(
            "all sample points give rank 0 for nonconstant generators")
    return TranscendenceReport(
        estimated_trdeg=best.rank, rank_tolerance=rank_tol,
        basis_indices=best.pivots, singular_values=tuple(sv_evidence),
        sample_points=tuple(tuple(float(v) for v in p) for p in pts),
        gap=best.gap, low_confidence=best.low_confidence,
        method="float-svd", labels=labels)


# ------------------------------------------------- response-map estimators


# finite-difference nodes, in multiples of the step
_FD_MULTS = (-2, -1, 1, 2)


def _richardson(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order central difference from values at -2h, -h, +h, +2h
    (axis -2)."""
    m2, m1, p1, p2 = np.moveaxis(values, -2, 0)
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)


def response_plan(alphabet: InputAlphabet, max_letters: int, depth: int,
                  count: int, time_budget: float,
                  rng: np.random.Generator):
    """Deterministic word plan for response-trdeg estimation: base words
    with adjacent-distinct letters, plus suffix draws realizing the
    derivative generators of the observation algebra."""
    k = max_letters
    lo, hi = 0.1 * time_budget / k, 0.5 * time_budget / k
    base_words = [diverse_word(alphabet, k, rng.uniform(lo, hi, size=k), rng)
                  for _ in range(count)]
    suffixes = [(GeneralizedInput.empty(alphabet), "e")]
    for length in range(1, depth + 1):
        for seq in itertools.product(range(len(alphabet)), repeat=length):
            for draw in range(2):
                sig = time_budget * rng.uniform(0.02, 0.12, size=length)
                w = GeneralizedInput(
                    alphabet, tuple((int(i), float(s))
                                    for i, s in zip(seq, sig)))
                name = "".join(alphabet.names[i] for i in seq)
                suffixes.append((w, f"{name}#{draw}"))
    return base_words, suffixes


def _perturbed(word: GeneralizedInput, slot: int, delta: float):
    durs = list(word.durations())
    durs[slot] += delta
    return word.with_durations(durs)


def _fd_words(word: GeneralizedInput, h: float) -> list[GeneralizedInput]:
    """word with each slot's duration moved by each _FD_MULTS step, slot
    by slot."""
    return [_perturbed(word, slot, mult * h)
            for slot in range(len(word)) for mult in _FD_MULTS]


def _fd_response_matrix(oracle: ResponseOracle, base: GeneralizedInput,
                        suffixes: Sequence[GeneralizedInput], h: float):
    """Duration Jacobian of the responses to base extended by each suffix,
    rows (suffix, output) over base's slots, by Richardson differences;
    with the responses it was taken from."""
    fd_words = _fd_words(base, h)
    # suffix-major, as the rows
    vals = np.array([oracle.respond(concat(w, suf))
                     for suf in suffixes for w in fd_words])
    derivs = _richardson(
        vals.reshape(len(suffixes), len(base), len(_FD_MULTS), oracle.r), h)
    return derivs.transpose(0, 2, 1).reshape(-1, len(base)), vals


def _variational_response_matrix(oracle: SystemOracle,
                                 base: GeneralizedInput,
                                 suffixes: Sequence[GeneralizedInput],
                                 tol: float):
    """The same rows as _fd_response_matrix, exact: Dh(x_end) V from the
    variational flow of base and each suffix; with the responses."""
    sys = oracle.system
    rows, vals = [], []
    for x, v in sys.duration_sensitivities(oracle.x0, base, suffixes, tol):
        h, dh = sys.readout_and_jacobian(x)
        rows.append(dh @ v)
        vals.append(h)
    return np.vstack(rows), np.array(vals)


def _best_word_rank(first_words, count: int, redraw, jacobian,
                    nonfinite: str, rank_tol: float, gap_factor: float,
                    method: str) -> TranscendenceReport:
    """Rank evidence of jacobian(word) -> (mat, scale) over count words,
    the best kept, as a report without labels.

    first_words yields the words in turn. A word whose flow raises
    DomainExit or BlowUp, or whose matrix is not finite (BlowUp with the
    message nonfinite), is replaced by redraw(); after 10 * count
    replacements the next such failure is raised. A matrix counts as
    constant when no row exceeds _CONST_FLOOR times the largest scale
    seen so far (at least 1).
    """
    words_done = []
    sv_evidence = []
    best = None
    attempts = 0
    scale = 1.0
    for word in first_words:
        while True:
            try:
                mat, word_scale = jacobian(word)
                if np.all(np.isfinite(mat)):
                    break
                failure = BlowUp(nonfinite)
            except (DomainExit, BlowUp) as exc:
                failure = exc
            attempts += 1
            if attempts > 10 * count:
                raise failure
            word = redraw()
        scale = max(scale, word_scale)
        ev = _rank_evidence(mat, _CONST_FLOOR * scale, rank_tol, gap_factor)
        sv_evidence.append(ev.singular_values)
        words_done.append(tuple(word.to_json()))
        if best is None or ev.rank > best.rank:
            best = ev
    return TranscendenceReport(
        estimated_trdeg=best.rank, rank_tolerance=rank_tol,
        basis_indices=best.pivots, singular_values=tuple(sv_evidence),
        sample_points=tuple(words_done), gap=best.gap,
        low_confidence=best.low_confidence, method=method)


def estimate_response_trdeg(oracle: ResponseOracle, depth: int = 2,
                            max_letters: Optional[int] = None,
                            count: int = 3,
                            fd_step: float = DEFAULT_FD_STEP,
                            rank_tol: float = DEFAULT_RANK_TOL,
                            seed=None,
                            time_budget: float = 1.0,
                            flow_tol: float = DEFAULT_FD_FLOW_TOL,
                            gap_factor: float = DEFAULT_GAP_FACTOR
                            ) -> TranscendenceReport:
    """Transcendence degree of the response map's observation algebra.

    Rows are duration-derivatives of the response at sampled base words
    extended by short suffix words (the derivative generators); the rank of
    the per-word Jacobian, maximized over words, is the estimate. A
    SystemOracle gives exact derivatives from variational flows at
    flow_tol; any other oracle has no field to differentiate, and gets
    Richardson differences with step fd_step.
    """
    rng = np.random.default_rng(seed)
    if max_letters is None:
        sys = getattr(oracle, "system", None)
        max_letters = sys.n if sys is not None else 2
    k = max_letters
    base_words, suffixes = response_plan(
        oracle.alphabet, k, depth, count, time_budget, rng)
    suffix_words = [suf for suf, _name in suffixes]
    exact = isinstance(oracle, SystemOracle)

    def jacobian(base):
        mat, vals = (
            _variational_response_matrix(oracle, base, suffix_words, flow_tol)
            if exact else
            _fd_response_matrix(oracle, base, suffix_words, fd_step))
        return mat, float(np.max(np.abs(vals)))

    def redraw():
        return response_plan(oracle.alphabet, k, depth, 1, time_budget,
                             rng)[0][0]

    report = _best_word_rank(base_words, len(base_words), redraw, jacobian,
                             "nonfinite responses while estimating trdeg",
                             rank_tol, gap_factor,
                             "response-variational" if exact
                             else "response-fd")
    row_labels = [f"p{j}|{suf_name}"
                  for _suf, suf_name in suffixes for j in range(oracle.r)]
    return replace(report, labels=tuple(row_labels[p]
                                        for p in report.basis_indices))


def tabulate_response_plan(oracle: ResponseOracle, depth: int = 2,
                           max_letters: int = 2, count: int = 3,
                           fd_step: float = DEFAULT_FD_STEP,
                           time_budget: float = 1.0, seed=None):
    """Tabulate `oracle` on grids that exactly cover the probe words of
    estimate_response_trdeg run with the same seed and parameters.

    Base-word slots get the base duration and its _FD_MULTS nodes, suffix
    slots are singletons, so the estimator hits stored values and never
    interpolates.
    """
    from .system import TableOracle
    rng = np.random.default_rng(seed)
    base_words, suffixes = response_plan(oracle.alphabet, max_letters,
                                         depth, count, time_budget, rng)
    plans = []
    for base in base_words:
        names = base.letter_names()
        durs = base.durations()
        for suf, _name in suffixes:
            seq = names + suf.letter_names()
            axes = [sorted([t + m * fd_step for m in _FD_MULTS] + [t])
                    for t in durs]
            axes += [[t] for t in suf.durations()]
            plans.append((seq, axes))
    return TableOracle.tabulate(oracle, plans)


def _reachable_jacobian(sys, word: GeneralizedInput,
                       tol: float) -> np.ndarray:
    """Exact Jacobian of sys's terminal state after word from x0 with
    respect to word's durations: rows coordinates, columns slots."""
    empty = GeneralizedInput.empty(sys.alphabet)
    return next(sys.duration_sensitivities(sys.x0, word, [empty], tol))[1]


def estimate_reachable_trdeg(sys, max_letters: Optional[int] = None,
                             count: int = 4,
                             rank_tol: float = DEFAULT_RANK_TOL,
                             seed=None,
                             time_budget: float = 1.0,
                             flow_tol: float = DEFAULT_FD_FLOW_TOL,
                             gap_factor: float = DEFAULT_GAP_FACTOR
                             ) -> TranscendenceReport:
    """Transcendence degree of the coordinate functions on the reachable
    set: the generic rank of the terminal state's Jacobian with respect to
    switching durations, exact from variational flows at flow_tol. Equals
    dim X exactly when the system is semi-algebraically reachable."""
    rng = np.random.default_rng(seed)
    n = sys.n
    k = max_letters if max_letters is not None else n
    lo, hi = 0.1 * time_budget / k, 0.5 * time_budget / k

    def draw():
        return diverse_word(sys.alphabet, k, rng.uniform(lo, hi, size=k),
                            rng)

    report = _best_word_rank(
        (draw() for _ in range(count)), count, draw,
        lambda word: (_reachable_jacobian(sys, word, flow_tol), 1.0),
        "nonfinite states while estimating trdeg", rank_tol, gap_factor,
        "reachable-variational")
    return replace(report, labels=tuple(f"x{i + 1}" for i in range(n)))


# --------------------------------------------------------- relation fitting


@dataclass(frozen=True)
class PolynomialRelation:
    """Q in variables (T, T1..Td): exponent rows are (eT, e1..ed)."""

    exponents: tuple[tuple[int, ...], ...]
    coefficients: tuple[float, ...]
    total_degree: int
    degree_T: int
    residual: float
    exact_coefficients: Optional[tuple[Fraction, ...]] = None
    alternates: tuple = ()

    def _pts(self, T: float, z) -> np.ndarray:
        return np.concatenate([[float(T)], np.asarray(z, dtype=float)])

    @cached_property
    def _exponent_matrix(self) -> np.ndarray:
        return np.array(self.exponents, dtype=float)

    @cached_property
    def _z_terms(self) -> tuple[int, tuple]:
        """(degree in T, terms): per term, its power of T, its coefficient
        and its z-factors, which name index j once per unit of z_j's
        exponent."""
        terms = tuple((e[0], c, tuple(j for j, ej in enumerate(e[1:])
                                      for _ in range(ej)))
                      for c, e in zip(self.coefficients, self.exponents))
        return max(e[0] for e in self.exponents), terms

    def _in_T(self, z) -> Callable[[float], tuple[float, float, float]]:
        """T -> (Q, sum of |c| * |monomial|, dQ/dT) at (T, z), z a
        sequence of floats.

        The z-part of every term is a plain float product, summed by power
        of T into the coefficients a of Q(., z) and s of the scale; each
        call then runs Horner's rule on them.
        """
        top, terms = self._z_terms
        a = [0.0] * (top + 1)
        s = [0.0] * (top + 1)
        for p, c, factors in terms:
            m = c
            for j in factors:
                m *= z[j]
            a[p] += m
            s[p] += abs(m)

        def at(T: float) -> tuple[float, float, float]:
            t = abs(T)
            value, scale, d_T = a[-1], s[-1], 0.0
            for p in range(top - 1, -1, -1):
                d_T = d_T * T + value
                value = value * T + a[p]
                scale = scale * t + s[p]
            return value, scale, d_T

        return at

    def newton_terms(self, T: float, z) -> tuple[float, float, float]:
        """(Q, sum of |c| * |monomial|, dQ/dT) at (T, z), by Horner's rule
        on the polynomial in T at z."""
        return self._in_T(np.asarray(z, dtype=float).tolist())(T)

    def value(self, T: float, z) -> float:
        return self.newton_terms(T, z)[0]

    def dT(self, T: float, z) -> float:
        return self.newton_terms(T, z)[2]

    def gradient(self, T: float, z) -> tuple[float, np.ndarray]:
        """(dQ/dT, dQ/dz) at (T, z); dQ/dT is newton_terms', so it equals
        dT bit for bit."""
        p = self._pts(T, z)
        e = self._exponent_matrix
        powers = p ** e
        # the factor of z_j in d/dz_j: e * z_j^(e - 1), and exactly 0 where
        # e = 0 (no z_j^-1 is formed)
        factors = e[:, 1:] * p[1:] ** np.maximum(e[:, 1:] - 1.0, 0.0)
        d = p.size - 1
        # per z_j, every term's powers with column 1 + j replaced
        stack = np.broadcast_to(powers, (d,) + powers.shape).copy()
        stack[np.arange(d), :, np.arange(1, d + 1)] = factors.T
        return (self.dT(T, z),
                stack.prod(axis=2) @ np.asarray(self.coefficients))

    def mono_scale(self, T: float, z) -> float:
        return self.newton_terms(T, z)[1]

    def to_json(self) -> dict:
        return {
            "exponents": [list(e) for e in self.exponents],
            "coefficients": [repr(c) for c in self.coefficients],
            "exact_coefficients":
                None if self.exact_coefficients is None else
                [f"{c.numerator}/{c.denominator}"
                 for c in self.exact_coefficients],
            "total_degree": self.total_degree,
            "degree_T": self.degree_T,
            "residual": self.residual,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolynomialRelation":
        exact = data.get("exact_coefficients")
        return cls(
            exponents=tuple(tuple(int(v) for v in e)
                            for e in data["exponents"]),
            coefficients=tuple(float(c) for c in data["coefficients"]),
            total_degree=int(data["total_degree"]),
            degree_T=int(data["degree_T"]),
            residual=float(data["residual"]),
            exact_coefficients=None if exact is None else
            tuple(Fraction(c) for c in exact))


def _monomials(nv: int, max_deg: int) -> list[tuple[int, ...]]:
    out = []
    for e in itertools.product(range(max_deg + 1), repeat=nv):
        if sum(e) <= max_deg:
            out.append(e)
    out.sort(key=lambda e: (sum(e), e))
    return out


def monomial_count(nv: int, max_deg: int) -> int:
    return len(_monomials(nv, max_deg))


def _build_relation(v: np.ndarray, scale: np.ndarray,
                    monos: list[tuple[int, ...]],
                    residual: float) -> PolynomialRelation:
    coeffs = v / scale
    top = np.max(np.abs(coeffs))
    coeffs = coeffs / top
    support = np.abs(coeffs) > 1e-12
    exps = tuple(m for m, s in zip(monos, support) if s)
    cs = tuple(float(c) for c, s in zip(coeffs, support) if s)
    total_degree = max(sum(e) for e in exps)
    degree_T = max(e[0] for e in exps)
    return PolynomialRelation(exps, cs, total_degree, degree_T, residual)


def fit_relation(target_vals: Sequence[float], basis_vals,
                 degree_bound: int = 6, fit_tol: float = 1e-7,
                 seed=None, tie_break_point=None) -> Optional[PolynomialRelation]:
    """Minimal-degree polynomial relation between a target function and a
    basis, from joint evaluations.

    Scans total degree 1..bound; within a degree, scans degree-in-T from 1
    up, taking SVD null vectors of the (column-scaled) monomial evaluation
    matrix whose coefficient vectors actually involve T. Candidates must
    pass held-out validation. Returns None when the bound is exhausted.
    With several candidates at the minimal degrees, the one maximizing
    |dQ/dT| at tie_break_point wins (alternates are attached).
    """
    rng = np.random.default_rng(seed)
    t = np.asarray(target_vals, dtype=float)
    B = np.atleast_2d(np.asarray(basis_vals, dtype=float))
    if B.shape[0] != t.size:
        B = B.T
    S = t.size
    if B.shape[0] != S:
        raise ValueError("target/basis sample counts differ")
    pts = np.column_stack([t, B])
    if not np.all(np.isfinite(pts)):
        raise IllConditioned("nonfinite samples in relation fit")
    nv = pts.shape[1]

    perm = rng.permutation(S)
    n_hold = max(5, S // 5)
    if n_hold >= S:
        raise ValueError("too few samples to hold out a validation set")
    hold_idx, fit_idx = perm[:n_hold], perm[n_hold:]

    for deg in range(1, degree_bound + 1):
        monos = _monomials(nv, deg)
        m = len(monos)
        if fit_idx.size < 3 * m:
            raise ValueError(
                f"degree {deg} needs {3 * m} fitting samples, "
                f"have {fit_idx.size}")
        cols = np.empty((S, m))
        for ci, e in enumerate(monos):
            cols[:, ci] = np.prod(pts ** np.asarray(e), axis=1)
        if not np.all(np.isfinite(cols)):
            raise IllConditioned("monomial columns overflow; rescale samples")
        A_fit, A_hold = cols[fit_idx], cols[hold_idx]
        scale = np.max(np.abs(A_fit), axis=0)
        scale[scale == 0.0] = 1.0
        A_fit_s, A_hold_s = A_fit / scale, A_hold / scale

        for dT in range(1, deg + 1):
            sub = [i for i, e in enumerate(monos) if e[0] <= dT]
            A_sub = A_fit_s[:, sub]
            _u, s, vt = np.linalg.svd(A_sub, full_matrices=False)
            if s[0] <= 0.0:
                continue
            null_idx = [i for i in range(s.size)
                        if s[i] <= fit_tol * s[0]]
            if not null_idx:
                continue
            t_rows = [i for i, mi in enumerate(sub) if monos[mi][0] >= 1]
            cands = []
            for i in null_idx:
                v = vt[i]
                if np.linalg.norm(v[t_rows]) < 1e-6:
                    continue
                resid = float(np.max(np.abs(A_hold_s[:, sub] @ v)))
                if resid > fit_tol:
                    continue
                cands.append((v, resid))
            if not cands:
                continue
            sub_monos = [monos[i] for i in sub]
            sub_scale = scale[sub]
            rels = []
            for v, resid in cands:
                rel = _build_relation(v, sub_scale, sub_monos, resid)
                rel = _try_rationalize(rel, A_hold_s[:, sub], v, resid,
                                       sub_scale, sub_monos, fit_tol)
                rels.append(rel)
            if tie_break_point is not None and len(rels) > 1:
                Tp, zp = tie_break_point
                rels.sort(key=lambda r: -abs(r.dT(Tp, zp)))
            else:
                rels.sort(key=lambda r: r.residual)
            primary = rels[0]
            return replace(primary, alternates=tuple(rels[1:]))
    return None


def _try_rationalize(rel: PolynomialRelation, A_hold_s: np.ndarray,
                     v: np.ndarray, float_resid: float,
                     scale: np.ndarray, monos: list,
                     fit_tol: float) -> PolynomialRelation:
    """Round coefficients to small rationals; adopt them only when the
    held-out residual stays competitive."""
    rat = tuple(Fraction(c).limit_denominator(10 ** 6)
                for c in rel.coefficients)
    if all(r == 0 for r in rat):
        return rel
    # rebuild a scaled coefficient vector aligned with the full support
    full = np.zeros(len(monos))
    support = {e: float(c) for e, c in zip(rel.exponents, rat)}
    for i, e in enumerate(monos):
        if e in support:
            full[i] = support[e]
    v_rat = full * scale
    nv = np.linalg.norm(v_rat)
    if nv == 0.0:
        return rel
    v_rat = v_rat / nv
    resid = float(np.max(np.abs(A_hold_s @ v_rat)))
    if resid <= max(fit_tol, 3.0 * float_resid):
        return replace(rel, coefficients=tuple(float(c) for c in rat),
                       exact_coefficients=rat, residual=resid)
    return rel
