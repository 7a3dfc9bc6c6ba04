"""Observation algebras, transcendence-degree estimation, relation fitting.

Transcendence degree of a family of functions is estimated as the generic
rank of its Jacobian (classical Jacobian criterion): exact rational
elimination when every generator is polynomial, SVD rank at random points
otherwise. The response-map variant differentiates oracle responses with
respect to switching durations of sampled words; derivative generators of
the observation algebra are realized by extending the words with short
random suffixes, which spans the same space as iterated time derivatives
for analytic responses.
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
from .expr import ALL_REAL, NashExpr, lie_derivative
from .inputs import GeneralizedInput, InputAlphabet, concat, diverse_word
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
    """Non-symbolic generator for rank estimation: a value callable plus a
    gradient callable (exact where implicit differentiation applies,
    finite differences otherwise)."""

    def __init__(self, value: Callable[[np.ndarray], float],
                 grad: Callable[[np.ndarray], np.ndarray],
                 label: str = "", is_constant: bool = False):
        self.value = value
        self.grad = grad
        self.label = label
        self.is_constant = is_constant


def box_sampler(domain: Box, center: Sequence[float], radius: float,
                rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    """Uniform sampler on a ball around center, clipped into the open
    domain by rejection."""
    c = np.asarray(center, dtype=float)

    def sample(count: int) -> np.ndarray:
        pts = []
        attempts = 0
        while len(pts) < count:
            attempts += 1
            if attempts > 100 * count:
                raise DegenerateSamples(
                    "sampler failed to find points inside the domain")
            x = c + radius * rng.uniform(-1.0, 1.0, size=c.size)
            if domain.contains(x):
                pts.append(x)
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
            nrm = np.linalg.norm(jac, axis=1)
            keep = nrm > 0
            sv = np.linalg.svd(jac[keep] / nrm[keep, None],
                               compute_uv=False) if keep.any() else np.zeros(0)
            sv_evidence.append(tuple(float(s) for s in sv))
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

    best = None  # (rank, gap, low, sv per point, winner idx, pivots)
    sv_evidence = []
    any_rank = 0
    for pi, x in enumerate(pts):
        jac = np.zeros((len(gens), nv))
        for i, g in enumerate(gens):
            if isinstance(g, NashExpr):
                jac[i] = [dg.eval_point(x) for dg in grads[i]]
            else:
                jac[i] = np.asarray(g.grad(x), dtype=float)
        if not np.all(np.isfinite(jac)):
            sv_evidence.append(())
            continue
        nrm = np.linalg.norm(jac, axis=1)
        keep = nrm > _ROW_FLOOR * max(nrm.max(), 1e-300)
        if nrm.max() <= _CONST_FLOOR:
            keep = np.zeros(len(gens), dtype=bool)
        if not keep.any():
            sv_evidence.append(())
            continue
        norm_jac = jac[keep] / nrm[keep, None]
        sv = np.linalg.svd(norm_jac, compute_uv=False)
        sv_evidence.append(tuple(float(s) for s in sv))
        rank, gap, low = _rank_from_sv(sv, rank_tol, gap_factor)
        any_rank = max(any_rank, rank)
        if best is None or rank > best[0]:
            _q, _r, pivots = scipy.linalg.qr(norm_jac.T, pivoting=True)
            kept_idx = np.flatnonzero(keep)
            best = (rank, gap, low, pi,
                    tuple(int(kept_idx[p]) for p in pivots[:rank]))
    nonconstant = any(
        (not g.is_constant) if isinstance(g, FuncGenerator)
        else not g.is_constant for g in gens)
    if any_rank == 0 and nonconstant:
        raise DegenerateSamples(
            "all sample points give rank 0 for nonconstant generators")
    if best is None:
        best = (0, np.inf, rank_tol < _NOISE_FLOOR_TOL, 0, ())
    rank, gap, low, _pi, pivots = best
    return TranscendenceReport(
        estimated_trdeg=rank, rank_tolerance=rank_tol,
        basis_indices=pivots, singular_values=tuple(sv_evidence),
        sample_points=tuple(tuple(float(v) for v in p) for p in pts),
        gap=gap, low_confidence=low, method="float-svd", labels=labels)


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
    the per-word Jacobian, maximized over words, is the estimate.
    """
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    if max_letters is None:
        sys = getattr(oracle, "system", None)
        max_letters = sys.n if sys is not None else 2
    k = max_letters
    eff = oracle
    if isinstance(oracle, SystemOracle):
        eff = SystemOracle(oracle.system, x0=oracle.x0, tol=flow_tol)
    base_words, suffixes = response_plan(
        oracle.alphabet, k, depth, count, time_budget, rng)

    words_done = []
    sv_evidence = []
    best = None  # (rank, gap, low, pivots, labels)
    attempts = 0
    wi = 0
    response_scale = 1.0
    row_labels = [f"p{j}|{suf_name}"
                  for _suf, suf_name in suffixes for j in range(oracle.r)]
    while wi < len(base_words):
        base = base_words[wi]
        fd_words = _fd_words(base, fd_step)
        try:
            # suffix-major, as the rows: each perturbed base is integrated
            # once, then continued along every suffix
            vals = np.array(eff.respond_many(
                [concat(w, suf) for suf, _ in suffixes for w in fd_words]))
        except (DomainExit, BlowUp):
            attempts += 1
            if attempts > 10 * len(base_words):
                raise
            base_words[wi] = response_plan(
                oracle.alphabet, k, depth, 1, time_budget, rng)[0][0]
            continue
        # (suffix, slot, mult, output) -> rows (suffix, output) over slots
        derivs = _richardson(
            vals.reshape(len(suffixes), k, len(_FD_MULTS), eff.r), fd_step)
        mat = derivs.transpose(0, 2, 1).reshape(-1, k)
        if not np.all(np.isfinite(mat)):
            attempts += 1
            if attempts > 10 * len(base_words):
                raise BlowUp("nonfinite responses while estimating trdeg")
            base_words[wi] = response_plan(
                oracle.alphabet, k, depth, 1, time_budget, rng)[0][0]
            continue
        response_scale = max(response_scale, float(np.max(np.abs(vals))))
        nrm = np.linalg.norm(mat, axis=1)
        keep = nrm > _ROW_FLOOR * max(nrm.max(), 1e-300)
        if nrm.max() <= _CONST_FLOOR * response_scale:
            keep = np.zeros(len(mat), dtype=bool)
        if keep.any():
            norm_mat = mat[keep] / nrm[keep, None]
            sv = np.linalg.svd(norm_mat, compute_uv=False)
            rank, gap, low = _rank_from_sv(sv, rank_tol, gap_factor)
        else:
            sv = np.zeros(0)
            rank, gap, low = 0, np.inf, rank_tol < _NOISE_FLOOR_TOL
        sv_evidence.append(tuple(float(s) for s in sv))
        words_done.append(tuple(base.to_json()))
        if best is None or rank > best[0]:
            if keep.any():
                _q, _r, pivots = scipy.linalg.qr(norm_mat.T, pivoting=True)
                kept_idx = np.flatnonzero(keep)
                piv = tuple(int(kept_idx[p]) for p in pivots[:rank])
            else:
                piv = ()
            best = (rank, gap, low, piv,
                    tuple(row_labels[p] for p in piv))
        wi += 1
    rank, gap, low, pivots, labels = best
    return TranscendenceReport(
        estimated_trdeg=rank, rank_tolerance=rank_tol,
        basis_indices=pivots, singular_values=tuple(sv_evidence),
        sample_points=tuple(words_done), gap=gap, low_confidence=low,
        method="response-fd", labels=labels)


def tabulate_response_plan(oracle: ResponseOracle, depth: int = 2,
                           max_letters: int = 2, count: int = 3,
                           fd_step: float = DEFAULT_FD_STEP,
                           time_budget: float = 1.0, seed=None):
    """Tabulate `oracle` on grids that exactly cover the probe words of
    estimate_response_trdeg run with the same seed and parameters.

    Base-word slots get the five finite-difference nodes, suffix slots are
    singletons, so the estimator hits stored values and never interpolates.
    """
    from .system import TableOracle
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    base_words, suffixes = response_plan(oracle.alphabet, max_letters,
                                         depth, count, time_budget, rng)
    plans = []
    for base in base_words:
        names = base.letter_names()
        durs = base.durations()
        for suf, _name in suffixes:
            seq = names + suf.letter_names()
            axes = [sorted([t + m * fd_step for m in (-2, -1, 1, 2)] + [t])
                    for t in durs]
            axes += [[t] for t in suf.durations()]
            plans.append((seq, axes))
    return TableOracle.tabulate(oracle, plans)


def estimate_reachable_trdeg(sys, max_letters: Optional[int] = None,
                             count: int = 4,
                             fd_step: float = DEFAULT_FD_STEP,
                             rank_tol: float = DEFAULT_RANK_TOL,
                             seed=None,
                             time_budget: float = 1.0,
                             flow_tol: float = DEFAULT_FD_FLOW_TOL,
                             gap_factor: float = DEFAULT_GAP_FACTOR
                             ) -> TranscendenceReport:
    """Transcendence degree of the coordinate functions on the reachable
    set: the generic rank of the terminal state's Jacobian with respect to
    switching durations. Equals dim X exactly when the system is
    semi-algebraically reachable."""
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    n = sys.n
    k = max_letters if max_letters is not None else n
    lo, hi = 0.1 * time_budget / k, 0.5 * time_budget / k

    words_done = []
    sv_evidence = []
    best = None
    attempts = 0
    done = 0
    while done < count:
        word = diverse_word(sys.alphabet, k,
                            rng.uniform(lo, hi, size=k), rng)
        try:
            states = np.array(list(sys.terminal_states(
                sys.x0, _fd_words(word, fd_step), flow_tol)))
        except (DomainExit, BlowUp):
            attempts += 1
            if attempts > 10 * count:
                raise
            continue
        # rows are coordinates, columns durations
        mat = _richardson(states.reshape(k, len(_FD_MULTS), n), fd_step).T
        if not np.all(np.isfinite(mat)):
            attempts += 1
            if attempts > 10 * count:
                raise BlowUp("nonfinite states while estimating trdeg")
            continue
        nrm = np.linalg.norm(mat, axis=1)
        keep = nrm > _ROW_FLOOR * max(nrm.max(), 1e-300)
        if nrm.max() <= _CONST_FLOOR:
            keep = np.zeros(n, dtype=bool)
        if keep.any():
            norm_mat = mat[keep] / nrm[keep, None]
            sv = np.linalg.svd(norm_mat, compute_uv=False)
            rank, gap, low = _rank_from_sv(sv, rank_tol, gap_factor)
        else:
            sv = np.zeros(0)
            rank, gap, low = 0, np.inf, rank_tol < _NOISE_FLOOR_TOL
        sv_evidence.append(tuple(float(s) for s in sv))
        words_done.append(tuple(word.to_json()))
        if best is None or rank > best[0]:
            if keep.any():
                _q, _r, pivots = scipy.linalg.qr(norm_mat.T, pivoting=True)
                kept_idx = np.flatnonzero(keep)
                piv = tuple(int(kept_idx[p]) for p in pivots[:rank])
            else:
                piv = ()
            best = (rank, gap, low, piv)
        done += 1
    rank, gap, low, pivots = best
    return TranscendenceReport(
        estimated_trdeg=rank, rank_tolerance=rank_tol,
        basis_indices=pivots, singular_values=tuple(sv_evidence),
        sample_points=tuple(words_done), gap=gap, low_confidence=low,
        method="reachable-fd",
        labels=tuple(f"x{i + 1}" for i in range(n)))


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

    def newton_terms(self, T: float, z) -> tuple[float, float, float]:
        """(Q, sum of |c| * |monomial|, dQ/dT) at (T, z), from one power
        of every variable in every term."""
        p = self._pts(T, z)
        powers = p ** self._exponent_matrix
        monos = powers.prod(axis=1).tolist()
        # dQ/dT takes the T factor apart: e0 * T^(e0 - 1) * (the rest)
        rests = powers[:, 1:].prod(axis=1).tolist()
        value = d_T = 0.0
        scale = 0
        for c, e, m, rest in zip(self.coefficients, self.exponents, monos,
                                 rests):
            value += c * m
            scale += abs(c) * abs(m)
            if e[0]:
                d_T += c * (e[0] * p[0] ** (e[0] - 1) * rest)
        return value, float(scale), d_T

    def value(self, T: float, z) -> float:
        return self.newton_terms(T, z)[0]

    def dT(self, T: float, z) -> float:
        return self.newton_terms(T, z)[2]

    def grad_z(self, T: float, z) -> np.ndarray:
        p = self._pts(T, z)
        d = p.size - 1
        out = np.zeros(d)
        for c, e in zip(self.coefficients, self.exponents):
            for j in range(d):
                if e[1 + j] == 0:
                    continue
                ex = list(e)
                ex[1 + j] -= 1
                out[j] += c * e[1 + j] * float(np.prod(p ** np.asarray(ex)))
        return out

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
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
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
