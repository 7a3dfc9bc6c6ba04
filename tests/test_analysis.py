"""Observation algebras, transcendence degree estimation, relation fitting."""

from fractions import Fraction

import numpy as np
import pytest

from nash_realize import analysis, catalog
from nash_realize import system as system_module
from nash_realize.analysis import (_CONST_FLOOR, _FD_MULTS, _NOISE_FLOOR_TOL,
                                   FuncGenerator, PolynomialRelation,
                                   _fd_response_matrix, _fd_words,
                                   _rank_evidence, _reachable_jacobian,
                                   _richardson, _variational_response_matrix,
                                   box_sampler, estimate_reachable_trdeg,
                                   estimate_response_trdeg, estimate_trdeg,
                                   fit_relation, generate_obs_algebra,
                                   monomial_count, response_plan,
                                   tabulate_response_plan)
from nash_realize.errors import (DegenerateSamples, DomainExit,
                                 ExpressionBlowup, IllConditioned)
from nash_realize.expr import ALL_REAL, NashExpr
from nash_realize.inputs import GeneralizedInput
from nash_realize.system import (Box, NashSystem, ResponseOracle,
                                 SystemOracle, shift_oracle)
from test_reduction import hand_charts

LIN1 = catalog.load("SYS-LIN1")
DIAG = catalog.load("SYS-DIAG")
BILIN = catalog.load("SYS-BILIN")
PL = catalog.load("SYS-PL")


def var(i, n):
    return NashExpr.variable(i, n)


def mono(c, exps):
    return NashExpr.monomial(c, exps)


def word(sys, *pairs):
    return GeneralizedInput.of(sys.alphabet, *pairs)


def sampler_for(domain_n, center, radius, seed=0):
    return box_sampler(Box.unbounded(domain_n), center, radius,
                       np.random.default_rng(seed))


# ----------------------------------------------------------- obs algebra


def test_obs_algebra_scalar_exponential():
    basis = generate_obs_algebra(LIN1, 2)
    # readout x; both Lie derivatives are scalar multiples, pruned
    assert len(basis.generators) == 1
    assert basis.generators[0].terms == var(0, 1).terms
    assert basis.words[0] == (0, ())


def test_obs_algebra_depth_zero_is_readout():
    basis = generate_obs_algebra(BILIN, 0)
    assert len(basis.generators) == len(BILIN.readout)
    assert basis.depth == 0


def test_obs_algebra_diag_collapses():
    basis = generate_obs_algebra(DIAG, 3)
    assert len(basis.generators) == 1


def test_obs_algebra_bilinear_grows():
    basis = generate_obs_algebra(BILIN, 2)
    assert len(basis.generators) >= 3
    # trails record which letters produced each generator
    for out_idx, trail in basis.words:
        assert out_idx == 0
        assert len(trail) <= 2


def test_obs_algebra_blowup_carries_partial_basis():
    # each Lie step along x + x^2 adds one more term
    f = var(0, 1) + mono(1, (2,))
    sys = NashSystem(Box.unbounded(1), LIN1.alphabet,
                     ((f,), (f.scale(-1),)), (var(0, 1),), (1.0,))
    with pytest.raises(ExpressionBlowup) as err:
        generate_obs_algebra(sys, 30, max_terms=4)
    assert err.value.partial_basis
    assert err.value.partial_basis.generators


# -------------------------------------------------------- estimate_trdeg


def test_trdeg_dependent_pair():
    gens = [var(0, 2), mono(1, (2, 0))]
    rep = estimate_trdeg(gens, sampler_for(2, (1.0, 1.0), 0.5))
    assert rep.estimated_trdeg == 1
    assert rep.method == "exact-rational"
    assert not rep.low_confidence
    assert rep.basis_indices == (0,)


def test_trdeg_independent_pair():
    gens = [var(0, 2), var(1, 2)]
    rep = estimate_trdeg(gens, sampler_for(2, (0.0, 0.0), 1.0))
    assert rep.estimated_trdeg == 2


def test_trdeg_polynomial_dependence():
    # c = a^2 - 2b is algebraically dependent on {a, b}: trdeg 2
    a, b = var(0, 2), var(1, 2)
    c = mono(1, (2, 0)) + b.scale(-2)
    rep = estimate_trdeg([a, b, c], sampler_for(2, (1.0, 1.0), 1.0))
    assert rep.estimated_trdeg == 2
    float_rep = estimate_trdeg([a, b, c], sampler_for(2, (1.0, 1.0), 1.0),
                               mode="float")
    assert float_rep.estimated_trdeg == 2
    assert float_rep.method == "float-svd"
    assert float_rep.gap > 1e6 or float_rep.gap == np.inf


def test_trdeg_exact_path_prefers_early_generators():
    gens = [var(0, 2) + var(1, 2), var(0, 2), var(1, 2)]
    rep = estimate_trdeg(gens, sampler_for(2, (1.0, 2.0), 0.5))
    assert rep.estimated_trdeg == 2
    assert rep.basis_indices == (0, 1)


def test_trdeg_func_generators():
    g1 = FuncGenerator(lambda x: np.array([1.0, 0.0]), "x1")
    g2 = FuncGenerator(lambda x: np.array([2.0 * x[0], 0.0]), "x1sq")
    rep = estimate_trdeg([g1, g2], sampler_for(2, (1.0, 1.0), 0.5))
    assert rep.estimated_trdeg == 1
    assert rep.method == "float-svd"


def test_trdeg_constant_generators_rank_zero():
    gens = [NashExpr.constant(3, 2)]
    rep = estimate_trdeg(gens, sampler_for(2, (0.0, 0.0), 1.0))
    assert rep.estimated_trdeg == 0


def test_trdeg_degenerate_samples():
    flat = FuncGenerator(lambda x: np.zeros(2), "flat", is_constant=False)
    with pytest.raises(DegenerateSamples):
        estimate_trdeg([flat], sampler_for(2, (0.0, 0.0), 1.0))


def test_trdeg_subnoise_tolerance_flags_low_confidence():
    gens = [var(0, 2), var(1, 2)]
    rep = estimate_trdeg(gens, sampler_for(2, (0.0, 0.0), 1.0),
                         rank_tol=1e-18, mode="float")
    assert rep.low_confidence


def test_rank_evidence_zero_matrix():
    ev = _rank_evidence(np.zeros((3, 2)), _CONST_FLOOR, 1e-8, 1e6)
    assert ev.rank == 0
    assert ev.singular_values == ()
    assert ev.pivots == ()
    assert ev.gap == np.inf
    assert not ev.low_confidence


def test_rank_evidence_known_singular_values():
    # the zero row is dropped; the unit rows e1, e2 and (0, 1, s) have
    # singular values sqrt(2), 1 and s / sqrt(2), and the last falls
    # below the tolerance
    s = 1e-10
    mat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                    [0.0, 1.0, s]])
    ev = _rank_evidence(mat, _CONST_FLOOR, 1e-8, 1e6)
    assert ev.singular_values == pytest.approx(
        (np.sqrt(2.0), 1.0, s / np.sqrt(2.0)), rel=1e-6)
    assert ev.rank == 2
    assert ev.gap == pytest.approx(np.sqrt(2.0) / s, rel=1e-6)
    assert not ev.low_confidence
    # pivots index the rows of mat, zero row included
    assert ev.pivots == (1, 2)


def test_rank_evidence_const_floor_drops_every_row():
    mat = np.array([[1e-10, 0.0], [0.0, 2e-10]])
    assert _rank_evidence(mat, 0.0, 1e-8, 1e6).rank == 2
    assert _rank_evidence(mat, _CONST_FLOOR, 1e-8, 1e6).rank == 0


def test_rank_evidence_subnoise_tolerance_is_low_confidence():
    tol = 0.1 * _NOISE_FLOOR_TOL
    ev = _rank_evidence(np.eye(2), _CONST_FLOOR, tol, 1e6)
    assert ev.rank == 2 and ev.gap == np.inf
    assert ev.low_confidence
    assert _rank_evidence(np.zeros((2, 2)), _CONST_FLOOR, tol,
                          1e6).low_confidence


def test_trdeg_report_json():
    rep = estimate_trdeg([var(0, 1)], sampler_for(1, (1.0,), 0.5))
    data = rep.to_json()
    assert data["estimated_trdeg"] == 1
    assert data["method"] == "exact-rational"
    assert "singular_values" in data


# -------------------------------------------------- observability ranks


def test_obs_trdeg_linear_observable_pair():
    """Hand oracle: SYS-LIN2 has c = [1 0], A = [[0,1],[-1/2,-1]], so the
    observability matrix [c; cA] = [[1,0],[0,1]] has rank 2."""
    sys = catalog.load("SYS-LIN2")
    basis = generate_obs_algebra(sys, max(2, sys.n - 1))
    rep = estimate_trdeg(
        basis.generators,
        box_sampler(sys.domain, sys.x0, 0.5, np.random.default_rng(1)))
    assert rep.estimated_trdeg == 2


def test_obs_trdeg_unobserved_coordinate():
    # readout x1 with decoupled fields never sees x2
    sys = catalog.load("SYS-UNOBS")
    basis = generate_obs_algebra(sys, 3)
    rep = estimate_trdeg(
        basis.generators,
        box_sampler(sys.domain, sys.x0, 0.5, np.random.default_rng(1)))
    assert rep.estimated_trdeg == 1


# ----------------------------------------------------------- fit_relation


def test_fit_relation_square():
    rng = np.random.default_rng(2)
    z = rng.uniform(0.5, 2.0, size=100)
    t = z ** 2
    rel = fit_relation(t, z.reshape(-1, 1), degree_bound=4, fit_tol=1e-7,
                       seed=3)
    assert rel is not None
    assert rel.degree_T == 1
    # held-out oracle: the relation must vanish on fresh samples
    fresh = rng.uniform(0.5, 2.0, size=40)
    resid = max(abs(rel.value(v ** 2, np.array([v])))
                / max(1.0, rel.mono_scale(v ** 2, np.array([v])))
                for v in fresh)
    assert resid <= 1e-7


def test_fit_relation_square_root_branch():
    rng = np.random.default_rng(4)
    z = rng.uniform(0.3, 2.5, size=120)
    t = np.sqrt(z)
    rel = fit_relation(t, z.reshape(-1, 1), degree_bound=4, fit_tol=1e-7,
                       seed=5)
    assert rel is not None
    assert rel.degree_T == 2
    # exact rationalization should recover T^2 - z up to scale
    assert rel.exact_coefficients is not None
    fresh = rng.uniform(0.3, 2.5, size=40)
    resid = max(abs(rel.value(np.sqrt(v), np.array([v])))
                / max(1.0, rel.mono_scale(np.sqrt(v), np.array([v])))
                for v in fresh)
    assert resid <= 1e-7


def test_fit_relation_independent_returns_none():
    rng = np.random.default_rng(6)
    z = rng.uniform(0.5, 2.0, size=150)
    t = rng.uniform(0.5, 2.0, size=150)
    assert fit_relation(t, z.reshape(-1, 1), degree_bound=3,
                        fit_tol=1e-7, seed=7) is None


def test_fit_relation_two_variable_basis():
    rng = np.random.default_rng(8)
    Z = rng.uniform(0.5, 2.0, size=(200, 2))
    t = Z[:, 0] * Z[:, 1]
    rel = fit_relation(t, Z, degree_bound=3, fit_tol=1e-7, seed=9)
    assert rel is not None
    fresh = rng.uniform(0.5, 2.0, size=(40, 2))
    resid = max(abs(rel.value(a * b, np.array([a, b])))
                / max(1.0, rel.mono_scale(a * b, np.array([a, b])))
                for a, b in fresh)
    assert resid <= 1e-6


def test_fit_relation_needs_enough_samples():
    z = np.linspace(0.5, 1.5, 5)
    with pytest.raises(ValueError):
        fit_relation(z ** 2, z.reshape(-1, 1), degree_bound=6,
                     fit_tol=1e-7, seed=0)


def test_fit_relation_rejects_nonfinite_columns():
    z = np.linspace(0.5, 1.5, 80)
    t = z.copy()
    t[3] = np.nan
    with pytest.raises(IllConditioned):
        fit_relation(t, z.reshape(-1, 1), degree_bound=2, fit_tol=1e-7,
                     seed=0)


def test_relation_json_round_trip():
    rng = np.random.default_rng(10)
    z = rng.uniform(0.5, 2.0, size=90)
    rel = fit_relation(z ** 2, z.reshape(-1, 1), degree_bound=3,
                       fit_tol=1e-7, seed=1)
    from nash_realize.analysis import PolynomialRelation
    back = PolynomialRelation.from_json(rel.to_json())
    pt = np.array([1.3])
    assert back.value(1.69, pt) == pytest.approx(rel.value(1.69, pt),
                                                 abs=1e-15)
    assert back.exact_coefficients == rel.exact_coefficients


def grad_z_by_terms(rel, T, z):
    """dQ/dz term by term and variable by variable, with the absolute
    sum of each partial derivative's terms."""
    p = np.concatenate([[float(T)], np.asarray(z, dtype=float)])
    d = p.size - 1
    out, scale = np.zeros(d), np.zeros(d)
    for c, e in zip(rel.coefficients, rel.exponents):
        for j in range(d):
            if e[1 + j] == 0:
                continue
            ex = list(e)
            ex[1 + j] -= 1
            term = c * e[1 + j] * float(np.prod(p ** np.asarray(ex)))
            out[j] += term
            scale[j] += abs(term)
    return out, scale


def test_grad_z_matches_term_by_term_derivative():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        d = int(rng.integers(1, 4))
        terms = int(rng.integers(1, 10))
        exps = tuple(tuple(int(v) for v in rng.integers(0, 5, size=d + 1))
                     for _ in range(terms))
        coeffs = tuple(float(c) for c in rng.normal(size=terms))
        rel = PolynomialRelation(exps, coeffs, 8, 4, 0.0)
        pt = rng.choice([-1.0, 1.0], size=d + 1) * rng.uniform(
            0.2, 3.0, size=d + 1)
        pt[rng.uniform(size=d + 1) < 0.1] = 0.0
        got = rel.gradient(pt[0], pt[1:])[1]
        want, scale = grad_z_by_terms(rel, pt[0], pt[1:])
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_grad_z_zero_exponent_is_exact_at_zero():
    # Q = T^2 + 3 z1 z2^2: no z1^-1 or 0 * inf where z1 = 0 or z2 = 0
    rel = PolynomialRelation(((2, 0, 0), (0, 1, 2)), (1.0, 3.0), 3, 2, 0.0)
    assert rel.gradient(0.5, [0.0, 0.0])[1].tolist() == [0.0, 0.0]
    assert rel.gradient(0.5, [0.0, 2.0])[1].tolist() == [12.0, 0.0]
    assert rel.gradient(0.5, [2.0, 0.0])[1].tolist() == [0.0, 0.0]


def test_gradient_dT_equals_newton_terms_dT():
    # ImplicitMap.grad divides by gradient's dQ/dT where solve divided by
    # newton_terms' dT: the two must be the same float
    rng = np.random.default_rng(1)
    for _ in range(5_000):
        d = int(rng.integers(1, 4))
        terms = int(rng.integers(1, 10))
        exps = tuple(tuple(int(v) for v in rng.integers(0, 5, size=d + 1))
                     for _ in range(terms))
        coeffs = tuple(float(c) for c in rng.normal(size=terms))
        rel = PolynomialRelation(exps, coeffs, 8, 4, 0.0)
        pt = rng.choice([-1.0, 1.0], size=d + 1) * rng.uniform(
            0.2, 3.0, size=d + 1)
        pt[rng.uniform(size=d + 1) < 0.1] = 0.0
        assert rel.gradient(pt[0], pt[1:])[0] == rel.dT(pt[0], pt[1:])


def test_monomial_count():
    # binomial(nv + d, d) monomials of total degree <= d
    assert monomial_count(2, 2) == 6
    assert monomial_count(3, 2) == 10


# ----------------------------------------- response / reachable estimates


def test_response_trdeg_catalog_values():
    for name, want in (("SYS-LIN1", 1), ("SYS-DIAG", 1), ("SYS-BILIN", 2)):
        sys = catalog.load(name)
        rep = estimate_response_trdeg(SystemOracle(sys, tol=1e-12),
                                      depth=1, max_letters=sys.n,
                                      count=2, seed=0)
        assert rep.estimated_trdeg == want, name
        assert not rep.low_confidence


def test_response_trdeg_deterministic():
    o = SystemOracle(DIAG, tol=1e-12)
    a = estimate_response_trdeg(o, depth=1, max_letters=2, count=2, seed=3)
    b = estimate_response_trdeg(o, depth=1, max_letters=2, count=2, seed=3)
    assert a.to_json() == b.to_json()


def test_response_trdeg_from_table_oracle():
    o = SystemOracle(LIN1, tol=1e-12)
    kw = dict(depth=1, max_letters=1, count=2, time_budget=1.0)
    table = tabulate_response_plan(o, seed=11, **kw)
    sys_rep = estimate_response_trdeg(o, seed=11, **kw)
    tab_rep = estimate_response_trdeg(table, seed=11, **kw)
    assert tab_rep.estimated_trdeg == sys_rep.estimated_trdeg == 1
    # a table has no field: Richardson differences on stored grids
    assert tab_rep.method == "response-fd"
    assert sys_rep.method == "response-variational"


def test_response_method_follows_the_oracle():
    # shifting a simulated system moves its start state; it keeps a field
    shifted = shift_oracle(SystemOracle(BILIN, tol=1e-12),
                           word(BILIN, ("a0", 0.1), ("a1", 0.05)))
    assert isinstance(shifted, SystemOracle)
    rep = estimate_response_trdeg(shifted, depth=1, max_letters=2, count=1,
                                  seed=0)
    assert rep.method == "response-variational"
    assert rep.estimated_trdeg == 2
    # a shifted view answers word by word and has no field of its own
    view = system_module._ShiftedOracle(SystemOracle(LIN1, tol=1e-12),
                                        word(LIN1, ("a0", 0.1)))
    rep = estimate_response_trdeg(view, depth=1, max_letters=1, count=1,
                                  seed=0)
    assert rep.method == "response-fd"
    assert rep.estimated_trdeg == 1


def richardson_reachable(sys, u, h=1e-3, tol=1e-12):
    """The terminal state's duration Jacobian by 4-point Richardson
    differences: rows coordinates, columns slots."""
    states = np.array([sys.terminal_state(sys.x0, w, tol)
                       for w in _fd_words(u, h)])
    return _richardson(states.reshape(len(u), len(_FD_MULTS), sys.n),
                       h).T


def jacobian_cases():
    reach, obs = hand_charts()
    cases = [(name, catalog.load(name)) for name in catalog.names()]
    return cases + [("reach-chart", reach), ("obs-chart", obs)]


@pytest.mark.parametrize("name,sys", jacobian_cases(),
                         ids=[c[0] for c in jacobian_cases()])
def test_variational_jacobians_match_richardson(name, sys):
    """Per base word, both estimators' exact matrices agree with the
    Richardson matrices of the finite-difference path."""
    oracle = SystemOracle(sys, tol=1e-12)
    base_words, suffixes = response_plan(sys.alphabet, sys.n, 2, 3, 1.0,
                                         np.random.default_rng(0))
    suffix_words = [suf for suf, _name in suffixes]
    compared = 0
    for base in base_words:
        try:
            pairs = [
                (_reachable_jacobian(sys, base, 1e-12),
                 richardson_reachable(sys, base)),
                (_variational_response_matrix(oracle, base, suffix_words,
                                              1e-12)[0],
                 _fd_response_matrix(oracle, base, suffix_words, 1e-3)[0])]
        except DomainExit:
            continue
        for exact, fd in pairs:
            assert exact.shape == fd.shape
            assert np.max(np.abs(exact - fd)) <= 1e-9 * np.max(np.abs(fd))
        compared += 1
    assert compared >= 2, name


def record_solve_ivp(monkeypatch):
    calls = []
    real = system_module.solve_ivp

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(system_module, "solve_ivp", recording)
    return calls


def test_response_base_word_takes_one_flow_per_segment(monkeypatch):
    # SYS-BILIN, k = 2 letters, depth 2: 2 letters x 2 draws suffixes of
    # length 1 and 8 of length 2, so 20 suffix segments
    oracle = SystemOracle(BILIN, tol=1e-12)
    calls = record_solve_ivp(monkeypatch)
    rep = estimate_response_trdeg(oracle, depth=2, max_letters=2, count=1,
                                  seed=0)
    assert len(rep.sample_points) == 1
    assert len(calls) == 2 + 20
    # the same base word by Richardson differences: 4 nodes for each of
    # the k slots make 8 perturbed words, and each is asked once per
    # suffix (13 with the empty one), one flow per word: its 2 base
    # segments each time (8 x 13 x 2), plus the suffix segments (8 x 20)
    base, suffixes = response_plan(BILIN.alphabet, 2, 2, 1, 1.0,
                                   np.random.default_rng(0))
    calls.clear()
    _fd_response_matrix(oracle, base[0], [s for s, _ in suffixes], 1e-3)
    assert len(calls) == 8 * 13 * 2 + 8 * 20


def test_variational_flow_leaving_the_orthant_raises():
    # a1 is x' = -sqrt(x): from x = 1 it reaches x = 0 at t = 2
    ok = word(PL, ("a0", 0.1))
    leaves = word(PL, ("a0", 0.1), ("a1", 3.0))
    empty = GeneralizedInput.empty(PL.alphabet)
    with pytest.raises(DomainExit):
        list(PL.duration_sensitivities(PL.x0, leaves, [empty], 1e-12))
    # a suffix that leaves from the base word's terminal (x, V)
    with pytest.raises(DomainExit):
        list(PL.duration_sensitivities(
            PL.x0, ok, [empty, word(PL, ("a1", 3.0))], 1e-12))


def test_estimators_redraw_base_words_that_leave(monkeypatch):
    # durations in [2, 10]: an a1 base word runs SYS-PL out of its orthant
    raised = []
    for name in ("_reachable_jacobian", "_variational_response_matrix"):
        real = getattr(analysis, name)

        def recording(*args, real=real, name=name):
            try:
                return real(*args)
            except DomainExit:
                raised.append(name)
                raise

        monkeypatch.setattr(analysis, name, recording)
    reach = estimate_reachable_trdeg(PL, max_letters=1, count=3, seed=0,
                                     time_budget=20.0)
    assert "_reachable_jacobian" in raised
    resp = estimate_response_trdeg(SystemOracle(PL, tol=1e-12), depth=1,
                                   max_letters=1, count=3, seed=0,
                                   time_budget=20.0)
    assert "_variational_response_matrix" in raised
    for rep in (reach, resp):
        assert rep.estimated_trdeg == 1
        assert len(rep.sample_points) == 3
        assert all(w[0][0] == "a0" for w in rep.sample_points)


def test_reachable_trdeg_catalog_values():
    for name, want in (("SYS-DIAG", 1), ("SYS-UNOBS", 2), ("SYS-LIN3", 3)):
        sys = catalog.load(name)
        rep = estimate_reachable_trdeg(sys, max_letters=sys.n, count=3,
                                       seed=0)
        assert rep.estimated_trdeg == want, name
        assert rep.method == "reachable-variational"


def test_reachable_trdeg_labels_are_coordinates():
    rep = estimate_reachable_trdeg(DIAG, max_letters=2, count=2, seed=0)
    assert set(rep.labels) <= {"x1", "x2"}


class _LeavesAfterLargeResponses(ResponseOracle):
    """Its first base word answers 1e12 three times, then leaves the
    domain; every later word answers 1e-6 times its total time."""

    def __init__(self, alphabet):
        self.alphabet = alphabet
        self.r = 1
        self.calls = 0

    def respond(self, u):
        self.calls += 1
        if self.calls <= 3:
            return np.array([1e12])
        if self.calls == 4:
            raise DomainExit("the base word left the domain")
        return np.array([1e-6 * u.total_time])


def test_response_scale_ignores_redrawn_base_words():
    # the kept word's duration derivatives are all 1e-6; scaled by the
    # dropped word's 1e12 responses they would count as constant rows
    oracle = _LeavesAfterLargeResponses(LIN1.alphabet)
    rep = estimate_response_trdeg(oracle, depth=1, max_letters=1, count=1,
                                  seed=0)
    assert oracle.calls > 4
    assert len(rep.sample_points) == 1
    assert rep.estimated_trdeg == 1
