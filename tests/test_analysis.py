"""Observation algebras, transcendence degree estimation, relation fitting."""

from fractions import Fraction

import numpy as np
import pytest

from nash_realize import catalog
from nash_realize.analysis import (FuncGenerator, box_sampler,
                                   estimate_reachable_trdeg,
                                   estimate_response_trdeg, estimate_trdeg,
                                   fit_relation, generate_obs_algebra,
                                   monomial_count, tabulate_response_plan)
from nash_realize.errors import (DegenerateSamples, DomainExit,
                                 ExpressionBlowup, IllConditioned)
from nash_realize.expr import ALL_REAL, NashExpr
from nash_realize.system import Box, NashSystem, ResponseOracle, SystemOracle

LIN1 = catalog.load("SYS-LIN1")
DIAG = catalog.load("SYS-DIAG")
BILIN = catalog.load("SYS-BILIN")


def var(i, n):
    return NashExpr.variable(i, n)


def mono(c, exps):
    return NashExpr.monomial(c, exps)


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
    g1 = FuncGenerator(lambda x: float(x[0]),
                       lambda x: np.array([1.0, 0.0]), "x1")
    g2 = FuncGenerator(lambda x: float(x[0] ** 2),
                       lambda x: np.array([2.0 * x[0], 0.0]), "x1sq")
    rep = estimate_trdeg([g1, g2], sampler_for(2, (1.0, 1.0), 0.5))
    assert rep.estimated_trdeg == 1
    assert rep.method == "float-svd"


def test_trdeg_constant_generators_rank_zero():
    gens = [NashExpr.constant(3, 2)]
    rep = estimate_trdeg(gens, sampler_for(2, (0.0, 0.0), 1.0))
    assert rep.estimated_trdeg == 0


def test_trdeg_degenerate_samples():
    flat = FuncGenerator(lambda x: 1.0, lambda x: np.zeros(2), "flat",
                         is_constant=False)
    with pytest.raises(DegenerateSamples):
        estimate_trdeg([flat], sampler_for(2, (0.0, 0.0), 1.0))


def test_trdeg_subnoise_tolerance_flags_low_confidence():
    gens = [var(0, 2), var(1, 2)]
    rep = estimate_trdeg(gens, sampler_for(2, (0.0, 0.0), 1.0),
                         rank_tol=1e-18, mode="float")
    assert rep.low_confidence


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


def test_reachable_trdeg_catalog_values():
    for name, want in (("SYS-DIAG", 1), ("SYS-UNOBS", 2), ("SYS-LIN3", 3)):
        sys = catalog.load(name)
        rep = estimate_reachable_trdeg(sys, max_letters=sys.n, count=3,
                                       seed=0)
        assert rep.estimated_trdeg == want, name
        assert rep.method == "reachable-fd"


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
