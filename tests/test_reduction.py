import json
import math

import numpy as np
import pytest

from nash_realize import catalog
from nash_realize.analysis import PolynomialRelation
from nash_realize.config import RunConfig
from nash_realize.errors import (DerivativeVanished, FitFailure,
                                 NewtonDiverged, NotReachableInput,
                                 NoValidShiftInput)
from nash_realize import system as system_module
from nash_realize.inputs import GeneralizedInput
from nash_realize.reduction import (ImplicitMap, ObsReduced, ReachReduced,
                                    _build_chart, _gate, minimize,
                                    observability_reduce, probe_radius,
                                    reachability_reduce,
                                    realization_from_json,
                                    verify_local_realization)
from nash_realize.system import (Box, NashSystem, SystemOracle,
                                 integrate_segments)


def rel_identity():
    # Q(T, z) = T - z
    return PolynomialRelation(((1, 0), (0, 1)), (1.0, -1.0), 1, 1, 0.0)


def rel_sqrt():
    # Q(T, z) = T^2 - z
    return PolynomialRelation(((2, 0), (0, 1)), (1.0, -1.0), 2, 2, 0.0)


def rel_product():
    # Q(T, z1, z2) = T - z1 z2
    return PolynomialRelation(((1, 0, 0), (0, 1, 1)), (1.0, -1.0), 2, 1, 0.0)


def test_implicit_solve_identity():
    m = ImplicitMap(rel_identity(), [3.0], 3.0)
    assert m.solve([5.0]) == pytest.approx(5.0, abs=1e-11)
    assert m.solve([-2.5]) == pytest.approx(-2.5, abs=1e-11)


def test_implicit_solve_branch_selection():
    pos = ImplicitMap(rel_sqrt(), [4.0], 2.0)
    neg = ImplicitMap(rel_sqrt(), [4.0], -2.0)
    assert pos.solve([9.0]) == pytest.approx(3.0, abs=1e-10)
    assert neg.solve([9.0]) == pytest.approx(-3.0, abs=1e-10)


def test_implicit_solve_two_variables():
    m = ImplicitMap(rel_product(), [1.0, 1.0], 1.0)
    assert m.solve([2.0, 3.0]) == pytest.approx(6.0, abs=1e-10)


def test_implicit_map_polishes_base():
    # an off-root base value gets pinned to the nearby root
    m = ImplicitMap(rel_sqrt(), [4.0], 2.1)
    assert m.base_q == pytest.approx(2.0, abs=1e-10)


def test_implicit_grad():
    m = ImplicitMap(rel_sqrt(), [4.0], 2.0)
    g = m.grad([9.0])
    assert g.shape == (1,)
    assert g[0] == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_implicit_solve_no_real_root():
    m = ImplicitMap(rel_sqrt(), [4.0], 2.0)
    with pytest.raises((NewtonDiverged, DerivativeVanished)):
        m.solve([-1.0])


def reference_newton_terms(rel, T, z):
    """(Q, sum of |c| * |monomial|, dQ/dT) at (T, z) from the powers of
    every variable in every term, summed term by term."""
    p = np.concatenate([[float(T)], np.asarray(z, dtype=float)])
    powers = p ** np.array(rel.exponents, dtype=float)
    monos = powers.prod(axis=1).tolist()
    rests = powers[:, 1:].prod(axis=1).tolist()
    value = d_T = scale = 0.0
    for c, e, m, rest in zip(rel.coefficients, rel.exponents, monos, rests):
        value += c * m
        scale += abs(c) * abs(m)
        if e[0]:
            d_T += c * (e[0] * p[0] ** (e[0] - 1) * rest)
    return value, scale, d_T


def reference_solve(m, z, q0):
    """Newton's method on reference_newton_terms, with solve's tests."""
    q = q0
    for _ in range(m.max_iter):
        val, scale, d = reference_newton_terms(m.relation, q, z)
        if not math.isfinite(val):
            raise NewtonDiverged("nonfinite relation value")
        if abs(val) <= m.newton_tol * max(1.0, scale):
            return q
        if abs(d) < m.derivative_floor:
            raise DerivativeVanished("below floor")
        q = q - val / d
        if not math.isfinite(q):
            raise NewtonDiverged("Newton iterate diverged")
    raise NewtonDiverged("no convergence")


def random_relation(rng):
    """degree_T 1-3 over 1-3 basis variables, z-exponents up to 2, or one
    of the three shapes chart flows solve most: T - z, -T + z^3 among
    seven terms with zero coefficients, T^3 - z among ten."""
    shape = int(rng.integers(0, 6))
    if shape == 0:
        exps, coeffs = ((0, 1), (1, 0)), (-1.0, 1.0)
    elif shape == 1:
        exps = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (0, 3), (1, 2))
        coeffs = (0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0)
    elif shape == 2:
        exps = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3),
                (1, 2), (2, 1), (3, 0))
        coeffs = (0.0, -1.0) + (0.0,) * 7 + (1.0,)
    else:
        deg, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        exps = {(deg,) + tuple(int(v) for v in rng.integers(0, 3, size=d))}
        for _ in range(int(rng.integers(1, 7))):
            exps.add((int(rng.integers(0, deg + 1)),)
                     + tuple(int(v) for v in rng.integers(0, 3, size=d)))
        exps = tuple(sorted(exps))
        coeffs = tuple(float(c) for c in rng.normal(size=len(exps)))
    if shape < 3:
        coeffs = tuple(c * rng.uniform(0.5, 2.0) for c in coeffs)
    degree_T = max(e[0] for e in exps)
    return PolynomialRelation(exps, coeffs, max(map(sum, exps)), degree_T,
                              0.0)


def test_solve_matches_reference_newton():
    rng = np.random.default_rng(3)
    converged = raised = 0
    for _ in range(6_000):
        rel = random_relation(rng)
        d = len(rel.exponents[0]) - 1
        z = rng.choice([-1.0, 1.0], size=d) * rng.uniform(0.3, 2.0, size=d)
        m = ImplicitMap(rel, z, 0.0, polish=False)
        # start near a real root of Q(., z) where there is one
        roots = np.roots([sum(c * np.prod(z ** np.array(e[1:]))
                              for c, e in zip(rel.coefficients,
                                              rel.exponents) if e[0] == p)
                          for p in range(rel.degree_T, -1, -1)])
        real = roots[np.abs(roots.imag) < 1e-9].real
        q0 = float(real[0] + rng.normal(scale=0.1)) if real.size \
            and rng.uniform() < 0.8 else float(rng.normal())
        try:
            want = reference_solve(m, z, q0)
        except (NewtonDiverged, DerivativeVanished) as exc:
            with pytest.raises((NewtonDiverged, DerivativeVanished)) as got:
                m.solve(z, q0=q0)
            assert got.type is type(exc)
            raised += 1
            continue
        got = m.solve(z, q0=q0)
        val, scale, _ = reference_newton_terms(rel, got, z)
        assert abs(val) <= m.newton_tol * max(1.0, scale)
        # relative where |T| > 1; near a root at 0 both may stop at
        # different iterates within tolerance
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        converged += 1
    assert converged > 3_000 and raised > 300


def test_solve_raises_derivative_vanished():
    # Q = T^2 - z from T = 0: dQ/dT = 0 with Q = -1
    m = ImplicitMap(rel_sqrt(), [1.0], 1.0, polish=False)
    with pytest.raises(DerivativeVanished):
        m.solve([1.0], q0=0.0)


def test_solve_raises_newton_diverged():
    # Q = T^2 + 1 has no real root: Newton's iterates wander for max_iter
    # steps without |dQ/dT| reaching the floor at any of them
    m = ImplicitMap(rel_sqrt(), [-1.0], 0.5, polish=False, max_iter=20)
    with pytest.raises(NewtonDiverged):
        m.solve([-1.0], q0=0.5)


def chart_samples(S, *columns):
    """Chart targets over one basis coordinate z in [0.5, 2]: one per
    function of z given."""
    z = np.random.default_rng(1).uniform(0.5, 2.0, size=S)
    return [(f(z), z[:, None], f"target {k}", {"target": k})
            for k, f in enumerate(columns)]


def test_build_chart_maps_follow_target_order():
    lin1 = catalog.load("SYS-LIN1")
    opts = RunConfig(degree_bound=2)

    def at_shift(u):
        z = np.array([1.0 + u.total_time])
        return z, [(2.0 * z[0], z), (np.sqrt(z[0]), z)]

    shift, zbar, maps, radius = _build_chart(
        lin1, 1, lambda S: chart_samples(S, lambda z: 2.0 * z, np.sqrt),
        at_shift, 0.1, opts, np.random.default_rng(0))
    assert 0.0 < shift.total_time < 0.1
    assert zbar[0] == pytest.approx(1.0 + shift.total_time)
    assert maps[0].solve([3.0]) == pytest.approx(6.0, abs=1e-9)
    assert maps[1].solve([3.0]) == pytest.approx(math.sqrt(3.0), abs=1e-9)
    # the square root's branch ends at z = 0, the line's nowhere
    assert radius == maps[1].validity_radius < maps[0].validity_radius


def test_build_chart_reports_target_without_relation():
    lin1 = catalog.load("SYS-LIN1")
    noise = np.random.default_rng(2).uniform

    with pytest.raises(FitFailure) as info:
        _build_chart(lin1, 1,
                     lambda S: chart_samples(S, np.sqrt,
                                             lambda z: noise(size=z.size)),
                     None, 0.1, RunConfig(degree_bound=2),
                     np.random.default_rng(0))
    assert str(info.value) == "target 1"
    assert info.value.report == {"target": 1}


def test_build_chart_reports_relation_whose_derivative_vanishes():
    # T = sqrt(z) fits T^2 - z = 0, whose dQ/dT = 2T is zero wherever the
    # shift lands on T = 0
    lin1 = catalog.load("SYS-LIN1")
    calls = []

    def at_shift(u):
        calls.append(u)
        return None, [(0.0, np.array([0.0]))]

    with pytest.raises(NoValidShiftInput) as info:
        _build_chart(lin1, 1, lambda S: chart_samples(S, np.sqrt), at_shift,
                     0.1, RunConfig(degree_bound=2),
                     np.random.default_rng(0))
    assert len(calls) == 10
    rel = PolynomialRelation.from_json(info.value.relation)
    assert rel.degree_T == 2
    assert rel.dT(0.0, [0.0]) == 0.0
    assert rel.value(math.sqrt(1.5), [1.5]) == pytest.approx(0.0, abs=1e-9)


def test_probe_radius():
    m = ImplicitMap(rel_sqrt(), [4.0], 2.0)
    r = probe_radius(m, np.random.default_rng(0))
    # the branch dies at z = 0, four units from the base
    assert 1.0 <= r <= 10.0
    assert m.validity_radius == r

    safe = ImplicitMap(rel_identity(), [4.0], 4.0)
    assert probe_radius(safe, np.random.default_rng(0)) >= 100.0


def test_implicit_map_json_round_trip():
    m = ImplicitMap(rel_sqrt(), [4.0], -2.0)
    probe_radius(m, np.random.default_rng(1))
    m2 = ImplicitMap.from_json(json.loads(json.dumps(m.to_json())))
    assert m2.base_q == m.base_q
    assert m2.validity_radius == m.validity_radius
    for z in (1.0, 4.0, 7.5):
        assert m2.solve([z]) == pytest.approx(m.solve([z]), abs=1e-12)
    assert m2.grad([4.0])[0] == pytest.approx(m.grad([4.0])[0], abs=1e-12)


# ------------------------------------------------- reachability reduction


def test_reach_reduce_collapses_diagonal():
    sys = catalog.build("SYS-DIAG")
    eps = 0.01
    red = reachability_reduce(sys, SystemOracle(sys), eps, RunConfig(),
                              np.random.default_rng(0))
    assert red.dimension == 1
    assert red.provenance == "REACH_REDUCED"
    durs = red.shift_input.durations()
    assert all(t > 0 for t in durs)
    assert 0.0 < red.shift_input.total_time < eps
    rep = verify_local_realization(red, SystemOracle(sys), trials=40, seed=1)
    assert rep.passed
    assert rep.max_deviation <= 1e-9


def test_reach_reduce_smaller_epsilon():
    sys = catalog.build("SYS-DIAG")
    red = reachability_reduce(sys, SystemOracle(sys), 0.001, RunConfig(),
                              np.random.default_rng(2))
    assert red.shift_input.total_time < 0.001


def test_reach_reduce_already_reachable():
    sys = catalog.build("SYS-LIN1")
    red = reachability_reduce(sys, SystemOracle(sys), 0.05, RunConfig(),
                              np.random.default_rng(2))
    assert red.dimension == 1
    assert red.basis_idx == (0,)
    assert red.maps == {}


def test_reach_reduce_three_state():
    sys = catalog.build("SYS-RED3")
    red = reachability_reduce(sys, SystemOracle(sys), 0.05, RunConfig(),
                              np.random.default_rng(3))
    assert red.dimension == 1
    assert len(red.maps) == 2
    rep = verify_local_realization(red, SystemOracle(sys), trials=30, seed=4)
    assert rep.passed


def test_reach_reduce_rejects_bad_epsilon():
    sys = catalog.build("SYS-LIN1")
    with pytest.raises(ValueError):
        reachability_reduce(sys, SystemOracle(sys), 0.0)


def test_reach_reduce_json_round_trip():
    sys = catalog.build("SYS-DIAG")
    red = reachability_reduce(sys, SystemOracle(sys), 0.01, RunConfig(),
                              np.random.default_rng(0))
    data = json.loads(json.dumps(red.to_json()))
    back = realization_from_json(data, sys)
    assert isinstance(back, ReachReduced)
    assert back.basis_idx == red.basis_idx
    w = GeneralizedInput.of(sys.alphabet, ("a0", 0.17), ("a1", 0.08))
    assert np.max(np.abs(back.respond(w) - red.respond(w))) <= 1e-12


# ------------------------------------------------ observability reduction


def test_obs_reduce_collapses_unobservable_pair():
    sys = catalog.build("SYS-UNOBS")
    red = observability_reduce(sys, SystemOracle(sys), 0.05, RunConfig(),
                               np.random.default_rng(7))
    assert red.dimension == 1
    assert red.provenance == "OBS_REDUCED"
    rep = verify_local_realization(red, SystemOracle(sys), trials=40, seed=8)
    assert rep.passed


def test_obs_reduce_identity_on_observable():
    sys = catalog.build("SYS-LIN1")
    red = observability_reduce(sys, SystemOracle(sys), 0.05, RunConfig(),
                               np.random.default_rng(9))
    assert red.dimension == 1
    rep = verify_local_realization(red, SystemOracle(sys), trials=30, seed=10)
    assert rep.passed


def test_obs_reduce_square_root_chart():
    # the readout generator is a square root of the state, so the fitted
    # dynamics relations need a quadratic branch
    sys = catalog.build("SYS-PL")
    red = observability_reduce(sys, SystemOracle(sys), 0.05, RunConfig(),
                               np.random.default_rng(5))
    assert red.dimension == 1
    assert any(m.relation.degree_T == 2 for row in red.maps_f for m in row)
    rep = verify_local_realization(red, SystemOracle(sys), trials=30, seed=6)
    assert rep.passed


def test_obs_reduce_requires_reachable_input():
    sys = catalog.build("SYS-DIAG")
    with pytest.raises(NotReachableInput):
        observability_reduce(sys, SystemOracle(sys), 0.05, RunConfig(),
                             np.random.default_rng(4))


def test_obs_reduce_rejects_bad_epsilon():
    sys = catalog.build("SYS-LIN1")
    with pytest.raises(ValueError):
        observability_reduce(sys, SystemOracle(sys), -1.0)


# ---------------------------------------------------------------- minimize


def test_minimize_two_stage():
    sys = catalog.build("SYS-RED3")
    eps = 0.05
    red = minimize(sys, SystemOracle(sys), eps, RunConfig(),
                   np.random.default_rng(11))
    assert red.dimension == 1
    assert red.provenance == "MINIMIZED"
    assert [s.provenance for s in red.stages] == ["REACH_REDUCED",
                                                  "OBS_REDUCED"]
    assert red.shift_input.total_time < eps
    rep = verify_local_realization(red, SystemOracle(sys), trials=40, seed=12)
    assert rep.passed


def test_minimize_json_round_trip():
    sys = catalog.build("SYS-RED3")
    red = minimize(sys, SystemOracle(sys), 0.05, RunConfig(),
                   np.random.default_rng(11))
    data = json.loads(json.dumps(red.to_json()))
    back = realization_from_json(data, sys)
    assert isinstance(back, ObsReduced)
    assert back.provenance == "MINIMIZED"
    assert len(back.stages) == 2
    w = GeneralizedInput.of(sys.alphabet, ("a0", 0.12), ("a1", 0.2))
    assert np.max(np.abs(back.respond(w) - red.respond(w))) <= 1e-12


# ------------------------------------------------------------ verification


def perturbed_lin1():
    sys = catalog.build("SYS-LIN1")
    data = sys.to_json()
    data["readout"][0].append({"coeff": "1/10", "exps": ["0"]})
    return NashSystem.from_json(data)


def test_verify_detects_readout_corruption():
    sys = catalog.build("SYS-LIN1")
    red = reachability_reduce(sys, SystemOracle(sys), 0.05, RunConfig(),
                              np.random.default_rng(2))
    rep = verify_local_realization(red, SystemOracle(perturbed_lin1()),
                                   trials=20, seed=3)
    assert not rep.passed
    assert rep.failures
    assert rep.max_deviation >= 0.05
    data = rep.to_json()
    assert data["passed"] is False
    assert data["failures"][0]["deviation"] >= 0.05


def test_gate_raises_on_mismatch():
    sys = catalog.build("SYS-LIN1")
    red = reachability_reduce(sys, SystemOracle(sys), 0.05, RunConfig(),
                              np.random.default_rng(2))
    with pytest.raises(FitFailure) as err:
        _gate(red, SystemOracle(perturbed_lin1()), RunConfig(),
              np.random.default_rng(0))
    assert err.value.report["passed"] is False


# ------------------------------------------------------------ chart flows


def chart_words(alphabet):
    """Finite-difference-shaped words: a base word with each slot moved
    both ways, alone and followed by suffixes."""
    base = [("a0", 0.3), ("a1", 0.2)]
    words = []
    for suffix in ([], [("a1", 0.05)], [("a0", 0.04), ("a1", 0.03)]):
        for slot in range(len(base)):
            for delta in (-1e-3, 1e-3):
                pairs = list(base)
                pairs[slot] = (pairs[slot][0], pairs[slot][1] + delta)
                words.append(GeneralizedInput.of(alphabet, *pairs, *suffix))
    return words


def hand_charts(newton_tol=1e-12):
    """A ReachReduced chart over SYS-BILIN with x2 = sqrt(x1), and an
    ObsReduced chart z' = +-sqrt(z); both take several Newton steps per
    solve. Each solve stops at newton_tol: at a loose one its result
    depends on its warm start."""
    bilin = catalog.load("SYS-BILIN")
    sqrt_map = ImplicitMap(rel_sqrt(), [1.0], 1.0, newton_tol=newton_tol)
    reach = ReachReduced(bilin, (0,), {1: sqrt_map}, [1.0],
                         GeneralizedInput.empty(bilin.alphabet), math.inf)
    lin1 = catalog.load("SYS-LIN1")
    obs = ObsReduced(lin1.alphabet, 1,
                     [[ImplicitMap(rel_sqrt(), [1.0], 1.0,
                                   newton_tol=newton_tol)],
                      [ImplicitMap(rel_sqrt(), [1.0], -1.0,
                                   newton_tol=newton_tol)]],
                     [ImplicitMap(rel_identity(), [1.0], 1.0)], [1.0],
                     GeneralizedInput.empty(lin1.alphabet), math.inf)
    return reach, obs


def test_chart_terminal_states_match_per_word_flows():
    """Each chart flow starts from fresh warm starts: called in
    interleaved order, terminal_state gives the states of integrate_segments
    on a fresh session, bit for bit. At Newton tolerance 1e-6 a solve's
    result depends on where it starts, so a warm start leaking from one
    flow into the next would show."""
    for red in (*hand_charts(), *hand_charts(newton_tol=1e-6)):
        words = chart_words(red.alphabet)
        box = Box.unbounded(red.dimension)
        want = [integrate_segments(red._session({})[0], box, red.x0,
                                   w.word, 1e-10).terminal
                for w in words]
        order = list(range(0, len(words), 2)) + list(range(1, len(words), 2))
        got = {i: red.terminal_state(red.x0, words[i], 1e-10)
               for i in order}
        assert [got[i].tobytes() for i in range(len(words))] == \
            [w.tobytes() for w in want]


def test_flows_build_no_dense_output(monkeypatch):
    """Every flow path integrates without an interpolant; a box on R^n,
    which every chart is, passes no event."""
    calls = []
    real = system_module.solve_ivp

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(system_module, "solve_ivp", recording)
    pl, bilin = catalog.load("SYS-PL"), catalog.load("SYS-BILIN")
    for sys_ in (pl, bilin):
        words = chart_words(sys_.alphabet)
        calls.clear()
        system_module.flow(sys_, sys_.x0, words[0], 1e-10)
        oracle = SystemOracle(sys_, tol=1e-10)
        for w in words:
            sys_.terminal_state(sys_.x0, w, 1e-10)
            oracle.respond(w)
        list(sys_.duration_sensitivities(sys_.x0, words[0], words[1:3],
                                         1e-10))
        assert calls
        assert all(not kw.get("dense_output", False) for kw in calls)
        assert all(kw["events"] is sys_.domain.exit_event for kw in calls)
    assert pl.domain.exit_event is not None
    assert bilin.domain.exit_event is None
    for red in hand_charts():
        calls.clear()
        words = chart_words(red.alphabet)
        for w in words:
            red.terminal_state(red.x0, w, 1e-10)
        list(red.duration_sensitivities(red.x0, words[0], words[1:3], 1e-10))
        assert calls
        assert all(not kw.get("dense_output", False) for kw in calls)
        assert all(kw["events"] is None for kw in calls)
