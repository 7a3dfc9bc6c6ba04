import json
import math

import numpy as np
import pytest

from nash_realize import catalog
from nash_realize.analysis import PolynomialRelation
from nash_realize.config import RunConfig
from nash_realize.errors import (DerivativeVanished, FitFailure,
                                 NewtonDiverged, NotReachableInput)
from nash_realize.inputs import GeneralizedInput
from nash_realize.reduction import (ImplicitMap, ObsReduced, ReachReduced,
                                    _gate, implicit_solve, minimize,
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
    assert implicit_solve(m, [5.0]) == pytest.approx(5.0, abs=1e-11)
    assert implicit_solve(m, [-2.5]) == pytest.approx(-2.5, abs=1e-11)


def test_implicit_solve_branch_selection():
    pos = ImplicitMap(rel_sqrt(), [4.0], 2.0)
    neg = ImplicitMap(rel_sqrt(), [4.0], -2.0)
    assert pos.solve([9.0]) == pytest.approx(3.0, abs=1e-10)
    assert neg.solve([9.0]) == pytest.approx(-3.0, abs=1e-10)


def test_implicit_solve_two_variables():
    m = ImplicitMap(rel_product(), [1.0, 1.0], 1.0)
    assert implicit_solve(m, [2.0, 3.0]) == pytest.approx(6.0, abs=1e-10)


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


# ------------------------------------------- prefix-sharing chart flows


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


def hand_charts():
    """A ReachReduced chart over SYS-BILIN with x2 = sqrt(x1), and an
    ObsReduced chart z' = +-sqrt(z); both take several Newton steps per
    solve, so their results depend on the warm starts."""
    bilin = catalog.load("SYS-BILIN")
    reach = ReachReduced(bilin, (0,), {1: ImplicitMap(rel_sqrt(), [1.0],
                                                      1.0)},
                         [1.0], GeneralizedInput.empty(bilin.alphabet),
                         math.inf)
    lin1 = catalog.load("SYS-LIN1")
    obs = ObsReduced(lin1.alphabet, 1,
                     [[ImplicitMap(rel_sqrt(), [1.0], 1.0)],
                      [ImplicitMap(rel_sqrt(), [1.0], -1.0)]],
                     [ImplicitMap(rel_identity(), [1.0], 1.0)], [1.0],
                     GeneralizedInput.empty(lin1.alphabet), math.inf)
    return reach, obs


def test_chart_terminal_states_match_per_word_flows():
    for red in hand_charts():
        words = chart_words(red.alphabet)
        box = Box.unbounded(red.dimension)
        want = [integrate_segments(red._rhs_session({}), box.contains,
                                   red.x0, w.word, 1e-10).terminal
                for w in words]
        got = list(red.terminal_states(red.x0, words, 1e-10))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        single = [red.terminal_state(red.x0, w, 1e-10) for w in words]
        assert [g.tobytes() for g in single] == [w.tobytes() for w in want]
