"""Flows, response oracles, table oracles, and the bundled systems."""

import json
import math
import warnings
from importlib import resources

import numpy as np
import pytest
import scipy.linalg

from nash_realize import catalog
from nash_realize.errors import (AlphabetMismatch, BlowUp, DomainExit,
                                 OffGrid)
from nash_realize.expr import NashExpr
from nash_realize.inputs import GeneralizedInput, concat, reverse, \
    sample_inputs
from nash_realize.system import (Box, NashSystem, SystemOracle, TableOracle,
                                 flow, sample_flow, shift_oracle)

LIN1 = catalog.load("SYS-LIN1")
DIAG = catalog.load("SYS-DIAG")
PL = catalog.load("SYS-PL")
BILIN = catalog.load("SYS-BILIN")

TOL = 1e-10


def word(sys, *pairs):
    return GeneralizedInput.of(sys.alphabet, *pairs)


def test_scalar_exponential_closed_form():
    u = word(LIN1, ("a0", math.log(2.0)))
    out = SystemOracle(LIN1, tol=TOL).respond(u)
    assert out[0] == pytest.approx(2.0, abs=1e-8)


def test_empty_word_is_identity():
    u = GeneralizedInput.empty(LIN1.alphabet)
    traj = flow(LIN1, LIN1.x0, u, TOL)
    assert traj.terminal == pytest.approx(np.asarray(LIN1.x0))


def test_diag_closed_form():
    # both coordinates satisfy the same scalar equation
    u = word(DIAG, ("a0", 0.3), ("a1", 0.1))
    x = DIAG.terminal_state(DIAG.x0, u, TOL)
    want = math.exp(0.2)
    assert x == pytest.approx(np.array([want, want]), abs=1e-9)


def test_bilinear_matrix_exponential_oracle():
    # single-letter flow equals expm((a*A1 + A2) t) @ x0
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    A2 = np.array([[0.3, -0.2], [0.1, 0.2]])
    x0 = np.array([1.0, 0.5])
    for a, letter in ((1.0, "a0"), (-1.0, "a1")):
        for t in (0.2, 0.7):
            want = scipy.linalg.expm((a * A1 + A2) * t) @ x0
            got = BILIN.terminal_state(BILIN.x0, word(BILIN, (letter, t)),
                                       TOL)
            assert got == pytest.approx(want, abs=1e-8)


def test_word_then_reverse_returns_home():
    u = word(DIAG, ("a0", 0.4), ("a1", 0.15))
    back = DIAG.terminal_state(DIAG.x0, concat(u, reverse(u)), TOL)
    assert np.max(np.abs(back - np.asarray(DIAG.x0))) <= 1e-7


def test_semigroup_property():
    u = word(BILIN, ("a0", 0.3))
    v = word(BILIN, ("a1", 0.2), ("a0", 0.1))
    joint = BILIN.terminal_state(BILIN.x0, concat(u, v), TOL)
    mid = BILIN.terminal_state(BILIN.x0, u, TOL)
    two_step = BILIN.terminal_state(mid, v, TOL)
    assert np.max(np.abs(joint - two_step)) <= 2e-10


def test_zero_duration_and_splitting():
    o = SystemOracle(BILIN, tol=TOL)
    u = word(BILIN, ("a0", 0.3), ("a1", 0.2))
    with_zero = word(BILIN, ("a0", 0.3), ("a0", 0.0), ("a1", 0.2))
    split = word(BILIN, ("a0", 0.15), ("a0", 0.15), ("a1", 0.2))
    base = o.respond(u)
    assert o.respond(with_zero) == pytest.approx(base, abs=1e-9)
    assert o.respond(split) == pytest.approx(base, abs=1e-9)


def test_negative_duration_is_backward_flow():
    u = word(LIN1, ("a0", -0.5))
    x = LIN1.terminal_state(LIN1.x0, u, TOL)
    assert x[0] == pytest.approx(math.exp(-0.5), abs=1e-9)


def test_domain_exit_on_boundary():
    # sqrt field reaches x = 0 in finite time under the decay letter
    u = word(PL, ("a1", 9.0))
    with pytest.raises(DomainExit):
        flow(PL, PL.x0, u, TOL)


def test_domain_exit_initial_state():
    with pytest.raises(DomainExit):
        flow(PL, (-1.0,), word(PL, ("a0", 0.1)), TOL)


def test_blowup_detected():
    alpha = LIN1.alphabet
    sq = NashExpr.monomial(1, (2,))
    sys = NashSystem(Box.unbounded(1), alpha,
                     ((sq,), (sq.scale(-1),)),
                     (NashExpr.variable(0, 1),), (1.0,))
    with pytest.raises(BlowUp):
        flow(sys, sys.x0, word(sys, ("a0", 2.0)), TOL)


@pytest.mark.parametrize("upper, raised", [
    (math.inf, BlowUp), (1e300, DomainExit)])
@pytest.mark.parametrize("pairs", [
    (("a0", 1.0),), (("a0", 0.5), ("a0", 1.0)), (("a1", -1.0),)])
def test_overflowing_flow_warns_nothing(upper, raised, pairs):
    # x' = (800 x1, x2 + 1) overflows within t = 1: on R^2 the integrator
    # fails (BlowUp), under a face at x1 = 1e300 the exit event stops it
    # first (DomainExit); neither the plain nor the variational flow
    # emits a RuntimeWarning on the way
    x1, x2 = NashExpr.variable(0, 2), NashExpr.variable(1, 2)
    one = NashExpr.constant(1, 2)
    box = Box((-math.inf, -math.inf), (upper, math.inf), (False, False))
    sys = NashSystem(box, LIN1.alphabet,
                     ((x1.scale(800), x2 + one), (x1.scale(-800), -x2 - one)),
                     (x1 + x2,), (1.0, 1.0))
    u = word(sys, *pairs)
    empty = GeneralizedInput.empty(sys.alphabet)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(raised):
            flow(sys, sys.x0, u, TOL)
        with pytest.raises(raised):
            list(sys.duration_sensitivities(sys.x0, u, [empty], TOL))
    assert not caught, [str(w.message) for w in caught]


def test_alphabet_mismatch():
    from nash_realize.inputs import InputAlphabet
    other = InputAlphabet(("b0",), ((2.0,),))
    u = GeneralizedInput.of(other, ("b0", 0.1))
    with pytest.raises(AlphabetMismatch):
        flow(LIN1, LIN1.x0, u, TOL)


def test_state_to_output():
    # a Nash function of the state, read at the end of the trajectory
    g = LIN1.readout[0]
    traj = flow(LIN1, LIN1.x0, word(LIN1, ("a0", math.log(2.0))), TOL)
    assert g.eval_point(traj.terminal) == pytest.approx(2.0, abs=1e-8)


def test_trajectory_structure_and_sampling():
    u = word(DIAG, ("a0", 0.25), ("a1", 0.5), ("a0", 0.0))
    traj = flow(DIAG, DIAG.x0, u, TOL)
    assert traj.breakpoints == pytest.approx((0.0, 0.25, 0.75, 0.75))
    assert len(traj.states) == 4
    samples = sample_flow(DIAG, traj, u, TOL, per_segment=8)
    # the start, 8 points per segment, the zero-duration segment's end
    assert len(samples) == 18
    ts = [t for t, _ in samples]
    assert ts[0] == 0.0 and ts[8] == 0.25 and ts[-1] == pytest.approx(0.75)
    assert samples[-1][1] == pytest.approx(traj.terminal)
    # each sample is the state of the word cut off at its time
    for k in (3, 8, 11, 16):
        t, x = samples[k]
        cut = word(DIAG, ("a0", min(t, 0.25)), ("a1", max(t - 0.25, 0.0)))
        assert x == pytest.approx(flow(DIAG, DIAG.x0, cut, TOL).terminal,
                                  abs=1e-8)


def test_shift_oracle_identity():
    o = SystemOracle(BILIN, tol=TOL)
    u = word(BILIN, ("a0", 0.2))
    v = word(BILIN, ("a1", 0.3))
    sh = shift_oracle(o, u)
    assert sh.respond(v) == pytest.approx(o.respond(concat(u, v)), abs=1e-9)
    empty = GeneralizedInput.empty(BILIN.alphabet)
    assert shift_oracle(o, empty).respond(v) == pytest.approx(o.respond(v),
                                                              abs=1e-12)
    terminal = flow(BILIN, BILIN.x0, u, TOL).terminal
    assert o.respond(u) == pytest.approx(BILIN.readout_values(terminal))


def test_double_shift_composes():
    o = SystemOracle(DIAG, tol=TOL)
    u1 = word(DIAG, ("a0", 0.2))
    u2 = word(DIAG, ("a1", 0.1))
    v = word(DIAG, ("a0", 0.05))
    twice = shift_oracle(shift_oracle(o, u1), u2)
    assert twice.respond(v) == pytest.approx(
        o.respond(concat(concat(u1, u2), v)), abs=1e-9)


def test_table_oracle_nodes_and_interpolation():
    o = SystemOracle(LIN1, tol=TOL)
    axis = [0.1, 0.2, 0.3]
    table = TableOracle.tabulate(o, [(("a0",), [axis])])
    for t in axis:
        got = table.respond(word(LIN1, ("a0", t)))
        assert got == pytest.approx(o.respond(word(LIN1, ("a0", t))),
                                    abs=1e-12)
    # between nodes: linear interpolation, not the true exponential
    mid = table.respond(word(LIN1, ("a0", 0.15)))[0]
    lin = 0.5 * (math.exp(0.1) + math.exp(0.2))
    assert mid == pytest.approx(lin, abs=1e-12)
    assert mid != pytest.approx(math.exp(0.15), abs=1e-6)


def test_table_oracle_off_grid():
    o = SystemOracle(LIN1, tol=TOL)
    table = TableOracle.tabulate(o, [(("a0",), [[0.1, 0.2]])])
    with pytest.raises(OffGrid):
        table.respond(word(LIN1, ("a1", 0.1)))
    with pytest.raises(OffGrid):
        table.respond(word(LIN1, ("a0", 0.5)))
    with pytest.raises(OffGrid):
        table.respond(word(LIN1, ("a0", 0.1), ("a0", 0.1)))


def test_system_json_round_trip():
    for name in ("SYS-PL", "SYS-BILIN", "SYS-LIN3"):
        sys = catalog.load(name)
        back = NashSystem.from_json(sys.to_json())
        assert back.to_json() == sys.to_json()
        assert back.alphabet == sys.alphabet
        assert back.x0 == sys.x0


def test_catalog_builders_match_shipped_data():
    for name in catalog.names():
        built = catalog.build(name).to_json()
        ref = resources.files("nash_realize").joinpath(
            "catalog_data", f"{name}.json")
        with ref.open("r", encoding="utf-8") as fh:
            shipped = json.load(fh)
        assert built == shipped, name


def test_catalog_domains():
    assert PL.domain.all_positive
    assert catalog.load("SYS-CUBE").domain.all_positive
    assert not DIAG.domain.all_positive


def test_oracle_x0_override():
    o = SystemOracle(LIN1, x0=(2.0,), tol=TOL)
    u = word(LIN1, ("a0", math.log(2.0)))
    assert o.respond(u)[0] == pytest.approx(4.0, abs=1e-8)


def test_random_words_stay_deterministic():
    ws = sample_inputs(DIAG.alphabet, 3, 1.0, 5, seed=42)
    o = SystemOracle(DIAG, tol=TOL)
    a = [tuple(o.respond(u)) for u in ws]
    b = [tuple(o.respond(u)) for u in ws]
    assert a == b


def test_box_contains_rejects_nan_and_inf():
    inside = np.array([0.5, 0.5])
    for box in (Box.unbounded(2), Box.unbounded(2, positive=True)):
        assert box.contains(inside)
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(2):
                x = inside.copy()
                x[i] = bad
                assert not box.contains(x), (box, x)
    assert not Box.unbounded(2, positive=True).contains(np.array([0.5, 0.0]))


def contains_loop(box, x):
    """Box membership coordinate by coordinate, as the definition reads."""
    return all(lo < xi < hi and (not pos or xi > 0)
               for xi, lo, hi, pos in zip(x, box.lower, box.upper,
                                          box.positive))


def test_box_contains_and_exit_event_agree_with_faces():
    boxes = [Box.unbounded(3), Box.unbounded(3, positive=True),
             Box((-1.0, -math.inf, 0.5), (2.0, 0.25, math.inf),
                 (True, False, True)),
             Box((-math.inf, -3.0, -math.inf), (math.inf, math.inf, 1.0),
                 (False, True, False))]
    rng = np.random.default_rng(3)
    points = [rng.uniform(-4.0, 4.0, size=3) for _ in range(400)]
    points += [np.array([0.0, 0.25, 0.5]), np.array([-1.0, -3.0, 1.0]),
               np.array([2.0, 0.0, 0.0])]
    for box in boxes:
        event = box.exit_event
        for x in points:
            want = contains_loop(box, x)
            assert box.contains(x) == want, (box, x)
            if event is not None:
                assert (event(0.0, x) > 0) == want, (box, x)
    assert boxes[0].exit_event is None
    assert boxes[1].exit_event is boxes[1].exit_event
    assert boxes[2].exit_event.terminal is True
    assert boxes[2].exit_event.direction == -1
    # the margin is the distance to the nearest face, x1 > 0 folded in
    assert boxes[2].exit_event(0.0, np.array([0.1, 0.0, 3.0])) == \
        pytest.approx(0.1)


def rotation_system():
    """x' = (x2, -x1) under a0 and its reverse under a1, on x1 < 0.99,
    from (0, 1): circles of radius 1 peak at x1 = 1."""
    x1, x2 = NashExpr.variable(0, 2), NashExpr.variable(1, 2)
    box = Box((-math.inf, -math.inf), (0.99, math.inf), (False, False))
    return NashSystem(box, LIN1.alphabet, ((x2, -x1), (-x2, x1)), (x1, x2),
                      (0.0, 1.0))


@pytest.mark.parametrize("pairs", [
    (("a0", 2 * math.pi),), (("a1", -2 * math.pi),), (("a0", math.pi),),
    # backward: a1 reversed turns like a0, through x1 = 1 at t = -pi/2
    (("a1", -math.pi),), (("a0", 0.5), ("a1", -math.pi)),
])
def test_excursion_inside_one_segment_raises(pairs):
    # each trajectory crosses x1 = 0.99 and comes back within one segment
    rot = rotation_system()
    u = word(rot, *pairs)
    with pytest.raises(DomainExit):
        flow(rot, rot.x0, u, TOL)
    with pytest.raises(DomainExit):
        rot.terminal_state(rot.x0, u, TOL)
    with pytest.raises(DomainExit):
        SystemOracle(rot, tol=TOL).respond(u)


def test_rotation_inside_the_box_flows():
    rot = rotation_system()
    u = word(rot, ("a0", 1.0))
    want = [math.sin(1.0), math.cos(1.0)]
    assert flow(rot, rot.x0, u, TOL).terminal == pytest.approx(want,
                                                               abs=1e-8)
    assert SystemOracle(rot, tol=TOL).respond(u) == pytest.approx(want,
                                                                  abs=1e-8)


def test_stacked_fields_match_exact_sum_on_catalog(assert_matches_exact_sum):
    rng = np.random.default_rng(0)
    for name in catalog.names():
        sys = catalog.load(name)
        x0 = np.asarray(sys.x0, dtype=float)
        for _ in range(50):
            x = x0 * np.exp(rng.normal(size=sys.n))
            for li, field in enumerate(sys.fields):
                assert_matches_exact_sum(lambda p: sys.rhs(li)(0.0, p),
                                         field, x)
                assert_matches_exact_sum(lambda p: sys.field_values(p, li),
                                         field, x)
            assert_matches_exact_sum(sys.readout_values, sys.readout, x)


def test_tangent_kernels_match_eval_point_on_catalog():
    # matrix-product sums: equal to the per-expression sums up to rounding
    rng = np.random.default_rng(1)
    for name in catalog.names():
        sys = catalog.load(name)
        x0 = np.asarray(sys.x0, dtype=float)
        for _ in range(20):
            x = x0 * np.exp(rng.normal(size=sys.n))
            groups = [(sys._tangent(li), f)
                      for li, f in enumerate(sys.fields)]
            groups.append((sys.readout_and_jacobian, sys.readout))
            for kernel, exprs in groups:
                values, jac = kernel(x)
                want = np.array([e.eval_point(x) for e in exprs])
                want_jac = np.array([[e.diff(j).eval_point(x)
                                      for j in range(sys.n)]
                                     for e in exprs])
                scale = 1e-14 * (1.0 + np.max(np.abs(want_jac)))
                assert np.max(np.abs(values - want)) <= scale, name
                assert jac.shape == want_jac.shape
                assert np.max(np.abs(jac - want_jac)) <= scale, name


def test_shared_prefix_leaving_domain_raises():
    # a1 drives sqrt-decay to x = 0 within 9 time units
    leaves = word(PL, ("a1", 9.0))
    ok = word(PL, ("a0", 0.1))
    oracle = SystemOracle(PL, tol=TOL)
    want = flow(PL, PL.x0, ok, TOL).terminal
    assert PL.terminal_state(PL.x0, ok, TOL).tobytes() == want.tobytes()
    assert oracle.respond(ok).tobytes() == \
        PL.readout_values(want).tobytes()
    # each word that leaves, through a shared prefix or after one that
    # stays inside, raises on its own
    for u in (concat(leaves, word(PL, ("a0", 0.1))),
              concat(leaves, word(PL, ("a0", 0.2))), concat(ok, leaves)):
        with pytest.raises(DomainExit):
            PL.terminal_state(PL.x0, u, TOL)
        with pytest.raises(DomainExit):
            oracle.respond(u)
