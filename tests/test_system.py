"""Flows, response oracles, table oracles, and the bundled systems."""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from nash_realize import catalog
from nash_realize.errors import (AlphabetMismatch, BlowUp, DomainExit,
                                 OffGrid)
from nash_realize.expr import NashExpr
from nash_realize.inputs import GeneralizedInput, concat, reverse, \
    sample_inputs
from nash_realize import system as system_module
from nash_realize.system import (Box, NashSystem, SystemOracle, TableOracle,
                                 flow, respond, shift_oracle,
                                 state_to_output)

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


def test_alphabet_mismatch():
    from nash_realize.inputs import InputAlphabet
    other = InputAlphabet(("b0",), ((2.0,),))
    u = GeneralizedInput.of(other, ("b0", 0.1))
    with pytest.raises(AlphabetMismatch):
        flow(LIN1, LIN1.x0, u, TOL)


def test_state_to_output():
    g = LIN1.readout[0]
    v = state_to_output(LIN1, g, word(LIN1, ("a0", math.log(2.0))), TOL)
    assert v == pytest.approx(2.0, abs=1e-8)


def test_trajectory_structure_and_sampling():
    u = word(DIAG, ("a0", 0.25), ("a1", 0.5))
    traj = flow(DIAG, DIAG.x0, u, TOL)
    assert traj.breakpoints == pytest.approx((0.0, 0.25, 0.75))
    assert len(traj.states) == 3
    samples = traj.sample(per_segment=8)
    assert len(samples) == 17
    ts = [t for t, _ in samples]
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.75)
    assert samples[-1][1] == pytest.approx(traj.terminal)


def test_shift_oracle_identity():
    o = SystemOracle(BILIN, tol=TOL)
    u = word(BILIN, ("a0", 0.2))
    v = word(BILIN, ("a1", 0.3))
    sh = shift_oracle(o, u)
    assert sh.respond(v) == pytest.approx(o.respond(concat(u, v)), abs=1e-9)
    empty = GeneralizedInput.empty(BILIN.alphabet)
    assert shift_oracle(o, empty).respond(v) == pytest.approx(o.respond(v),
                                                              abs=1e-12)
    assert respond(o, u) == pytest.approx(o.respond(u))


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
        with open(catalog.data_path(name), encoding="utf-8") as fh:
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


def test_stacked_fields_match_eval_point_on_catalog():
    rng = np.random.default_rng(0)
    for name in catalog.names():
        sys = catalog.load(name)
        x0 = np.asarray(sys.x0, dtype=float)
        for _ in range(50):
            x = x0 * np.exp(rng.normal(size=sys.n))
            for li, field in enumerate(sys.fields):
                want = np.array([e.eval_point(x) for e in field])
                assert sys.rhs(li)(0.0, x).tobytes() == want.tobytes(), name
                assert sys.field_values(x, li).tobytes() == want.tobytes()
            want = np.array([h.eval_point(x) for h in sys.readout])
            assert sys.readout_values(x).tobytes() == want.tobytes(), name


def shared_prefix_words(sys):
    """Words shaped like the finite-difference words of the estimators:
    one base word, each slot moved both ways, then a few suffixes."""
    base = [("a0", 0.3), ("a1", 0.2), ("a0", 0.1)]
    words = []
    for suffix in ([], [("a1", 0.05)], [("a0", 0.04), ("a1", 0.0)]):
        for slot in range(len(base)):
            for delta in (-1e-3, 1e-3):
                pairs = list(base)
                pairs[slot] = (pairs[slot][0], pairs[slot][1] + delta)
                words.append(word(sys, *pairs, *suffix))
    words.append(word(sys, *base))
    words.append(word(sys, *base[:2]))
    return words


def count_segments(monkeypatch):
    calls = []
    real = system_module.solve_ivp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(system_module, "solve_ivp", counting)
    return calls


def distinct_segments(words):
    """Prefixes ending in a segment of nonzero duration: what a
    prefix-sharing flow integrates, once each."""
    return len({w.word[:i] for w in words for i in range(1, len(w) + 1)
                if w.word[i - 1][1] != 0.0})


def test_terminal_states_match_per_word_flows(monkeypatch):
    words = shared_prefix_words(BILIN)
    want = [flow(BILIN, BILIN.x0, w, TOL).terminal for w in words]
    calls = count_segments(monkeypatch)
    got = list(BILIN.terminal_states(BILIN.x0, words, TOL))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert len(calls) == distinct_segments(words)
    oracle = SystemOracle(BILIN, tol=TOL)
    many = oracle.respond_many(words)
    assert [m.tobytes() for m in many] == \
        [oracle.respond(w).tobytes() for w in words]


def test_shared_prefix_leaving_domain_raises():
    # a1 drives sqrt-decay to x = 0 within 9 time units
    leaves = word(PL, ("a1", 9.0))
    ok = word(PL, ("a0", 0.1))
    words = [ok, concat(leaves, word(PL, ("a0", 0.1))),
             concat(leaves, word(PL, ("a0", 0.2)))]
    states = PL.terminal_states(PL.x0, words, TOL)
    assert next(states) == pytest.approx(flow(PL, PL.x0, ok, TOL).terminal)
    with pytest.raises(DomainExit):
        next(states)
    with pytest.raises(DomainExit):
        list(PL.terminal_states(PL.x0, words[2:], TOL))
    # a suffix that leaves from a cached prefix state raises, too
    with pytest.raises(DomainExit):
        list(PL.terminal_states(PL.x0, [ok, concat(ok, leaves)], TOL))
