"""Input word algebra: concatenation monoid, reversal, sampling."""

import numpy as np
import pytest

from nash_realize.errors import BlowUp, DomainExit, NewtonDiverged
from nash_realize.inputs import (GeneralizedInput, InputAlphabet, admissible,
                                 concat, diverse_word, reverse, sample_inputs)

AL = InputAlphabet(("a0", "a1"), ((1.0,), (-1.0,)))


def w(*pairs):
    return GeneralizedInput.of(AL, *pairs)


def test_concat_monoid():
    e = GeneralizedInput.empty(AL)
    u = w(("a0", 0.3))
    v = w(("a1", 0.2), ("a0", 0.1))
    z = w(("a1", 0.05))
    assert concat(concat(u, v), z).word == concat(u, concat(v, z)).word
    assert concat(e, u).word == u.word
    assert concat(u, e).word == u.word


def test_total_time_additive():
    u = w(("a0", 0.3), ("a1", -0.1))
    v = w(("a1", 0.2))
    assert concat(u, v).total_time == pytest.approx(u.total_time
                                                    + v.total_time)
    assert u.total_time == pytest.approx(0.2)


def test_reverse():
    u = w(("a0", 0.3), ("a1", 0.2))
    r = reverse(u)
    # letters reversed, durations negated
    assert r.word == ((1, -0.2), (0, -0.3))
    assert r.total_time == pytest.approx(-u.total_time)
    assert reverse(r).word == u.word
    # anti-homomorphism: reverse(uv) = reverse(v) reverse(u)
    v = w(("a1", 0.05))
    assert reverse(concat(u, v)).word == concat(reverse(v), reverse(u)).word


def test_negative_durations_allowed():
    u = w(("a0", -0.5))
    assert not u.is_piecewise_constant
    assert w(("a0", 0.1)).is_piecewise_constant


def test_letter_names_and_durations():
    u = w(("a0", 0.25), ("a1", 0.5))
    assert u.letter_names() == ("a0", "a1")
    assert u.durations() == (0.25, 0.5)
    assert len(u) == 2


def test_with_durations():
    u = w(("a0", 0.25), ("a1", 0.5))
    v = u.with_durations((0.1, 0.2))
    assert v.word == ((0, 0.1), (1, 0.2))
    assert u.word == ((0, 0.25), (1, 0.5))


def test_json_round_trip():
    u = w(("a0", 0.25), ("a1", -0.125))
    data = u.to_json()
    assert data == [["a0", 0.25], ["a1", -0.125]]
    assert GeneralizedInput.from_json(data, AL).word == u.word


def test_unknown_letter_rejected():
    with pytest.raises(Exception):
        GeneralizedInput.of(AL, ("zz", 0.1))


def test_sampler_deterministic_and_budgeted():
    a = sample_inputs(AL, 3, 0.9, 8, seed=5)
    b = sample_inputs(AL, 3, 0.9, 8, seed=5)
    assert [u.word for u in a] == [u.word for u in b]
    for u in a:
        assert 1 <= len(u) <= 3
        assert u.is_piecewise_constant
        assert 0.0 < u.total_time <= 0.9 + 1e-12
        for _, t in u.word:
            assert 0.0 < t <= 0.3 + 1e-12


def test_sampler_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_inputs(AL, 0, 1.0, 1, seed=0)
    with pytest.raises(ValueError):
        sample_inputs(AL, 2, 0.0, 1, seed=0)


def test_diverse_word_adjacent_letters_differ():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3, 5):
        u = diverse_word(AL, k, [0.1] * k, rng)
        assert len(u) == k
        letters = [i for i, _ in u.word]
        for p, q in zip(letters, letters[1:]):
            assert p != q


def counted(values, drawn):
    """A lazy generator over values that records each value it hands out."""
    for v in values:
        drawn.append(v)
        yield v


def test_admissible_stops_drawing_at_want():
    drawn = []
    results, skipped = admissible(counted(range(100), drawn),
                                  lambda v: 10 * v, 3)
    assert results == [0, 10, 20]
    assert skipped == 0
    assert drawn == [0, 1, 2]


def test_admissible_draws_each_candidate_just_before_evaluating_it():
    log = []

    def draws():
        for v in range(5):
            log.append(("draw", v))
            yield v

    def evaluate(v):
        log.append(("eval", v))
        return v

    admissible(draws(), evaluate, 2)
    assert log == [("draw", 0), ("eval", 0), ("draw", 1), ("eval", 1)]


def test_admissible_counts_none_and_skip_exceptions_as_skipped():
    def evaluate(v):
        if v == 0:
            raise DomainExit("left")
        if v == 1:
            raise BlowUp("blew up")
        if v == 2:
            return None
        return v

    drawn = []
    results, skipped = admissible(counted(range(10), drawn), evaluate, 2)
    assert results == [3, 4]
    assert skipped == 3
    assert drawn == [0, 1, 2, 3, 4]


def test_admissible_custom_skip_replaces_the_default():
    def evaluate(v):
        if v < 2:
            raise NewtonDiverged("no root")
        return v

    def leave(v):
        raise DomainExit("left")

    assert admissible(range(3), evaluate, 1,
                      skip=(NewtonDiverged,)) == ([2], 2)
    with pytest.raises(DomainExit):
        admissible(range(3), leave, 1, skip=(NewtonDiverged,))


def test_admissible_propagates_other_exceptions():
    def evaluate(v):
        if v == 1:
            raise NewtonDiverged("not a skip")
        return v

    drawn = []
    with pytest.raises(NewtonDiverged):
        admissible(counted(range(5), drawn), evaluate, 3)
    assert drawn == [0, 1]


def test_admissible_respects_the_cap():
    drawn = []

    def evaluate(v):
        raise DomainExit("every draw leaves the domain")

    results, skipped = admissible(counted(range(7), drawn), evaluate, 2)
    assert results == []
    assert skipped == 7
    assert drawn == list(range(7))
    # want <= 0 takes no candidate at all
    drawn = []
    assert admissible(counted(range(7), drawn), lambda v: v, 0) == ([], 0)
    assert drawn == []
