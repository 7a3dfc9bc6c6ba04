"""Piecewise-constant input words and their algebra, and the one loop
that keeps drawing candidates until enough of them are admissible.

A word is a finite sequence of (letter, duration) pairs over a finite
alphabet of input values. Durations may be negative (generalized inputs),
which flows interpret as backward integration; the reverse word
(ak,-tk)...(a1,-t1) undoes u exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import AlphabetMismatch, BlowUp, DomainExit


@dataclass(frozen=True)
class InputAlphabet:
    """Finite set of named input values in R^m."""

    names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("alphabet must be nonempty")
        if len(self.names) != len(self.values):
            raise ValueError("names/values length mismatch")
        if len(set(self.names)) != len(self.names):
            raise ValueError("letter names must be distinct")
        if len(set(self.values)) != len(self.values):
            raise ValueError("letter values must be pairwise distinct")
        m = len(self.values[0])
        if any(len(v) != m for v in self.values):
            raise ValueError("letter values must share a dimension")

    @classmethod
    def from_json(cls, data: dict) -> "InputAlphabet":
        names = tuple(data.keys())
        values = tuple(tuple(float(c) for c in data[n]) for n in names)
        return cls(names, values)

    def to_json(self) -> dict:
        return {n: list(v) for n, v in zip(self.names, self.values)}

    @property
    def m(self) -> int:
        return len(self.values[0])

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown letter {name!r}") from None


@dataclass(frozen=True)
class GeneralizedInput:
    """Word (a1,t1)...(ak,tk) with letters stored by alphabet index."""

    alphabet: InputAlphabet
    word: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for idx, _ in self.word:
            if not 0 <= idx < len(self.alphabet):
                raise ValueError(f"letter index {idx} out of range")

    @classmethod
    def empty(cls, alphabet: InputAlphabet) -> "GeneralizedInput":
        return cls(alphabet, ())

    @classmethod
    def of(cls, alphabet: InputAlphabet,
           *pairs: tuple[Union[str, int], float]) -> "GeneralizedInput":
        word = []
        for letter, t in pairs:
            idx = alphabet.index(letter) if isinstance(letter, str) else letter
            word.append((idx, float(t)))
        return cls(alphabet, tuple(word))

    @cached_property
    def total_time(self) -> float:
        return float(sum(t for _, t in self.word))

    @property
    def is_piecewise_constant(self) -> bool:
        return all(t >= 0 for _, t in self.word)

    def __len__(self) -> int:
        return len(self.word)

    def letter_names(self) -> tuple[str, ...]:
        return tuple(self.alphabet.names[i] for i, _ in self.word)

    def durations(self) -> tuple[float, ...]:
        return tuple(t for _, t in self.word)

    def with_durations(self, ts: Sequence[float]) -> "GeneralizedInput":
        if len(ts) != len(self.word):
            raise ValueError("duration count mismatch")
        return GeneralizedInput(
            self.alphabet,
            tuple((i, float(t)) for (i, _), t in zip(self.word, ts)))

    def to_json(self) -> list:
        return [[self.alphabet.names[i], t] for i, t in self.word]

    @classmethod
    def from_json(cls, data: list, alphabet: InputAlphabet) -> "GeneralizedInput":
        return cls(alphabet,
                   tuple((alphabet.index(name), float(t)) for name, t in data))


def concat(u: GeneralizedInput, v: GeneralizedInput) -> GeneralizedInput:
    """uv: u followed by v. Adjacent equal letters are kept separate;
    merging is an identity on response maps, not on words."""
    if u.alphabet != v.alphabet:
        raise AlphabetMismatch("words over different alphabets")
    return GeneralizedInput(u.alphabet, u.word + v.word)


def reverse(u: GeneralizedInput) -> GeneralizedInput:
    """The undo word (ak,-tk)...(a1,-t1); concat(u, reverse(u)) flows back
    to the start."""
    return GeneralizedInput(u.alphabet,
                            tuple((i, -t) for i, t in reversed(u.word)))


def sample_inputs(alphabet: InputAlphabet, max_letters: int,
                  time_budget: float, count: int,
                  seed=None) -> list[GeneralizedInput]:
    """Random piecewise-constant words: length <= max_letters, i.i.d.
    uniform letters, durations uniform in (0, budget/max_letters].
    Deterministic under a fixed seed."""
    if time_budget <= 0:
        raise ValueError("time budget must be positive")
    if max_letters < 1:
        raise ValueError("max_letters must be >= 1")
    rng = np.random.default_rng(seed)
    cap = time_budget / max_letters
    out = []
    for _ in range(count):
        k = int(rng.integers(1, max_letters + 1))
        letters = rng.integers(0, len(alphabet), size=k)
        # 1 - U is in (0, 1], so durations stay strictly positive
        durs = cap * (1.0 - rng.random(k))
        out.append(GeneralizedInput(
            alphabet, tuple((int(i), float(t)) for i, t in zip(letters, durs))))
    return out


def admissible(candidates: Iterable, evaluate: Callable, want: int,
               skip: tuple = (DomainExit, BlowUp)) -> tuple[list, int]:
    """Evaluate candidates in turn until `want` evaluations have succeeded;
    returns (results, skipped). A candidate whose evaluate raises one of
    skip, or returns None, is skipped: an inadmissible draw is data, not a
    failure. No candidate is taken after the last one needed, so a lazy
    generator draws each candidate just before it is evaluated, and the
    generator's length is the cap on draws. The caller decides what too
    few results mean."""
    results: list = []
    skipped = 0
    if want <= 0:
        return results, skipped
    for candidate in candidates:
        try:
            result = evaluate(candidate)
        except skip:
            result = None
        if result is None:
            skipped += 1
            continue
        results.append(result)
        if len(results) == want:
            break
    return results, skipped


def diverse_word(alphabet: InputAlphabet, k: int, durations: Sequence[float],
                 rng: np.random.Generator) -> GeneralizedInput:
    """A k-segment word with random letters where adjacent segments are
    forced to differ (when possible). Repeated adjacent letters merge into
    a single effective duration, which collapses duration-Jacobian columns,
    so the rank estimators sample from this family instead."""
    letters = []
    prev = -1
    for _ in range(k):
        if len(alphabet) == 1:
            letters.append(0)
            continue
        while True:
            i = int(rng.integers(0, len(alphabet)))
            if i != prev:
                break
        letters.append(i)
        prev = i
    return GeneralizedInput(
        alphabet, tuple((i, float(t)) for i, t in zip(letters, durations)))
