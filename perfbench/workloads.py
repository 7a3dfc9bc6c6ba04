"""The benchmark's three workloads: simulate, measure and reduce.

Each workload builds its inputs from the seed in its constructor (the
timed set-up), computes its references in prepare() (untimed), runs one
pass over a fixed list of operations in run_pass(), and checks a pass's
outputs in check(). check() returns the number of failed operations, the
list of correctness errors and margin_digits for the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction
from functools import partial

import numpy as np

import refs

EPS = np.finfo(float).eps


def _q(v: float, den: int = 64) -> Fraction:
    """A float rounded to a small rational, so program and reference
    share the exact same coefficients."""
    return Fraction(round(v * den), den)


def random_word(rng, nletters: int, budget: float, max_letters: int):
    """1..max_letters segments, random letters and signs, total |t| in
    [budget/2, budget]."""
    k = int(rng.integers(1, max_letters + 1))
    letters = rng.integers(0, nletters, size=k)
    w = rng.uniform(0.2, 1.0, size=k)
    w *= budget * rng.uniform(0.5, 1.0) / w.sum()
    signs = rng.choice([-1.0, 1.0], size=k)
    return tuple((int(a), float(s * t)) for a, s, t in zip(letters, signs, w))


class _Checks:
    """Collects failed operations, errors and the margin of one pass."""

    def __init__(self):
        self.failed = 0
        self.errors: list[str] = []
        self.margin = math.inf
        self.worst = None

    def digits(self, label, value):
        """Fold one check's log10 margin into the pass's minimum."""
        if value < self.margin:
            self.margin, self.worst = value, label

    def close(self, label, got, want, tol, scale=None):
        """|got - want| <= tol * scale, scale defaulting to 1 + |want|;
        the margin is log10(bound / deviation), the deviation floored at
        a few ulps of the scale."""
        got, want = np.asarray(got, float), np.asarray(want, float)
        if scale is None:
            scale = 1.0 + float(np.max(np.abs(want)))
        dev = float(np.max(np.abs(got - want)))
        bound = tol * scale
        if not dev <= bound:
            self.errors.append(f"{label}: deviation {dev:.3e} > {bound:.3e}")
            return
        self.digits(label, math.log10(bound / max(dev, 4.0 * EPS * scale)))

    def require(self, label, ok, detail):
        if not ok:
            self.errors.append(f"{label}: {detail}")


def run_cli(cli, argv):
    """One in-process CLI command; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# =============================================================== simulate

# states and responses must match their closed forms to this relative
# tolerance (the program integrates at 1e-10)
SIM_TOL = 1e-7
WORDS_PER_SYSTEM = 32
ROT_MARGIN = 1e-3


def _affine_system(nash, rng, n: int, alphabet):
    """Random affine fields x' = A_a x + b_a with a 2-row linear readout,
    exact small-denominator rationals."""
    NashExpr = nash.NashExpr
    A = [np.array([[float(_q(v)) for v in row]
                   for row in rng.normal(0.0, 0.5 / math.sqrt(n), (n, n))])
         for _ in range(2)]
    b = [np.array([float(_q(v)) for v in rng.normal(0.0, 0.5, n)])
         for _ in range(2)]
    C = np.array([[float(_q(v)) for v in row]
                  for row in rng.normal(0.0, 1.0, (2, n))])
    x0 = np.array([float(_q(v)) for v in rng.uniform(-1.0, 1.0, n)])

    def linear(row, const):
        terms = [(Fraction(c), tuple(Fraction(int(i == j)) for i in range(n)))
                 for j, c in enumerate(row) if c != 0.0]
        if const != 0.0:
            terms.append((Fraction(const), (Fraction(0),) * n))
        return NashExpr(tuple(terms), n)

    fields = tuple(tuple(linear(A[a][i], b[a][i]) for i in range(n))
                   for a in range(2))
    readout = tuple(linear(C[j], 0.0) for j in range(2))
    sys_ = nash.NashSystem(nash.Box.unbounded(n), alphabet, fields, readout,
                           tuple(x0))
    spec = dict(A=A, b=b, C=C, x0=x0)
    return sys_, spec


_PL_EXPS = (Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 3), Fraction(1, 2))


def _powerlaw_system(nash, rng, alphabet, n: int = 3, terms: int = 3):
    """x_i' = x_i * sum_k c_ik prod_j x_j^e_ijk on the positive orthant.

    sum_k |c_ik| <= 0.24 and sum_j |e_ijk| <= 2/3, so |log x| grows no
    faster than y' = 0.24 exp(2y/3): no blow-up or exit within total time
    1 from x0 in [0.8, 1.25]^n."""
    NashExpr, P = nash.NashExpr, nash.POSITIVE_ORTHANT

    def component(i):
        out = []
        for _ in range(terms):
            e = [Fraction(0)] * n
            if rng.random() < 0.5:
                e[int(rng.integers(0, n))] = _PL_EXPS[int(rng.integers(0, 4))]
            else:
                j, k = rng.choice(n, size=2, replace=False)
                e[int(j)] = Fraction(int(rng.choice([-1, 1])), 3)
                e[int(k)] = Fraction(int(rng.choice([-1, 1])), 3)
            e[i] += 1
            c = _q(rng.uniform(0.03, 0.08) * rng.choice([-1.0, 1.0]), 100)
            out.append((c, tuple(e)))
        return NashExpr(tuple(out), n, P)

    fields = tuple(tuple(component(i) for i in range(n)) for _ in range(2))
    readout = (
        NashExpr(((Fraction(1), (Fraction(1, 2), Fraction(1, 3),
                                 Fraction(-1, 2))),), n, P),
        NashExpr(((Fraction(1), (Fraction(0), Fraction(0), Fraction(2, 3))),
                  (Fraction(1), (Fraction(1), Fraction(0), Fraction(0)))),
                 n, P))
    x0 = tuple(float(_q(v)) for v in rng.uniform(0.8, 1.25, n))
    sys_ = nash.NashSystem(nash.Box.unbounded(n, positive=True), alphabet,
                           fields, readout, x0)

    def h(x):
        return np.array([x[0] ** 0.5 * x[1] ** (1 / 3) * x[2] ** -0.5,
                         x[2] ** (2 / 3) + x[0]])
    return sys_, h


def _rotation_system(nash, alphabet):
    NashExpr = nash.NashExpr
    x1, x2 = NashExpr.variable(0, 2), NashExpr.variable(1, 2)
    box = nash.Box((-math.inf, -math.inf), (refs.ROT_FACE, math.inf),
                   (False, False))
    return nash.NashSystem(box, alphabet, ((x2, -x1), (-x2, x1)), (x1, x2),
                           refs.ROT_X0)


class Simulate:
    """Seeded words flowed with `flow` and answered by SystemOracle on the
    catalog, generated affine (n = 4, 8), power-law and rotation systems.
    One operation is one flow."""

    name = "simulate"

    def __init__(self, seed: int):
        import nash_realize as nash
        self.nash = nash
        rng = np.random.default_rng([seed, 101])
        tol = nash.RunConfig().flow_tol
        alphabet = nash.catalog.load("SYS-LIN1").alphabet
        # (label, system, start, word, oracle, reference); a reference is
        # ("closed", path_of(x, word) -> state, readout), ("roundtrip",
        # readout) or ("rotation",)
        self.items = []

        def add(label, sys_, start, word, spec):
            u = nash.GeneralizedInput(sys_.alphabet, word)
            oracle = nash.SystemOracle(sys_, x0=start, tol=tol)
            self.items.append((label, sys_, np.asarray(start, float), u,
                               oracle, spec))

        def pl_path(x, word):
            return np.array([refs.pl_flow(x[0], word)])

        def affine(m, readout):
            return ("closed", lambda x, word: refs.affine_flow(
                m["A"], m["b"], x, word), readout)

        for name in nash.catalog.names():
            sys_ = nash.catalog.load(name)
            ref = ("closed", pl_path, np.asarray) if name == "SYS-PL" else \
                affine(refs.AFFINE[name], partial(refs.affine_readout, name))
            for k in range(WORDS_PER_SYSTEM):
                word = random_word(rng, 2, 1.0, 6)
                add(f"{name}#{k}", sys_, sys_.x0, word, ref)
        for n in (4, 8):
            sys_, m = _affine_system(nash, rng, n, alphabet)
            for k in range(WORDS_PER_SYSTEM):
                word = random_word(rng, 2, 1.0, 6)
                add(f"AFFINE{n}#{k}", sys_, sys_.x0, word,
                    affine(m, m["C"].__matmul__))
        sys_, h = _powerlaw_system(nash, rng, alphabet)
        for k in range(WORDS_PER_SYSTEM):
            word = random_word(rng, 2, 1.0, 6)
            add(f"POWERLAW#{k}", sys_, sys_.x0, word, ("roundtrip", h))
        rot = _rotation_system(nash, alphabet)
        # half the seeded rotation words stay inside, half leave the box
        for kind in ("inside", "exit"):
            kept = 0
            while kept < WORDS_PER_SYSTEM // 2:
                r, phi = rng.uniform(0.8, 1.3), rng.uniform(-math.pi, math.pi)
                start = (r * math.sin(phi), r * math.cos(phi))
                if start[0] >= refs.ROT_FACE - ROT_MARGIN:
                    continue
                word = random_word(rng, 2, 1.0, 6)
                # an excursion inside one segment is caught or missed
                # depending on where the exit check samples fall, so seeded
                # words avoid it; the fixed words below cover it
                if refs.rotation_outcome(start, word, ROT_MARGIN)[0] != kind:
                    continue
                add(f"ROTATION-{kind}#{kept}", rot, start, word, ("rotation",))
                kept += 1
        for k, word in enumerate(refs.ROT_EXCURSIONS):
            add(f"ROTATION-EXCURSION#{k}", rot, refs.ROT_X0, word,
                ("rotation",))
        # two operations (flows) per item, three for round trips
        self.ops_per_pass = sum(3 if it[5][0] == "roundtrip" else 2
                                for it in self.items)

    def prepare(self):
        """Expected outcome per item: ("state", x, y, x scale, y scale),
        ("roundtrip", start, readout) or ("exit", kind), computed without
        the program.

        Integration error follows the largest state along the path, not
        the end state, so tolerances scale with the closed-form states at
        every breakpoint."""
        self.expected = []
        for label, _sys, start, u, _oracle, spec in self.items:
            word = u.word
            if spec[0] == "roundtrip":
                self.expected.append(("roundtrip", start, spec[1]))
                continue
            if spec[0] == "rotation":
                kind, x = refs.rotation_outcome(start, word, ROT_MARGIN)
                if kind != "inside":
                    self.expected.append(("exit", kind))
                    continue
                path, readout = [x], np.asarray   # rotations keep |x|
            else:
                _, path_of, readout = spec
                path = [path_of(start, word[:k]) for k in range(len(word) + 1)]
            ys = [readout(x) for x in path]
            self.expected.append((
                "state", path[-1], ys[-1],
                1.0 + max(float(np.max(np.abs(x))) for x in path),
                1.0 + max(float(np.max(np.abs(y))) for y in ys)))

    def run_pass(self, span):
        nash = self.nash
        flow, reverse = nash.flow, nash.reverse
        errors = (nash.DomainExit, nash.BlowUp)
        out = []
        for label, sys_, start, u, oracle, spec in self.items:
            tol = oracle.tol
            with span("bench.simulate.flow"):
                try:
                    x = flow(sys_, start, u, tol).terminal
                except errors as exc:
                    x = exc
            back = None
            if spec[0] == "roundtrip" and not isinstance(x, Exception):
                with span("bench.simulate.flow"):
                    try:
                        back = flow(sys_, x, reverse(u), tol).terminal
                    except errors as exc:
                        back = exc
            with span("bench.simulate.respond"):
                try:
                    y = oracle.respond(u)
                except errors as exc:
                    y = exc
            out.append((x, back, y))
        return out

    def check(self, outputs):
        c = _Checks()
        for item, exp, (x, back, y) in zip(self.items, self.expected,
                                           outputs):
            label = item[0]
            if exp[0] == "exit":
                for v in (x, y):
                    if not isinstance(v, Exception) and exp[1] == "excursion":
                        # the known fault: a flow that leaves the domain and
                        # comes back within one segment returns normally
                        c.failed += 1
                    else:
                        c.require(label, type(v).__name__ == "DomainExit",
                                  f"left the domain, got {v!r}")
                continue
            if exp[0] == "roundtrip":
                if any(isinstance(v, Exception) for v in (x, back, y)):
                    c.failed += 3
                    continue
                start, h = exp[1], exp[2]
                c.close(f"{label} reverse", back, start, SIM_TOL)
                c.close(f"{label} respond", y, h(x), SIM_TOL)
                continue
            if isinstance(x, Exception) or isinstance(y, Exception):
                c.failed += 2
                continue
            c.close(f"{label} state", x, exp[1], SIM_TOL, exp[3])
            c.close(f"{label} respond", y, exp[2], SIM_TOL, exp[4])
        return c


# ================================================================ measure

SHIFTS_PER_SYSTEM = 2


def _rank_margins(report: dict, gap_factor: float):
    """log10 margins of every float rank decision in a TranscendenceReport
    JSON: s_r over the cutoff, and the kept/discarded ratio over the gap
    factor where a singular value is discarded."""
    tol = report["rank_tolerance"]
    out = []
    for sv in report["singular_values"]:
        sv = np.asarray(sv, dtype=float)
        if sv.size == 0 or sv[0] <= 0.0:
            continue
        r = int(np.sum(sv >= tol * sv[0]))
        out.append(math.log10(sv[r - 1] / (tol * sv[0])))
        if r < sv.size and sv[r] > 0.0:
            out.append(math.log10(sv[r - 1] / sv[r] / gap_factor))
    return out


class Measure:
    """`analyze` on every catalog system through cli.main, plus response
    degrees of shifted oracles. One operation is one (system, question)
    pair: reachable, observation and response degree from `analyze`, and
    each shifted response degree."""

    name = "measure"

    def __init__(self, seed: int):
        import nash_realize as nash
        from nash_realize import cli
        self.nash, self.cli, self.seed = nash, cli, seed
        self.cfg = nash.RunConfig(seed=seed)
        rng = np.random.default_rng([seed, 202])
        self.systems = {name: nash.catalog.load(name)
                        for name in nash.catalog.names()}
        self.shifts = {
            name: [nash.GeneralizedInput(s.alphabet,
                                         random_word(rng, 2, 0.25, 3))
                   for _ in range(SHIFTS_PER_SYSTEM)]
            for name, s in self.systems.items()}
        self.ops_per_pass = len(self.systems) * (3 + SHIFTS_PER_SYSTEM)

    def prepare(self):
        for name, spec in refs.AFFINE.items():
            refs.check_affine_matches(name, self.systems[name].to_json())
            if spec["C"] is not None and \
                    refs.kalman_degrees(spec) != refs.DEGREES[name]:
                raise RuntimeError(f"{name}: Kalman ranks disagree with "
                                   "the hand-derived table")

    def run_pass(self, span):
        nash, cfg = self.nash, self.cfg
        out = {}
        for i, (name, sys_) in enumerate(self.systems.items()):
            with span("bench.measure.analyze"):
                try:
                    rc, text = run_cli(self.cli, ["analyze", name, "--seed",
                                                  str(self.seed)])
                except Exception as exc:     # counted as failed operations
                    rc, text = None, repr(exc)
            shifted = []
            for k, u in enumerate(self.shifts[name]):
                with span("bench.measure.shifted_response"):
                    try:
                        oracle = nash.shift_oracle(
                            nash.SystemOracle(sys_, tol=cfg.flow_tol), u)
                        rep = nash.estimate_response_trdeg(
                            oracle, depth=cfg.depth, max_letters=sys_.n,
                            count=1, fd_step=cfg.fd_step,
                            rank_tol=cfg.rank_tol,
                            seed=np.random.default_rng([self.seed, i, k]),
                            time_budget=cfg.budget, flow_tol=cfg.fd_flow_tol,
                            gap_factor=cfg.gap_factor)
                    except nash.NashRealizeError as exc:
                        rep = exc
                shifted.append(rep)
            out[name] = (rc, text, shifted)
        return out

    def check(self, outputs):
        c = _Checks()
        for name, (rc, text, shifted) in outputs.items():
            if rc != 0:
                c.failed += 3 + len(shifted)
                continue
            rep = json.loads(text)
            got = (rep["reachable_trdeg"]["estimated_trdeg"],
                   rep["obs_trdeg"]["estimated_trdeg"],
                   rep["response_trdeg"]["estimated_trdeg"])
            c.require(name, got == refs.DEGREES[name],
                      f"degrees {got} != {refs.DEGREES[name]}")
            dim = refs.DIMENSIONS[name]
            c.require(name, rep["dimension"] == dim, "dimension")
            c.require(name, rep["reachable"] == (got[0] == dim)
                      and rep["observable"] == (got[1] == dim),
                      "reachable/observable flags")
            # the paper's characterisation of minimality
            c.require(name, (rep["dimension"] == got[2])
                      == (rep["reachable"] and rep["observable"]),
                      "dimension == response disagrees with "
                      "reachable and observable")
            reports = [rep["reachable_trdeg"], rep["obs_trdeg"],
                       rep["response_trdeg"]]
            for k, s in enumerate(shifted):
                if isinstance(s, Exception):
                    c.failed += 1
                    continue
                s = s.to_json()
                c.require(f"{name} shift#{k}",
                          s["estimated_trdeg"] == got[2],
                          f"shifted response {s['estimated_trdeg']} != "
                          f"{got[2]}")
                reports.append(s)
            for r in reports:
                c.require(name, not r["low_confidence"],
                          f"low-confidence {r['method']} decision")
                if r["method"] != "exact-rational":
                    for m in _rank_margins(r, self.cfg.gap_factor):
                        c.digits(f"{name} {r['method']}", m)
        return c


# ================================================================= reduce

REDUCE_SYSTEMS = ("SYS-DIAG", "SYS-UNOBS", "SYS-RED3")
# absolute tolerances, as in the program's own verification
RESPONSE_TOL = 1e-6
FRESH_WORDS = 8
ISO_PROBES = 20


class Reduce:
    """`minimize` on three non-minimal systems and `compare SYS-LIN1
    SYS-CUBE`, in process through cli.main. One operation is one
    command."""

    name = "reduce"

    def __init__(self, seed: int):
        import nash_realize as nash
        from nash_realize import cli
        self.nash, self.cli, self.seed = nash, cli, seed
        rng = np.random.default_rng([seed, 303])
        self.systems = {name: nash.catalog.load(name)
                        for name in REDUCE_SYSTEMS + ("SYS-LIN1",
                                                       "SYS-CUBE")}
        self.words = {name: [random_word(rng, 2, 0.25, 3)
                             for _ in range(FRESH_WORDS)]
                      for name in REDUCE_SYSTEMS}
        self.probes = rng.uniform(-1.0, 1.0, ISO_PROBES)
        self.ops_per_pass = len(REDUCE_SYSTEMS) + 1

    def prepare(self):
        for name in REDUCE_SYSTEMS + ("SYS-LIN1", "SYS-CUBE"):
            refs.check_affine_matches(name, self.systems[name].to_json())

    def run_pass(self, span):
        out = {}
        s = str(self.seed)
        for argv in [["minimize", n, "--seed", s] for n in REDUCE_SYSTEMS] \
                + [["compare", "SYS-LIN1", "SYS-CUBE", "--seed", s]]:
            with span(f"bench.reduce.{argv[0]}"):
                try:
                    out[argv[1]] = run_cli(self.cli, argv)
                except Exception as exc:     # counted as a failed operation
                    out[argv[1]] = (None, repr(exc))
        return out

    def check(self, outputs):
        nash = self.nash
        c = _Checks()
        for name in REDUCE_SYSTEMS:
            rc, text = outputs[name]
            if rc != 0:
                c.failed += 1
                continue
            rep = json.loads(text)
            want_dim = refs.DEGREES[name][2]
            c.require(name, rep["realization"]["dimension"] == want_dim,
                      f"dimension {rep['realization']['dimension']} != "
                      f"{want_dim}")
            c.require(name, rep["minimality"]["verdict"] == "MINIMAL",
                      f"verdict {rep['minimality']['verdict']}")
            sys_ = self.systems[name]
            red = nash.realization_from_json(rep["realization"], sys_)
            m = refs.AFFINE[name]
            answered = 0
            for word in self.words[name]:
                u = nash.GeneralizedInput(sys_.alphabet, word)
                try:
                    got = red.respond(u)
                except nash.DomainExit:
                    continue
                except nash.NashRealizeError as exc:
                    c.require(f"{name} word {word}", False, repr(exc))
                    continue
                answered += 1
                x = refs.affine_flow(m["A"], m["b"], m["x0"],
                                     red.shift_input.word + word)
                c.close(f"{name} word {word}", got,
                        refs.affine_readout(name, x), RESPONSE_TOL, 1.0)
            c.require(name, answered >= FRESH_WORDS // 2,
                      f"only {answered} of {FRESH_WORDS} fresh words "
                      "admissible")
        rc, text = outputs["SYS-LIN1"]
        if rc != 0:
            c.failed += 1
            return c
        rep = json.loads(text)
        iso_tol = rep["config"]["iso_tol"]
        c.require("compare", rep["verification"]["passed"],
                  "isomorphism verification failed")
        iso = rep["isomorphism"]
        xi1 = nash.ImplicitMap.from_json(iso["xi1"][0])
        base = float(iso["base1"][0])
        rho = 0.25 * abs(base)
        if iso["radius"] is not None:
            rho = min(rho, 0.4 * iso["radius"])
        for p in self.probes:
            x = base + rho * p
            try:
                z = xi1.solve([x])
            except (nash.NewtonDiverged, nash.DerivativeVanished) as exc:
                c.require("compare", False, f"forward map at {x}: {exc}")
                continue
            c.close(f"compare x={x}", [z], [refs.cube(x)], iso_tol, 1.0)
        return c


WORKLOADS = {cls.name: cls for cls in (Simulate, Measure, Reduce)}
