import json

import numpy as np
import pytest

from nash_realize import catalog
from nash_realize.analysis import tabulate_response_plan
from nash_realize.config import RunConfig
from nash_realize.errors import DimensionMismatch
from nash_realize.minimality import (INCONCLUSIVE, MINIMAL, NOT_MINIMAL,
                                     LocalIsomorphism, MinimalityVerdict,
                                     check_minimality, construct_isomorphism,
                                     verify_isomorphism)
from nash_realize.system import NashSystem, SystemOracle


@pytest.fixture(scope="module")
def cfg():
    return RunConfig()


def test_minimal_verdict_on_scalar_system(cfg):
    sys = catalog.build("SYS-LIN1")
    v = check_minimality(sys, SystemOracle(sys), cfg, np.random.default_rng(0))
    assert v.verdict == MINIMAL
    assert v.dim_sigma == 1
    assert v.trdeg_response == 1
    assert v.trdeg_obs_sigma == 1
    assert v.reachable_trdeg == 1
    chars = v.witnesses["characterizations"]
    assert chars == {"dim_equals_response_trdeg": True,
                     "reachable": True, "observable": True}


def test_not_minimal_verdict_on_redundant_pair(cfg):
    sys = catalog.build("SYS-DIAG")
    v = check_minimality(sys, SystemOracle(sys), cfg, np.random.default_rng(1))
    assert v.verdict == NOT_MINIMAL
    assert v.dim_sigma == 2
    assert v.trdeg_response == 1
    assert not v.witnesses["characterizations"]["reachable"]


def test_inconclusive_under_subnoise_rank_tolerance(cfg):
    sys = catalog.build("SYS-LIN1")
    tight = RunConfig(**{**cfg.to_json(), "rank_tol": 1e-18})
    v = check_minimality(sys, SystemOracle(sys), tight,
                         np.random.default_rng(2))
    assert v.verdict == INCONCLUSIVE
    assert v.witnesses.get("low_confidence")


def test_table_oracle_degrades_to_dimension_check(cfg):
    sys = catalog.build("SYS-LIN1")
    tab = tabulate_response_plan(SystemOracle(sys), depth=cfg.depth,
                                 max_letters=sys.n, count=3, seed=cfg.seed)
    v = check_minimality(sys, tab, cfg, np.random.default_rng(cfg.seed))
    assert v.verdict == MINIMAL
    assert v.trdeg_obs_sigma is None
    assert v.reachable_trdeg is None
    assert v.witnesses["degraded_table_oracle"] is True
    data = v.to_json()
    assert data["trdeg_obs_sigma"] == "NOT_EVALUATED"
    assert data["reachable_trdeg"] == "NOT_EVALUATED"
    assert json.dumps(data)  # serializable as-is


def test_verdict_json_keeps_evaluated_fields():
    v = MinimalityVerdict(2, 2, 2, 2, MINIMAL, {})
    data = v.to_json()
    assert data["trdeg_obs_sigma"] == 2
    assert data["verdict"] == MINIMAL


# ------------------------------------------------------------ isomorphisms


@pytest.fixture(scope="module")
def chart_pair(cfg):
    sys1 = catalog.build("SYS-LIN1")
    sys2 = catalog.build("SYS-CUBE")
    iso = construct_isomorphism(sys1, sys2, SystemOracle(sys1), 0.05, cfg,
                                np.random.default_rng(21))
    return sys1, sys2, iso


def test_isomorphism_between_charts(cfg, chart_pair):
    sys1, sys2, iso = chart_pair
    # the second system is the first in the chart y = x^3
    assert iso.forward(np.array([2.0]))[0] == pytest.approx(8.0, rel=1e-8)
    assert iso.backward(np.array([8.0]))[0] == pytest.approx(2.0, rel=1e-8)
    assert iso.roundtrip_residual <= 1e-9
    assert iso.jacobian_product_residual <= 1e-8
    rep = verify_isomorphism(iso, sys1, sys2, trials=60, tol=1e-6, opts=cfg,
                             rng=np.random.default_rng(22), words=20)
    assert rep.passed
    assert rep.probes >= 30
    assert rep.words == 20
    assert rep.trajectory_dev <= 1e-6


def test_forward_jacobian_matches_centred_difference(cfg, chart_pair):
    sys1, sys2, iso = chart_pair
    for x in (0.8, 1.0, 1.3):
        x = np.array([x])
        y = iso.forward(x)
        exact = iso.forward_jacobian(x, y)
        assert exact.tobytes() == iso.forward_jacobian(x).tobytes()
        h = 1e-5
        centred = (iso.forward(x + h) - iso.forward(x - h)) / (2.0 * h)
        assert exact[:, 0] == pytest.approx(centred, abs=1e-7)
        # y = x^3
        assert exact[0, 0] == pytest.approx(3.0 * x[0] ** 2, rel=1e-8)
    rep = verify_isomorphism(iso, sys1, sys2, trials=30, tol=1e-6, opts=cfg,
                             rng=np.random.default_rng(28), words=10)
    assert rep.passed
    assert rep.intertwining_dev <= 1e-9


def test_isomorphism_identity_pair(cfg):
    sys = catalog.build("SYS-LIN1")
    iso = construct_isomorphism(sys, sys, SystemOracle(sys), 0.05, cfg,
                                np.random.default_rng(23))
    for v in (0.6, 1.0, 1.7):
        assert iso.forward(np.array([v]))[0] == pytest.approx(v, rel=1e-8)


def test_isomorphism_symmetric_direction(cfg):
    sys1 = catalog.build("SYS-CUBE")
    sys2 = catalog.build("SYS-LIN1")
    iso = construct_isomorphism(sys1, sys2, SystemOracle(sys1), 0.05, cfg,
                                np.random.default_rng(24))
    assert iso.forward(np.array([8.0]))[0] == pytest.approx(2.0, rel=1e-8)
    rep = verify_isomorphism(iso, sys1, sys2, trials=40, tol=1e-6, opts=cfg,
                             rng=np.random.default_rng(25), words=15)
    assert rep.passed


def test_isomorphism_json_round_trip(chart_pair):
    _, _, iso = chart_pair
    data = json.loads(json.dumps(iso.to_json()))
    assert data["jacobian_product_residual"] <= 1e-8
    assert len(data["xi1"]) == 1 and len(data["xi2"]) == 1


def test_isomorphism_rejects_dimension_mismatch(cfg):
    sys1 = catalog.build("SYS-LIN1")
    sys2 = catalog.build("SYS-LIN2")
    with pytest.raises(DimensionMismatch):
        construct_isomorphism(sys1, sys2, SystemOracle(sys1), 0.05, cfg)


def test_isomorphism_rejects_nonminimal_input(cfg):
    sys1 = catalog.build("SYS-DIAG")
    sys2 = catalog.build("SYS-LIN2")
    with pytest.raises(ValueError, match="not verified MINIMAL"):
        construct_isomorphism(sys1, sys2, SystemOracle(sys1), 0.05, cfg,
                              np.random.default_rng(26))


def test_verify_detects_readout_mismatch(cfg, chart_pair):
    sys1, sys2, iso = chart_pair
    data = sys2.to_json()
    data["readout"][0].append({"coeff": "1/10", "exps": ["0"]})
    corrupted = NashSystem.from_json(data)
    rep = verify_isomorphism(iso, sys1, corrupted, trials=30, tol=1e-6,
                             opts=cfg, rng=np.random.default_rng(27),
                             words=10)
    assert not rep.passed
    assert rep.readout_dev >= 0.05
