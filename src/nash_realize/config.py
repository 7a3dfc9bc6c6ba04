"""Run configuration shared by the CLI and the acceptance harness."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class RunConfig:
    seed: int = 0
    flow_tol: float = 1e-10
    # the rank estimators' variational flows run tighter than flow_tol:
    # the rank gaps are read against singular values near the flow error
    fd_flow_tol: float = 1e-12
    rank_tol: float = 1e-8
    gap_factor: float = 1e6
    fit_tol: float = 1e-7
    newton_tol: float = 1e-12
    iso_tol: float = 1e-6
    derivative_floor: float = 1e-6
    depth: int = 2
    degree_bound: int = 6
    epsilon: float = 0.1
    trials: int = 100
    budget: float = 1.0
    fd_step: float = 1e-3
    max_terms: int = 1000
    probe_rays: int = 16

    def __post_init__(self):
        for name in ("flow_tol", "fd_flow_tol", "rank_tol", "gap_factor",
                     "fit_tol", "newton_tol", "iso_tol", "derivative_floor",
                     "epsilon", "budget", "fd_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.depth < 0 or self.degree_bound < 1:
            raise ValueError("depth must be >= 0 and degree_bound >= 1")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
