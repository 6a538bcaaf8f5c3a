import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from chronograph import problem_io, scenarios

settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def preset(scenario_id, **overrides):
    """Scenario preset as a model problem (mode discarded)."""
    doc = scenarios.build_scenario(scenario_id, overrides or None)
    problem, _, _ = problem_io.load_problem_dict(doc)
    return problem


def dense_B(graph, B):
    """B as a dense n x n matrix over the stacked boundary space, graph edge
    order: the reference that the package's block-by-block code replaces."""
    off = graph.offsets()
    out = np.zeros((graph.size(), graph.size()), dtype=complex)
    for (i, j), m in B.items():
        out[off[i]:off[i] + graph.dims[i], off[j]:off[j] + graph.dims[j]] = m
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
