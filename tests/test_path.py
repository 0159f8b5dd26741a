"""The greedy path and its one acceptance rule.

``fit`` is the ``_accepted`` prefix of ``_path``: panel size and lbound only
stop the walk along a path that does not depend on them.
"""

import numpy as np
import pytest

from panelboost import (
    BoostConfig,
    Family,
    GenSpec,
    PanelModel,
    Selection,
    Series,
    TimeGrid,
    TransformKind,
    fit,
    generate,
    predict,
)
from panelboost import boost
from panelboost.boost import _accepted, _path

RECIP = TransformKind.RECIPROCAL


class _Recording:
    """Iterator over selections with fixed scores that counts its pulls."""

    def __init__(self, scores):
        self._items = iter([Selection(f"m{i}", 1.0, s) for i, s in enumerate(scores)])
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.pulled += 1
        return item


@pytest.mark.parametrize(
    "scores, panel_size, lbound, accepted, pulled",
    [
        ((0.9, 0.8, 0.7, 0.6), 2, -1.0, 2, 2),  # stops at the panel size
        ((0.9, 0.2, 0.8, 0.7), 4, 0.5, 1, 2),  # stops at the first rejection
        ((0.1, 0.9), 3, 0.5, 0, 1),  # the first selection is rejected
        ((0.5, 0.5, 0.4), 3, 0.5, 2, 3),  # a score equal to lbound is accepted
        ((0.9, 0.8), 5, 0.0, 2, 2),  # the path ends before the panel is full
        ((), 3, -1.0, 0, 0),
    ],
    ids=["panel-full", "rejected", "first-rejected", "at-lbound", "path-ends", "empty"],
)
def test_accepted_pulls_no_more_than_it_needs(scores, panel_size, lbound, accepted,
                                              pulled):
    path = _Recording(scores)
    got = _accepted(path, panel_size, lbound)
    assert [s.score for s in got] == list(scores[:accepted])
    assert path.pulled == pulled


@pytest.fixture(scope="module")
def panel():
    return generate(GenSpec(n_series=40, days=120, archetypes=4, noise_sd=0.3, seed=5))


def _stop_points(scores):
    """(k, lbound) pairs whose lbound accepts exactly the first k scores."""
    return [
        (k, min(scores[:k]))
        for k in range(1, len(scores))
        if scores[k] < min(scores[:k])
    ]


@pytest.mark.parametrize("alpha, with_replacement", [(1.0, False), (0.5, True)])
def test_an_lbound_stop_keeps_the_first_steps_of_the_full_fit(panel, alpha,
                                                              with_replacement):
    family, target = panel
    full, full_trace = fit(family, target,
                           BoostConfig(12, RECIP, -1.0, alpha, with_replacement))
    stops = _stop_points([t.score for t in full.terms])
    assert stops, "the panel has no step whose score falls below all before it"
    for k, lbound in stops:
        config = BoostConfig(12, RECIP, lbound, alpha, with_replacement)
        model, trace = fit(family, target, config)
        assert model.terms == full.terms[:k]
        assert trace.records == full_trace.records[:k]
        assert model.stopped_early


def test_fit_scores_no_step_past_the_one_that_stops_it(panel, monkeypatch):
    family, target = panel
    calls = []
    best = boost._best

    def counting_best(*args):
        calls.append(args)
        return best(*args)

    full, _ = fit(family, target, BoostConfig(12, RECIP))
    k, lbound = _stop_points([t.score for t in full.terms])[0]
    monkeypatch.setattr(boost, "_best", counting_best)
    fit(family, target, BoostConfig(3, RECIP))
    assert len(calls) == 3  # the panel is full: the fourth step is never scored
    calls.clear()
    fit(family, target, BoostConfig(12, RECIP, lbound))
    assert len(calls) == k + 1  # the rejected step is scored, none after it


def test_the_path_ignores_panel_size_and_lbound(panel):
    family, target = panel
    path = list(_path(family, target, 1.0, False))
    # without replacement the path ends when the pool empties, or earlier
    assert 0 < len(path) <= len(family)
    model, _ = fit(family, target, BoostConfig(len(path), RECIP, -1.0))
    assert [(t.member_id, t.raw_rho, t.score) for t in model.terms] == [
        (s.member_id, s.raw_rho, s.score) for s in path
    ]


@pytest.mark.parametrize("alpha, with_replacement", [(1.0, False), (0.5, True)])
def test_the_trace_is_the_error_of_each_prefix_model(panel, monkeypatch, alpha,
                                                     with_replacement):
    family, target = panel

    def refused(*args):
        raise AssertionError("fit summed its prefixes again")

    with monkeypatch.context() as patch:
        patch.setattr(boost, "_running_sums", refused)
        model, trace = fit(family, target,
                           BoostConfig(12, RECIP, -1.0, alpha, with_replacement))
    assert len(trace.records) == len(model.terms) == 12
    for k, record in enumerate(trace.records):
        prefix = PanelModel(model.terms[: k + 1], model.config, model.grid)
        error = float(np.sum((target.values - predict(prefix, family).values) ** 2))
        assert record.squared_error_after == error  # bit for bit


def _recording_best(monkeypatch):
    """Patch ``boost._best`` to record whether each call found a candidate."""
    found = []
    best = boost._best

    def recording(*args):
        result = best(*args)
        found.append(result is not None)
        return result

    monkeypatch.setattr(boost, "_best", recording)
    return found


def test_an_exhausted_pool_ends_the_path_without_scoring(monkeypatch):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((3, 20))
    family = Family._from_matrix(TimeGrid(0.0, 1.0, 20), ["a", "b", "c"], values)
    target = Series("__target__", rng.standard_normal(20))
    found = _recording_best(monkeypatch)
    path = list(_path(family, target, 1.0, False))
    assert sorted(s.member_id for s in path) == ["a", "b", "c"]
    # one score per step: the count of pool rows, not _best, ends the path
    assert found == [True, True, True]


def test_a_degenerate_residual_ends_the_path_with_rows_left(monkeypatch):
    rng = np.random.default_rng(8)
    values = rng.standard_normal((3, 20))
    family = Family._from_matrix(TimeGrid(0.0, 1.0, 20), ["a", "b", "c"], values)
    # alpha 1 takes the whole member: the residual is exactly zero
    target = Series("__target__", values[1].copy())
    found = _recording_best(monkeypatch)
    path = list(_path(family, target, 1.0, False))
    assert [s.member_id for s in path] == ["b"]
    assert path[0].raw_rho == 1.0
    assert not (target.values - path[0].prediction).any()
    # two rows are left in the pool, and _best says the residual is degenerate
    assert found == [True, False]
