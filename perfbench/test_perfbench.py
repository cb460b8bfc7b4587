"""Tests for the benchmark's own helpers: self time, the failure rule and
the objective-gain read-out.  Run with ``PYTHONPATH=src python -m pytest
perfbench``."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

import harness
from tracing import Span, Tracer, arithmetic_error, self_times, summarize
from tvtv.core import HsCube, SpectralMatrix
from tvtv.operators import BlockAverage, block_avg_apply, csr_apply


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            Span("op", 0.0, 10.0, None, 1),
            Span("a", 1.0, 4.0, 0, 1),
            Span("a.inner", 2.0, 3.0, 1, 1),
            Span("b", 5.0, 9.0, 0, 1),
        ]
        assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    def test_overlapping_children_are_merged(self):
        spans = [
            Span("op", 0.0, 10.0, None, 1),
            Span("a", 1.0, 5.0, 0, 1),
            Span("b", 3.0, 7.0, 0, 1),
        ]
        assert self_times(spans)[0] == 4.0

    def test_child_clipped_to_parent(self):
        spans = [Span("op", 0.0, 4.0, None, 1), Span("late", 3.0, 6.0, 0, 1)]
        assert self_times(spans)[0] == 3.0

    def test_self_times_of_a_tree_sum_to_its_root(self):
        spans = [
            Span("op", 0.0, 10.0, None, 7),
            Span("a", 0.5, 6.0, 0, 7),
            Span("a.x", 1.0, 2.0, 1, 7),
            Span("a.y", 2.5, 5.5, 1, 7),
            Span("b", 6.5, 9.5, 0, 7),
        ]
        summary = summarize(spans, [7])[7]
        assert summary.duration == 10.0
        assert math.isclose(summary.self_sum, 10.0)
        assert arithmetic_error(summary) < 1e-12
        assert summary.calls == {"op": 1, "a": 1, "a.x": 1, "a.y": 1, "b": 1}


class TestTracer:
    def test_records_nested_calls_and_restores(self):
        def leaf(x):
            return x + 1

        mod = SimpleNamespace()
        mod.leaf = leaf
        mod.outer = lambda x: mod.leaf(x) * 2
        original_outer = mod.outer
        tracer = Tracer()
        tracer.wrap(mod, "leaf", "leaf", size=lambda args, result: args[0])
        tracer.wrap(mod, "outer", "outer")
        try:
            assert mod.outer(1) == 4          # outside an operation: no spans
            assert tracer.spans == []
            with tracer.operation("op1"):
                assert mod.outer(2) == 6
        finally:
            tracer.restore()
        assert mod.leaf is leaf and mod.outer is original_outer
        names = [(s.name, s.parent, s.op) for s in tracer.spans]
        assert names == [("operation", None, "op1"), ("outer", 0, "op1"),
                         ("leaf", 1, "op1")]
        assert tracer.spans[2].size == 2
        summary = summarize(tracer.spans, ["op1"])["op1"]
        assert arithmetic_error(summary) < 1e-9

    def test_span_closed_when_call_raises(self):
        def boom():
            raise ValueError("no")

        mod = SimpleNamespace(boom=boom)
        tracer = Tracer()
        tracer.wrap(mod, "boom", "boom")
        try:
            with pytest.raises(ValueError):
                with tracer.operation(1):
                    mod.boom()
        finally:
            tracer.restore()
        assert all(not math.isnan(s.end) for s in tracer.spans)


def _report(iterations):
    return SimpleNamespace(iterations=iterations)


class TestFailureRule:
    xhat = HsCube(np.linspace(0.0, 1.0, 8).reshape(2, 2, 2))

    def test_passing_operation(self):
        assert harness.failures(self.xhat, _report(5), 5, 1e-12, 1e-9, None) == []

    def test_iteration_budget_must_be_met_exactly(self):
        assert harness.failures(self.xhat, _report(4), 5, 0.0, 1e-9, None)
        assert harness.failures(self.xhat, _report(6), 5, 0.0, 1e-9, None)

    def test_non_finite_output(self):
        bad = SimpleNamespace(data=np.array([[[0.0, np.nan]]]))
        assert harness.failures(bad, _report(5), 5, 0.0, 1e-9, None)

    def test_feasibility_limit(self):
        assert harness.failures(self.xhat, _report(5), 5, 2e-9, 1e-9, None)
        assert harness.failures(self.xhat, _report(5), 5, math.nan, 1e-9, None)

    def test_bit_identical_to_first_result(self):
        same = self.xhat.data.copy()
        assert harness.failures(self.xhat, _report(5), 5, 0.0, 1e-9, same) == []
        nudged = same.copy()
        nudged[1, 1, 1] = np.nextafter(nudged[1, 1, 1], 2.0)
        assert harness.failures(self.xhat, _report(5), 5, 0.0, 1e-9, nudged)

    def test_signed_zero_is_not_bit_identical(self):
        xhat = HsCube(np.zeros((1, 1, 2)))
        assert harness.failures(xhat, _report(1), 1, 0.0, 1e-9, -np.zeros((1, 1, 2)))

    def test_feasibility_residual_and_limits(self):
        rng = np.random.default_rng(3)
        gt = HsCube(rng.uniform(size=(3, 4, 4)))
        response = SpectralMatrix(np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]))
        down = BlockAverage(block=2, in_rows=4, in_cols=4)
        low_res, guide = block_avg_apply(gt, down), csr_apply(gt, response)
        assert harness.feasibility_residual(gt, low_res, guide, 2, response) < 1e-15
        shifted = HsCube(guide.data + 1e-3)
        assert math.isclose(
            harness.feasibility_residual(gt, low_res, shifted, 2, response), 1e-3)
        in_memory = harness.WORKLOADS["fixture-64"]
        files = harness.WORKLOADS["cave-512-files"]
        assert harness.feasibility_limit(in_memory, low_res, shifted, response) == 1e-9
        limit = harness.feasibility_limit(
            SimpleNamespace(files=True, block=2), low_res, shifted, response)
        assert math.isclose(limit, 1e-3 + 1e-9)
        assert files.files and not in_memory.files


class TestObjectiveGain:
    # One band, one row, two periodic columns: TV([a, b]) = 2|a - b|.
    base = HsCube(np.array([[[0.0, 0.25]]]))
    projected = HsCube(np.array([[[0.0, 1.0]]]))
    xhat = HsCube(np.array([[[0.0, 0.5]]]))

    def test_hand_built_case(self):
        # F(P(W)) = 2 + 1.5 = 3.5 and F(x̂) = 1 + 0.5 = 1.5.
        assert harness.objective(self.projected, self.base, 1.0) == 3.5
        assert harness.objective(self.xhat, self.base, 1.0) == 1.5
        assert math.isclose(harness.objective_gain_pct(
            self.xhat, self.projected, self.base, 1.0), 100.0 * 2.0 / 3.5)

    def test_beta_weights_the_second_term(self):
        # F(P(W)) = 2 + 2*1.5 = 5 and F(x̂) = 1 + 2*0.5 = 2.
        assert harness.objective_gain_pct(
            self.xhat, self.projected, self.base, 2.0) == 60.0

    def test_no_gain_at_the_projected_base(self):
        assert harness.objective_gain_pct(
            self.projected, self.projected, self.base, 1.0) == 0.0


def test_instances_are_a_function_of_the_seed():
    w = harness.Workload("tiny", 8, 3, 2, 2, budget=2, instances=2,
                         files=False, why="test")
    a, b = harness.make_instances(w, 4), harness.make_instances(w, 4)
    assert [i.seed for i in a] == [4000, 4001]
    for x, y in zip(a, b):
        assert np.array_equal(x.gt.data, y.gt.data)
        assert np.array_equal(x.response.entries, y.response.entries)
    assert not np.array_equal(a[0].gt.data, a[1].gt.data)
