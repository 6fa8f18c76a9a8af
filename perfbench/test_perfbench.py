"""The benchmark's own tests.  Run from the repository root with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
from itertools import islice

import pytest

import run

run.use_checkout_source()

import compare  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, op_stream, prepare_inputs  # noqa: E402


def first_ops(name: str, seed: int, count: int):
    workload = WORKLOADS[name]
    return workload, list(islice(op_stream(workload, seed, prepare_inputs(workload)), count))


@pytest.mark.parametrize("name", ["verify-bf", "verify-dp"])
def test_verify_workload_matches_reference_and_sees_both_answers(name):
    workload, ops = first_ops(name, 7, 60)
    tally = run.Tally()
    for op in ops:
        tally.run_op(workload, run.load_reference(name), *op)
    assert tally.failures == []
    assert tally.answers[None, "yes"] > 0
    assert tally.answers[None, "no"] > 0


def test_op_over_budget_is_a_counted_failure(monkeypatch):
    monkeypatch.setattr(run, "BUDGET_S", 1e-4)
    workload, ops = first_ops("verify-dp", 3, 5)
    tally = run.Tally()
    for op in ops:
        tally.run_op(workload, run.load_reference("verify-dp"), *op)
    assert len(tally.times) == 5
    assert len(tally.failures) == 5
    assert all("budget" in f for f in tally.failures)


def traced_counts(name: str, count: int) -> str:
    workload, ops = first_ops(name, 11, count)
    plain, traced, tracer = run.trace_pass(workload, ops, run.load_reference(name))
    assert plain.failures == traced.failures == []
    metrics = tracer.layer_metrics(len(ops))
    return json.dumps({k: v for k, (v, unit) in metrics.items() if unit != "s"}, sort_keys=True)


@pytest.mark.parametrize("name,count", [("verify-bf", 60), ("verify-dp", 25), ("graph-scale", 20)])
def test_traced_counts_repeat_exactly(name, count):
    first = traced_counts(name, count)
    assert first == traced_counts(name, count)
    assert '"treewidth.validate.calls": 0' not in first


def test_tracer_restores_every_binding():
    from twlab import reductions, solvers, treewidth

    originals = (treewidth.validate, reductions.validate, solvers.check_nice)
    with Tracer():
        assert reductions.validate is treewidth.validate
        assert reductions.validate is not originals[0]
        assert solvers.check_nice is not originals[2]
    assert (treewidth.validate, reductions.validate, solvers.check_nice) == originals


def test_compare_refuses_mixed_backends(tmp_path):
    paths = []
    for backend in ("python", "cython"):
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps({
            "workload": "verify-bf", "trace": 0, "env": {"backend": backend},
            "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}},
        }))
        paths.append(str(path))
    assert compare.main(["--base", paths[0], "--new", paths[1]]) == 2
    assert compare.main(["--base", paths[0], "--new", paths[0]]) == 0
