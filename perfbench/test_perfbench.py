"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

They check the harness, not memdiff: seeded inputs, tracing that leaves
outputs unchanged, exact counts, self times within wall time, and a
failing request that is counted without stopping the run.
"""

import json
import time

import numpy as np
import pytest

import run

run.import_memdiff()

import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402
from memdiff.boundary_system import SolverConfig  # noqa: E402
from memdiff.problem import InitialFunction  # noqa: E402
from memdiff.semigroup import SemigroupOperator  # noqa: E402


def describe(workload, k) -> str:
    """Canonical text of request k's inputs."""
    req = workload.request(k)
    if isinstance(req, workloads.SolveRequest):
        return json.dumps([req.family, req.problem.to_dict(), req.t,
                           req.phi.to_dict()])
    if isinstance(req, workloads.VarcoefRequest):
        return json.dumps([req.problem.to_dict(), req.t, req.points.tolist()])
    if isinstance(req, workloads.AuditRequest):
        return req.config.read_text(encoding="utf-8")
    return json.dumps([req.case, req.point])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first, again, other = make(7, dirs[0]), make(7, dirs[1]), make(8, dirs[2])
    ks = range(12)
    assert [describe(first, k) for k in ks] == [describe(again, k) for k in ks]
    assert [describe(first, k) for k in ks] != [describe(other, k) for k in ks]


def traced_pass(workload, ks):
    """Outputs, layer metrics and (self time, wall time) per request."""
    tracer = tracer_module.Tracer()
    outputs, walls = [], {}
    tracer.install()
    try:
        for k in ks:
            req = workload.request(k)
            tracer.request = k
            start = time.perf_counter()
            result = workload.execute(req)
            walls[k] = time.perf_counter() - start
            tracer.request = None
            outputs.append(workload.fingerprint(req, result))
    finally:
        tracer.uninstall()
    times = {k: (tracer.request_self_s[k], walls[k]) for k in ks}
    return outputs, tracer.layer_metrics(), times


@pytest.mark.parametrize("name, ks", [("const-solve", (1, 7)), ("audit", (3, 7)),
                                      ("mc-compare", (1,))])
def test_traced_outputs_are_bitwise_identical(name, ks, tmp_path):
    workload = workloads.WORKLOADS[name](3, tmp_path)
    plain = []
    for k in ks:
        req = workload.request(k)
        plain.append(workload.fingerprint(req, workload.execute(req)))
    traced, _, _ = traced_pass(workload, ks)
    assert traced == plain


def test_tracer_restores_the_program():
    import memdiff
    from memdiff import boundary_system, cli, semigroup
    before = (semigroup.solve_densities, cli.solve_densities, memdiff.solve_densities,
              boundary_system.singular_rule, SemigroupOperator.densities)
    tracer = tracer_module.Tracer()
    tracer.install()
    assert semigroup.solve_densities is not before[0]
    assert cli.solve_densities is semigroup.solve_densities
    tracer.uninstall()
    assert (semigroup.solve_densities, cli.solve_densities, memdiff.solve_densities,
            boundary_system.singular_rule, SemigroupOperator.densities) == before


EXACT = ("boundary_system.iterations", "boundary_system.holmgren.calls",
         "parametrix.table.builds")


@pytest.mark.parametrize("name, builds", [("const-solve", False), ("varcoef-solve", True)])
def test_counts_repeat_and_self_time_fits_in_wall_time(name, builds, tmp_path):
    runs = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        workload = workloads.WORKLOADS[name](5, tmp_path / d)
        runs.append(traced_pass(workload, (1,)))
    (_, first, times_a), (_, second, times_b) = runs
    assert {m: first[m] for m in EXACT} == {m: second[m] for m in EXACT}
    assert first["boundary_system.holmgren.calls"] > 0
    assert (first["parametrix.table.builds"] > 0) == builds
    for own, wall in list(times_a.values()) + list(times_b.values()):
        assert 0.0 < own <= wall


class DivergingFirst(workloads.ConstSolve):
    """Request 1 is criterion 11's heavy-atom problem; the rest are heat."""

    def _generate(self, k):
        if k == 1:
            heavy = workloads.constant_problem(
                q1=0.05, q2=0.05, atoms=(workloads.Atom(
                    workloads.TimeFunction.constant(0.05),
                    workloads.TimeFunction.constant(80.0)),))
            return workloads.SolveRequest("atoms", heavy, 1.0,
                                          InitialFunction.gaussian(1.0, 0.3, 0.6))
        return workloads.SolveRequest("heat", workloads.constant_problem(), 1.0,
                                      InitialFunction.gaussian(1.0, 0.3, 0.6))

    def execute(self, req):
        op = SemigroupOperator(req.problem, SolverConfig(k_max=40))
        return op, op.apply(0.0, req.t, req.phi)(self.GRID)


def test_diverging_request_is_counted_and_the_run_goes_on(tmp_path):
    workload = DivergingFirst(1, tmp_path)
    outcome = run.Outcome()
    for k in (1, 2, 3):
        outcome.run(workload, k)
    assert (outcome.attempted, outcome.failed, len(outcome.latencies)) == (3, 1, 2)
    assert "SeriesDivergenceError" in outcome.errors[0]


def test_tail_percentile_keeps_ten_samples_beyond():
    p, value, beyond = run.tail_percentile(np.arange(1.0, 101.0))
    assert (p, beyond) == (90, 10) and value == pytest.approx(90.1)
    assert run.tail_percentile([1.0, 2.0, 3.0])[:2] == (50, 2.0)
