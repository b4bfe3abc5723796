"""Array assembly of the interface system against the scalar reference.

Kernels, right-hand sides and densities of the library, evaluated on whole
node arrays, must reproduce the point-by-point reference of kernel_oracle
to 1e-12 relative, with the same number of successive approximations.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from memdiff._quadrature import singular_rule
from memdiff import boundary_system, parametrix
from memdiff.boundary_system import (
    KernelAssembler,
    RightHandSide,
    SolverConfig,
    first_kind_residual,
    fold_interpolation,
    m_delta_witness,
    solve_densities,
)
from memdiff.parametrix import CorrectionKernel, FundamentalSolution
from memdiff import potentials
from memdiff.potentials import (
    DensityPair,
    PotentialEvaluator,
    graded_mesh,
    layer_time_rule,
)
from memdiff.problem import (
    Atom,
    CoefficientField,
    InitialFunction,
    JumpMeasure,
    MembranePath,
    SideSpec,
    TimeFunction,
)
from memdiff.semigroup import SemigroupOperator

from conftest import VAR_CORRECTION, atom_at, make_problem, variable_problem
from kernel_oracle import ScalarKernels, ScalarRightHandSide, anchor_loop, reference_solve

REL = 1e-12
PHI = InitialFunction.gaussian(amp=1.0, center=0.3, width=0.6)
# reduced settings of a genuinely variable diffusion side
VAR_SOLVER = SolverConfig(mesh_n=10, n_kernel=6, n_holmgren=10)




def variable_atoms_problem():
    """variable_problem() with an atom at -0.8 on its variable side, whose
    weight is zero up to s = 0.2 and then rises, and a unit atom at 1.0."""
    prob = variable_problem()
    atoms = (Atom(TimeFunction.constant(-0.8),
                  TimeFunction("tabulated", [3, 0.0, 0.2, 1.0, 0.0, 0.0, 1.0])),
             atom_at(1.0))
    return replace(prob, wentzell=replace(prob.wentzell, measure=JumpMeasure(atoms)))


# name: (problem, phi, t, solver config, correction quadrature)
CASES = {
    "skew-moving": (make_problem(q1=0.25, q2=0.75,
                                 membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0])),
                    PHI, 1.0, SolverConfig(), None),
    "atoms": (make_problem(atoms=(atom_at(-1.0), atom_at(1.0))),
              PHI, 1.0, SolverConfig(), None),
    "two-scale": (make_problem(b1=1.0, b2=4.0), PHI, 1.0, SolverConfig(), None),
    "variable": (variable_problem(), InitialFunction.one(), 0.5, VAR_SOLVER,
                 VAR_CORRECTION),
    # atoms on a side with a correction term: the first is on that side at
    # every mesh node but weighs zero at the nodes below s = 0.2
    "variable-atoms": (variable_atoms_problem(), PHI, 0.5, VAR_SOLVER, VAR_CORRECTION),
}


def assembler(name):
    """A fresh assembler: correction tables are never shared between the
    library and the reference."""
    prob, _, _, config, correction = CASES[name]
    return KernelAssembler(prob, PotentialEvaluator(prob, correction), config)


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matrix_matches_scalar_reference(name):
    _, _, t, config, _ = CASES[name]
    asm, ref = assembler(name), ScalarKernels(assembler(name))
    mesh = graded_mesh(t, 0.0, config.mesh_n)
    nodes = mesh[[0, len(mesh) // 2, -1]]
    tau, _ = singular_rule(nodes, t, config.n_kernel, left_exp=-0.5, right_exp=-0.5)
    got = asm.system_kernel_matrix(nodes[:, None], tau)
    want = np.stack([ref.system_kernel_matrix(float(s), row)
                     for s, row in zip(nodes, tau)], axis=2)
    assert got.shape == (2, 2) + tau.shape
    assert_close(got, want)


def test_flux_condition_evaluates_the_membrane_value_once(monkeypatch):
    # two atoms on the variable side: 4 Z1 evaluations without atoms, one
    # per atom, and one of G at the membrane shared by both atoms; the
    # kernels are bitwise those of value(h) evaluated once per atom
    prob = variable_problem()
    prob = replace(prob, wentzell=replace(prob.wentzell, measure=JumpMeasure(
        (atom_at(-0.8), atom_at(-1.5)))))
    mesh = graded_mesh(0.5, 0.0, VAR_SOLVER.mesh_n)
    nodes = mesh[[0, len(mesh) // 2, -1]]
    tau, _ = singular_rule(nodes, 0.5, VAR_SOLVER.n_kernel, left_exp=-0.5, right_exp=-0.5)

    def kernels():
        return KernelAssembler(prob, PotentialEvaluator(prob, VAR_CORRECTION),
                               VAR_SOLVER).system_kernel_matrix(nodes[:, None], tau)

    calls = []
    corrections = FundamentalSolution._corrections
    monkeypatch.setattr(FundamentalSolution, "_corrections",
                        lambda fs, *args: calls.append(1) or corrections(fs, *args))
    got = kernels()
    assert len(calls) == 7

    def per_atom(problem, j, s, h, slope, value):
        out = (-1.0) ** j * problem.q(j, s) * slope
        for atom in problem.wentzell.measure.atoms:
            y = np.broadcast_to(atom.position(s), np.shape(s))
            w = np.broadcast_to(atom.weight(s), np.shape(s))
            on = (np.where(y < h, 1, 2) == j) & (w != 0.0)
            if np.any(on):
                out = out + np.where(on, w * (value(y) - value(h)), 0.0)
        return out
    monkeypatch.setattr(boundary_system, "flux_condition", per_atom)
    assert np.array_equal(got, kernels())


@pytest.mark.parametrize("name", sorted(CASES))
def test_right_hand_side_matches_scalar_reference(name):
    _, phi, t, config, _ = CASES[name]
    mesh = graded_mesh(t, 0.0, config.mesh_n)
    got = RightHandSide(assembler(name), phi, t).combined(mesh)
    ref = ScalarRightHandSide(ScalarKernels(assembler(name)), phi, t)
    want = np.array([[ref.combined(i, float(s)) for s in mesh] for i in (1, 2)])
    assert_close(got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_densities_match_reference_solve(name):
    prob, phi, t, config, _ = CASES[name]
    asm = assembler(name)
    dens = solve_densities(prob, phi, t, config=config, evaluator=asm.evaluator)
    mesh, want, sups = reference_solve(assembler(name), phi, t)
    assert np.array_equal(dens.mesh, mesh)
    assert_close(np.stack([dens.w1, dens.w2]), want)
    assert dens.diagnostics.iterations == len(sups) - 1


def test_criterion_11_iterate_counts():
    for name, count in (("skew-moving", 6), ("atoms", 33)):
        prob, phi, t, config, _ = CASES[name]
        sups = solve_densities(prob, phi, t, config=config).diagnostics.iterate_sups
        assert len(sups) == count, name


@pytest.mark.parametrize("name, mesh_n", [(name, None) for name in sorted(CASES)]
                         + [("atoms", 256)])
def test_folded_operator_is_interpolation_then_contraction(name, mesh_n):
    # the sparse operator of the iteration applied to any iterates gives the
    # interpolation at the tau nodes by DensityPair.w, the rule of the layer
    # potentials, followed by the kernel contraction, and stores two entries
    # per (equation, side, node, tau node)
    prob, _, t, config, _ = CASES[name]
    if mesh_n is not None:
        config = replace(config, mesh_n=mesh_n)
    mesh = graded_mesh(t, 0.0, config.mesh_n)
    tau, wt = singular_rule(mesh, t, config.n_kernel, left_exp=prob.kernel_time_exponent(),
                            right_exp=-0.5)
    kern = (KernelAssembler(prob, assembler(name).evaluator, config)
            .system_kernel_matrix(mesh[:, None], tau) * wt * (t - tau) ** (-0.5))
    operator = fold_interpolation(mesh, tau, kern)
    assert operator.nnz == 2 * 2 * config.mesh_n * 2 * config.n_kernel
    rng = np.random.default_rng(7)
    for _ in range(3):
        current = rng.standard_normal((2, config.mesh_n))
        at_tau = DensityPair(t, mesh, *current)
        want = np.einsum("ijnq,nqj->in", kern,
                         np.stack([at_tau.w(j, tau) for j in (1, 2)], axis=-1))
        got = (operator @ current.ravel()).reshape(2, -1)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)


def test_vanishing_kernels_leave_the_right_hand_side():
    # two scales on a flat membrane: the densities are the right-hand side
    # times sqrt(t - s), bit for bit
    prob, phi, t, config, _ = CASES["two-scale"]
    dens = solve_densities(prob, phi, t, config=config)
    mesh = graded_mesh(t, 0.0, config.mesh_n)
    want = RightHandSide(assembler("two-scale"), phi, t).combined(mesh) * np.sqrt(t - mesh)
    assert np.array_equal(dens.w1, want[0]) and np.array_equal(dens.w2, want[1])


def test_diagnostics_report_the_m_delta_witness():
    prob, phi, t, config, _ = CASES["atoms"]
    diag = solve_densities(prob, phi, t, config=config).diagnostics
    assert diag.m_delta == m_delta_witness(prob) > 0.0


def _table_builds(monkeypatch, prob):
    """The kinds of the correction tables one solve of the variable case on
    prob builds, in order."""
    builds = []
    build = CorrectionKernel._build

    def counted(self, kind, *args):
        builds.append(kind)
        return build(self, kind, *args)

    monkeypatch.setattr(CorrectionKernel, "_build", counted)
    _, phi, t, config, correction = CASES["variable"]
    solve_densities(prob, phi, t, config=config,
                    evaluator=PotentialEvaluator(prob, correction))
    return builds


def test_time_homogeneous_side_builds_one_point_table_per_span_class(monkeypatch):
    # the Poisson table of the right-hand side plus one point table per
    # power-of-two class of the spans tau - s of the 60 (mesh node, kernel
    # node) anchors: the 60 anchors fall in 14 classes, each built once
    builds = _table_builds(monkeypatch, CASES["variable"][0])
    assert builds.count("final") == 1
    assert builds.count("point") == 14
    assert len(builds) == 15


def test_time_dependent_side_builds_one_point_table_per_kernel_anchor(monkeypatch):
    # with b depending on s the anchors share no table: one point table per
    # (mesh node, kernel node) anchor, each built once
    builds = _table_builds(monkeypatch, variable_problem(s_amp=0.1))
    config = CASES["variable"][3]
    assert builds.count("final") == 1
    assert builds.count("point") == config.mesh_n * config.n_kernel
    assert len(builds) == 61


def test_shared_point_tables_move_the_variable_field_by_at_most_1e_8(monkeypatch):
    # the same field with one point table per anchor, each sized by its own
    # span, as on a time-dependent side: the span-class tables move it by
    # 5.0e-9 relative at most (x = -2), on either side and on the membrane
    prob, points = variable_problem(), np.array([-2.0, -0.6, -0.2, 0.0, 0.2, 0.6])

    def field():
        op = SemigroupOperator(prob, solver=VAR_SOLVER, correction_quad=VAR_CORRECTION)
        return op.apply(0.0, 0.4, PHI)(points)

    shared = field()
    monkeypatch.setattr(SideSpec, "is_time_homogeneous", property(lambda side: False))
    per_anchor = field()
    assert np.all(np.abs(shared - per_anchor) <= 1e-8 * np.abs(per_anchor))


# -- a variable side on arrays of terminal anchors ------------------------------

def test_anchor_array_kernel_matches_per_anchor_eval():
    # kernel-shaped anchors: (mesh node, kernel node) pairs, the Holmgren
    # points of each along the trailing axis; anchor heights differ
    _, _, t, config, correction = CASES["variable"]
    side = variable_problem().left
    mesh = graded_mesh(t, 0.0, config.mesh_n)[:3]
    tau, _ = singular_rule(mesh, t, config.n_kernel, left_exp=-0.5, right_exp=-0.5)
    rho, _ = singular_rule(mesh[:, None], tau, config.n_holmgren)
    x, y = 0.1 * np.sin(5.0 * rho), 0.05 * tau[..., None]
    for p in (0, 1):
        want = anchor_loop(FundamentalSolution(side, correction), rho, x, tau[..., None], y, p)
        got = FundamentalSolution(side, correction).on_anchors(rho, x, tau[..., None], y, p)
        assert got.shape == rho.shape
        assert_close(got, want)


def reduce_layer_rule(monkeypatch):
    """Potential rules of 24 layer nodes instead of 116, so that a variable
    side builds fewer point tables (one per layer anchor)."""
    for name, value in (("N_TIME", 8), ("GEO_LEVELS", 3), ("GEO_NODES", 4)):
        monkeypatch.setattr(potentials, name, value)


def test_variable_side_layer_and_direct_value_match_per_anchor_eval(monkeypatch):
    # membrane anchors (tau, h(tau)) of the layer rule, all field points per
    # anchor; a moving membrane so that the anchors differ in height too
    reduce_layer_rule(monkeypatch)
    prob = variable_problem(MembranePath("sinusoidal", [0.0, 0.1, 2.0]))
    _, _, t, config, correction = CASES["variable"]
    mesh = graded_mesh(t, 0.0, config.mesh_n)
    dens = DensityPair(t, mesh, np.cos(mesh), np.sin(mesh))
    s, x = 0.1, np.array([-0.7, -0.3, -0.05])
    got = PotentialEvaluator(prob, correction).layer(1, s, x, t, dens)
    tau, wt = layer_time_rule(s, t)
    assert len(tau) == 24
    g = anchor_loop(FundamentalSolution(prob.left, correction), s, x[None, :],
                    tau[:, None], prob.h(tau)[:, None])
    want = np.sum(g.T * (dens.w(1, tau) * (t - tau) ** (-0.5) * wt)[None, :], axis=-1)
    assert_close(got, want)

    ev = PotentialEvaluator(prob, correction)
    got = ev.direct_value(1, s, t, dens)
    tau, wt = singular_rule(s, t, potentials.N_TIME, left_exp=prob.kernel_time_exponent(),
                            right_exp=-0.5)
    g1 = anchor_loop(FundamentalSolution(prob.left, correction), s, prob.h(s),
                     tau[:, None], prob.h(tau)[:, None], p=1)[:, 0]
    want = np.sum(g1 * dens.w(1, tau) * (t - tau) ** (-0.5) * wt)
    assert abs(got - want) <= REL * abs(want)


def test_anchor_array_memory_peak():
    # the point corrections of many (anchor, point) pairs go through in
    # blocks: at the default quadrature one pass over 8 anchors x 24 points
    # stays far below the 30 MB an unblocked pass would hold
    side = variable_problem().left
    tau = np.linspace(0.3, 0.5, 8)[:, None]
    s = np.linspace(0.0, 0.25, 24)[None, :]
    fs = FundamentalSolution(side)
    fs.on_anchors(s, 0.1, tau, 0.0)  # builds the tables
    tracemalloc.start()
    try:
        fs.on_anchors(s, 0.1, tau, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def record_calls(monkeypatch, cls, name) -> list:
    """The argument tuples of every later call of cls.name."""
    calls, method = [], getattr(cls, name)

    def recorded(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(cls, name, recorded)
    return calls


def test_solve_runs_one_pass_per_stage(monkeypatch):
    # the default 64-node mesh fits one array pass: one right-hand side and
    # one kernel call per solve
    rhs = record_calls(monkeypatch, RightHandSide, "combined")
    kernels = record_calls(monkeypatch, KernelAssembler, "system_kernel_matrix")
    prob, phi, t, config, _ = CASES["skew-moving"]
    solve_densities(prob, phi, t, config=config)
    assert len(rhs) == 1 and len(kernels) == 1


def test_pass_boundaries_do_not_change_the_densities(monkeypatch):
    # passes of 16 mesh nodes in the solve and of 40 points in the Poisson
    # windows give the bits of the one-pass solve
    prob, phi, t, config, _ = CASES["skew-moving"]
    whole = solve_densities(prob, phi, t, config=config)
    monkeypatch.setattr(boundary_system, "PASS_POINTS",
                        16 * config.n_kernel * 2 * config.n_holmgren)
    monkeypatch.setattr(parametrix, "WINDOW_BLOCK", 40)
    rhs = record_calls(monkeypatch, RightHandSide, "combined")
    split = solve_densities(prob, phi, t, config=config)
    assert [len(s) for s, in rhs] == [16] * 4
    assert np.array_equal(split.w1, whole.w1) and np.array_equal(split.w2, whole.w2)


def test_whole_mesh_variable_right_hand_side_memory_peak():
    # the Poisson windows of a whole-mesh right-hand side go through in
    # passes of WINDOW_BLOCK points: default settings peaked at 2.7 MB, at
    # 3.8 MB in passes of 512 points and at 11.1 MB in one pass
    t = 0.4
    mesh = graded_mesh(t, 0.0, SolverConfig().mesh_n)
    prob = variable_problem()
    rhs = RightHandSide(KernelAssembler(prob), PHI, t, mesh[0])  # builds the table
    tracemalloc.start()
    try:
        rhs.combined(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


MOVING_VARIABLE = variable_problem(MembranePath("sinusoidal", [0.0, 0.1, 2.0]))


def test_moving_membrane_builds_one_poisson_table(monkeypatch):
    builds = []
    build = CorrectionKernel._build

    def counted(self, kind, *args):
        builds.append(kind)
        return build(self, kind, *args)

    monkeypatch.setattr(CorrectionKernel, "_build", counted)
    _, _, _, config, correction = CASES["variable"]
    solve_densities(MOVING_VARIABLE, PHI, 0.4, config=config,
                    evaluator=PotentialEvaluator(MOVING_VARIABLE, correction))
    assert builds.count("final") == 1


def test_moving_membrane_right_hand_side_is_order_independent():
    _, _, _, config, correction = CASES["variable"]
    t = 0.4
    mesh = graded_mesh(t, 0.0, config.mesh_n)

    def rhs():
        ev = PotentialEvaluator(MOVING_VARIABLE, correction)
        return RightHandSide(KernelAssembler(MOVING_VARIABLE, ev, config), PHI, t, mesh[0])

    whole = rhs().combined(mesh)
    by_node = rhs()
    nodes = np.concatenate([by_node.combined(mesh[k:k + 1]) for k in range(len(mesh))],
                           axis=1)
    backwards = rhs()
    reverse = np.concatenate([backwards.combined(mesh[k:k + 1])
                              for k in reversed(range(len(mesh)))], axis=1)[:, ::-1]
    assert_close(nodes, whole)
    assert_close(reverse, whole)


# -- potentials on arrays of start times -----------------------------------------

def test_layer_time_rule_has_fixed_node_count():
    # fixed panel edges: no sliver panel where roundoff leaves the last
    # geometric edge a hair below the midpoint
    rng = np.random.default_rng(5)
    t = rng.uniform(0.1, 2.0, 20000)
    s = t * rng.uniform(0.0, 0.999, t.shape)
    tau, wt = layer_time_rule(s, t)
    assert tau.shape == wt.shape == (20000, 116)
    assert np.all(np.diff(tau, axis=-1) > 0.0)
    assert np.all((tau > s[:, None]) & (tau < t[:, None]))
    for k in range(0, 20000, 2000):
        assert np.array_equal(layer_time_rule(s[k], t[k])[0], tau[k])
    # at s = 0 the edges are exact powers of 4 of the midpoint
    tau0, _ = layer_time_rule(0.0, 1.0)
    assert tau0[0] < 0.5 * 4.0 ** -13 < tau0[6] and tau0[83] < 0.5 < tau0[84]


@pytest.mark.parametrize("name", ["skew-moving", "variable"])
def test_layer_on_start_times_matches_per_time_calls(monkeypatch, name):
    if name == "variable":
        reduce_layer_rule(monkeypatch)
        prob, correction = MOVING_VARIABLE, CASES["variable"][4]
    else:
        prob, correction = CASES[name][0], None
    t = 0.5
    mesh = graded_mesh(t, 0.0, 10)
    dens = DensityPair(t, mesh, np.cos(mesh), np.sin(mesh))
    s = np.array([0.0, 0.05, 0.21, 0.33])
    x = np.array([-0.4, 0.02, prob.h(0.21), 0.6])
    for i in (1, 2):
        got = PotentialEvaluator(prob, correction).layer(i, s, x, t, dens)
        ev = PotentialEvaluator(prob, correction)
        want = [ev.layer(i, float(sk), float(xk), t, dens) for sk, xk in zip(s, x)]
        assert got.shape == s.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["skew-moving", "atoms", "two-scale"])
def test_first_kind_residual_is_the_continuity_residual(name):
    prob, phi, t, config, _ = CASES[name]
    op = SemigroupOperator(prob, config)
    dens = op.densities(0.0, t, phi)
    resid = first_kind_residual(prob, phi, t, dens, op.evaluator)
    want = [op.conjugation_residuals(float(s), t, phi)[0] for s in dens.mesh]
    assert np.max(np.abs(resid - want)) <= 1e-13


def test_first_kind_residual_does_not_depend_on_earlier_field_calls(monkeypatch):
    # b = 1 + 0.2 sin x on the left of h = 0.1 sin 2s: a field call off the
    # membrane reads a Poisson table sized by its own points and stores none
    # over the one the residual reads (which it once widened, moving the
    # residual from 4.0e-5 to 3.3e-4 at the full layer rule)
    reduce_layer_rule(monkeypatch)
    _, _, _, config, correction = CASES["variable"]
    left = SideSpec(CoefficientField.constant(0.0),
                    CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.2, 1.0, 0.0, 0.0]))
    prob = replace(MOVING_VARIABLE, left=left)
    t = 0.4
    op = SemigroupOperator(prob, config, correction)
    dens = op.densities(0.0, t, PHI)
    before = first_kind_residual(prob, PHI, t, dens, op.evaluator)
    op.apply(0.0, t, PHI)(np.array([-0.6, -0.2, 0.3, 0.7]))
    assert np.array_equal(first_kind_residual(prob, PHI, t, dens, op.evaluator), before)


def test_variable_side_field_does_not_depend_on_earlier_calls(monkeypatch):
    # a wider call between two evaluations at one point leaves its bits
    reduce_layer_rule(monkeypatch)
    _, _, _, config, correction = CASES["variable"]
    field = SemigroupOperator(MOVING_VARIABLE, config, correction).apply(0.0, 0.4, PHI)
    first = field(-0.3)
    field(np.linspace(-2.0, 2.0, 9))
    assert field(-0.3) == first


def test_first_kind_residual_does_not_depend_on_the_evaluator(monkeypatch):
    # the Poisson table is sized in one place, for the membrane on
    # [s_min, t], whichever evaluator computes the residual
    reduce_layer_rule(monkeypatch)
    _, _, _, config, correction = CASES["variable"]
    t = 0.4
    ev = PotentialEvaluator(MOVING_VARIABLE, correction)
    dens = solve_densities(MOVING_VARIABLE, PHI, t, config=config, evaluator=ev)
    fresh = PotentialEvaluator(MOVING_VARIABLE, correction)
    assert np.array_equal(first_kind_residual(MOVING_VARIABLE, PHI, t, dens, fresh),
                          first_kind_residual(MOVING_VARIABLE, PHI, t, dens, ev))
