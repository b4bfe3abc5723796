"""Array assembly of the interface system against the scalar reference.

Kernels, right-hand sides and densities of the library, evaluated on whole
node arrays, must reproduce the point-by-point reference of kernel_oracle
to 1e-12 relative, with the same number of successive approximations.
"""

import tracemalloc

import numpy as np
import pytest

from memdiff._quadrature import singular_rule
from memdiff.boundary_system import (
    KernelAssembler,
    RightHandSide,
    SolverConfig,
    solve_densities,
)
from memdiff.parametrix import CorrectionKernel, CorrectionQuadrature, FundamentalSolution
from memdiff.potentials import (
    DensityPair,
    PotentialEvaluator,
    PotentialQuadrature,
    graded_mesh,
    layer_time_rule,
)
from memdiff.problem import (
    CoefficientField,
    InitialFunction,
    MembranePath,
    Problem,
    SideSpec,
    TimeFunction,
    WentzellData,
)

from conftest import atom_at, make_problem
from kernel_oracle import ScalarKernels, ScalarRightHandSide, anchor_loop, reference_solve

REL = 1e-12
PHI = InitialFunction.gaussian(amp=1.0, center=0.3, width=0.6)
# reduced settings of a genuinely variable diffusion side
VAR_SOLVER = SolverConfig(mesh_n=10, n_kernel=6, n_holmgren=10)
VAR_CORRECTION = CorrectionQuadrature(n_sigma=10, n_w=24, n_time=6, n_space=6, depth=4)


def variable_problem(membrane=None):
    left = SideSpec(CoefficientField.constant(0.0),
                    CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.25, 1.0, 0.0, 0.0]))
    right = SideSpec(CoefficientField.constant(0.0), CoefficientField.constant(1.0))
    return Problem(left=left, right=right,
                   membrane=membrane or MembranePath.constant(0.0),
                   wentzell=WentzellData(TimeFunction.constant(0.5),
                                         TimeFunction.constant(0.5)),
                   horizon=1.0)


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
}


def assembler(name):
    """A fresh assembler: correction tables are never shared between the
    library and the reference."""
    prob, _, _, config, correction = CASES[name]
    return KernelAssembler(prob, PotentialEvaluator(prob, None, correction), config)


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


def test_variable_side_builds_one_table_per_kernel_anchor(monkeypatch):
    # the Poisson table of the right-hand side plus one point table per
    # (mesh node, kernel node) anchor, each built once
    builds = []
    build = CorrectionKernel._build

    def counted(self, kind, *args):
        builds.append(kind)
        return build(self, kind, *args)

    monkeypatch.setattr(CorrectionKernel, "_build", counted)
    prob, phi, t, config, correction = CASES["variable"]
    solve_densities(prob, phi, t, config=config,
                    evaluator=PotentialEvaluator(prob, None, correction))
    assert builds.count("final") == 1
    assert builds.count("point") == config.mesh_n * config.n_kernel
    assert len(builds) == 61


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
    mask = np.arange(tau.size).reshape(tau.shape) % 3 != 1
    for p in (0, 1):
        want = anchor_loop(FundamentalSolution(side, correction), rho, x, tau[..., None], y, p)
        got = FundamentalSolution(side, correction).on_anchors(rho, x, tau[..., None], y, p)
        assert got.shape == rho.shape
        assert_close(got, want)
        masked = FundamentalSolution(side, correction).on_anchors(
            rho, x, tau[..., None], y, p, mask)
        assert np.all(masked[~mask] == 0.0)
        assert_close(masked[mask], want[mask])


def test_variable_side_layer_and_direct_value_match_per_anchor_eval():
    # membrane anchors (tau, h(tau)) of the layer rule, all field points per
    # anchor; a moving membrane so that the anchors differ in height too
    prob = variable_problem(MembranePath("sinusoidal", [0.0, 0.1, 2.0]))
    _, _, t, config, correction = CASES["variable"]
    quad = PotentialQuadrature(n_time=8, geo_levels=3, geo_nodes=4)
    mesh = graded_mesh(t, 0.0, config.mesh_n)
    dens = DensityPair(t, mesh, np.cos(mesh), np.sin(mesh))
    s, x = 0.1, np.array([-0.7, -0.3, -0.05])
    got = PotentialEvaluator(prob, quad, correction).layer(1, s, x, t, dens)
    tau, wt = layer_time_rule(s, t, quad)
    g = anchor_loop(FundamentalSolution(prob.left, correction), s, x[None, :],
                    tau[:, None], prob.h(tau)[:, None])
    want = np.sum(g.T * (dens.w(1, tau) * (t - tau) ** (-0.5) * wt)[None, :], axis=-1)
    assert_close(got, want)

    ev = PotentialEvaluator(prob, quad, correction)
    got = ev.direct_value(1, s, t, dens)
    tau, wt = singular_rule(s, t, quad.n_time, left_exp=prob.kernel_time_exponent(),
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
                    evaluator=PotentialEvaluator(MOVING_VARIABLE, None, correction))
    assert builds.count("final") == 1


def test_moving_membrane_right_hand_side_is_order_independent():
    _, _, _, config, correction = CASES["variable"]
    t = 0.4
    mesh = graded_mesh(t, 0.0, config.mesh_n)

    def rhs():
        ev = PotentialEvaluator(MOVING_VARIABLE, None, correction)
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
