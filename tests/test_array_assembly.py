"""Array assembly of the interface system against the scalar reference.

Kernels, right-hand sides and densities of the library, evaluated on whole
node arrays, must reproduce the point-by-point reference of kernel_oracle
to 1e-12 relative, with the same number of successive approximations.
"""

import numpy as np
import pytest

from memdiff._quadrature import singular_rule
from memdiff.boundary_system import (
    KernelAssembler,
    RightHandSide,
    SolverConfig,
    solve_densities,
)
from memdiff.parametrix import CorrectionKernel, CorrectionQuadrature
from memdiff.potentials import PotentialEvaluator, graded_mesh
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
from kernel_oracle import ScalarKernels, ScalarRightHandSide, reference_solve

REL = 1e-12
PHI = InitialFunction.gaussian(amp=1.0, center=0.3, width=0.6)
# reduced settings of a genuinely variable diffusion side
VAR_SOLVER = SolverConfig(mesh_n=10, n_kernel=6, n_holmgren=10)
VAR_CORRECTION = CorrectionQuadrature(n_sigma=10, n_w=24, n_time=6, n_space=6, depth=4)


def variable_problem():
    left = SideSpec(CoefficientField.constant(0.0),
                    CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.25, 1.0, 0.0, 0.0]))
    right = SideSpec(CoefficientField.constant(0.0), CoefficientField.constant(1.0))
    return Problem(left=left, right=right, membrane=MembranePath.constant(0.0),
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
    "atoms-near": (make_problem(atoms=(atom_at(-1.0), atom_at(1.0))),
                   PHI, 1.0, SolverConfig(delta=3.0), None),
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
    mesh = graded_mesh(t, 0.0, config.mesh_n, config.mesh_gamma)
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
    mesh = graded_mesh(t, 0.0, config.mesh_n, config.mesh_gamma)
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
