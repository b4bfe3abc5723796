"""Metamorphic checks where no closed form exists.

Moving membranes, atoms and variable coefficients have no oracle, but the
pasted process has exact symmetries: a translation of space, the mirror
x -> -x with the sides swapped, a shift of time for time-homogeneous data
and the diffusive scaling x -> lam x, b -> lam^2 b.  Each maps one problem
onto another whose field is known from the first, so the two solves must
agree.  Variable sides run at the reduced quadrature of the varcoef bench.
"""

from dataclasses import replace

import numpy as np
import pytest

from memdiff.boundary_system import SolverConfig
from memdiff.parametrix import CorrectionQuadrature
from memdiff.problem import (
    CoefficientField,
    InitialFunction,
    MembranePath,
    SideSpec,
)
from memdiff.semigroup import SemigroupOperator

from conftest import atom_at, make_problem

TOL = 1e-9  # of max |u|
REDUCED = dict(solver=SolverConfig(mesh_n=10, n_kernel=6, n_holmgren=10),
               correction_quad=CorrectionQuadrature(n_sigma=10, n_w=24, n_time=6,
                                                    n_space=6, depth=4))
X = np.array([-1.1, -0.6, -0.2, 0.3, 0.7, 1.4])


def field(problem, s, t, phi, x, reduced=False):
    """T_{s,t} phi at the points x, from a cold operator."""
    op = SemigroupOperator(problem, **(REDUCED if reduced else {}))
    return op.apply(s, t, phi)(np.asarray(x, dtype=float))


def assert_same_field(u, v):
    assert np.max(np.abs(u - v)) <= TOL * np.max(np.abs(u))


def side(drift, diffusion):
    return SideSpec(drift, diffusion, diffusion_min=0.5, diffusion_max=8.0)


def sine_diffusion(amp):
    """b(x) = 1 + amp sin x: a variable side."""
    return CoefficientField("sinusoidal-in-s-and-x", [1.0, amp, 1.0, 0.0, 0.0])


def moving_with_atoms(shift=0.0, scale=1.0, b=(1.0, 1.0), q=(0.3, 0.7)):
    """A moving membrane and two atoms, translated by shift and scaled by
    scale: h -> scale h + shift, y -> scale y + shift, w -> w / scale."""
    membrane = MembranePath("sinusoidal", [scale * 0.1 + shift, scale * 0.1, 2.0])
    atoms = (atom_at(scale * -1.0 + shift, 0.5 / scale),
             atom_at(scale * 1.2 + shift, 0.3 / scale))
    return make_problem(b1=scale ** 2 * b[0], b2=scale ** 2 * b[1], q1=q[0], q2=q[1],
                        membrane=membrane, atoms=atoms)


@pytest.mark.parametrize("c", [0.7, -1.3])
def test_translation_moving_membrane_with_atoms(c):
    # shifting h, the atoms, phi and x together leaves the field unchanged
    u = field(moving_with_atoms(), 0.0, 1.0, InitialFunction.gaussian(1.0, 0.3, 0.6), X)
    v = field(moving_with_atoms(shift=c), 0.0, 1.0,
              InitialFunction.gaussian(1.0, 0.3 + c, 0.6), X + c)
    assert_same_field(u, v)


@pytest.mark.parametrize("c", [0.7, -1.3])
def test_translation_variable_side(c):
    # an affine drift a(x) = 0.1 + 0.3 x becomes a(x - c) = 0.1 - 0.3 c + 0.3 x
    def problem(shift):
        left = side(CoefficientField("affine-in-x", [0.1 - 0.3 * shift, 0.3]),
                    CoefficientField.constant(1.0))
        return replace(make_problem(q1=0.4, q2=0.6,
                                    membrane=MembranePath.constant(shift)), left=left)

    x = np.array([-0.6, -0.2, 0.3, 0.7])
    u = field(problem(0.0), 0.0, 0.4, InitialFunction.gaussian(1.0, 0.2, 0.5), x,
              reduced=True)
    v = field(problem(c), 0.0, 0.4, InitialFunction.gaussian(1.0, 0.2 + c, 0.5), x + c,
              reduced=True)
    assert_same_field(u, v)


def mirrored(problem):
    """The problem seen through x -> -x, for zero drifts: the sides and the
    reflection weights swap, and the membrane, the atoms and the sin x part
    of a diffusion change sign."""
    def negate(f):
        return type(f)(f.kind, [-p for p in f.params[:2]] + list(f.params[2:]))

    def mirror(spec):
        b = spec.diffusion
        return spec if b.is_constant else replace(spec, diffusion=CoefficientField(
            b.kind, [b.params[0], -b.params[1]] + list(b.params[2:])))

    wz = problem.wentzell
    atoms = tuple(replace(a, position=negate(a.position)) for a in wz.measure.atoms)
    return replace(problem, left=mirror(problem.right), right=mirror(problem.left),
                   membrane=negate(problem.membrane),
                   wentzell=replace(wz, q1=wz.q2, q2=wz.q1,
                                    measure=replace(wz.measure, atoms=atoms)))


@pytest.mark.parametrize("case", ["two-scale", "moving-atoms", "variable"])
def test_side_swap_with_mirrored_data(case):
    # u(x) of a problem equals u(-x) of its mirror image for phi(-x)
    reduced = case == "variable"
    if case == "two-scale":
        problem = make_problem(b1=1.0, b2=4.0, q1=0.3, q2=0.7)
    elif case == "moving-atoms":
        problem = moving_with_atoms(b=(1.0, 2.0))
    else:
        problem = replace(make_problem(q1=0.4, q2=0.6), left=side(
            CoefficientField.constant(0.0), sine_diffusion(0.25)))
    t = 0.4 if reduced else 1.0
    u = field(problem, 0.0, t, InitialFunction.gaussian(1.0, 0.3, 0.6), X, reduced)
    v = field(mirrored(problem), 0.0, t, InitialFunction.gaussian(1.0, -0.3, 0.6), -X,
              reduced)
    assert_same_field(u, v)


@pytest.mark.parametrize("variable", [False, True])
def test_time_shift_of_time_homogeneous_data(variable):
    # T_{s,t} = T_{s+c,t+c} when nothing depends on time
    problem = make_problem(b1=1.0, b2=2.0, q1=0.4, q2=0.6, horizon=1.0,
                           atoms=() if variable else (atom_at(-1.0, 0.5),))
    if variable:
        problem = replace(problem, left=side(CoefficientField.constant(0.0),
                                             sine_diffusion(0.25)),
                          right=side(CoefficientField.constant(0.0),
                                     CoefficientField.constant(1.0)))
    phi = InitialFunction.gaussian(1.0, 0.2, 0.5)
    x = np.array([-0.6, -0.2, 0.3, 0.7])
    u = field(problem, 0.0, 0.4, phi, x, variable)
    for c in (0.3, 0.55):
        assert_same_field(u, field(problem, c, 0.4 + c, phi, x, variable))


def test_diffusive_scaling():
    # x -> lam x with b -> lam^2 b at fixed times: h, the atoms and phi
    # scale with x, and the atom weights, a density in x, by 1 / lam
    lam = 1.5
    u = field(moving_with_atoms(b=(1.0, 2.0)), 0.0, 1.0,
              InitialFunction.gaussian(1.0, 0.3, 0.6), X)
    v = field(moving_with_atoms(scale=lam, b=(1.0, 2.0)), 0.0, 1.0,
              InitialFunction.gaussian(1.0, lam * 0.3, lam * 0.6), lam * X)
    assert_same_field(u, v)
