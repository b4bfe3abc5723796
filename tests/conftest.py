"""Shared problem fixtures used across the test modules."""

import pytest

from memdiff.parametrix import CorrectionQuadrature
from memdiff.problem import (
    Atom,
    CoefficientField,
    InitialFunction,
    JumpMeasure,
    MembranePath,
    Problem,
    SideSpec,
    TimeFunction,
    WentzellData,
)


def make_problem(b1=1.0, b2=1.0, a1=0.0, a2=0.0, q1=0.5, q2=0.5,
                 membrane=None, atoms=(), horizon=1.5, alpha=0.75):
    """Constant-coefficient problem with optional moving membrane and atoms."""
    if membrane is None:
        membrane = MembranePath.constant(0.0)
    left = SideSpec(CoefficientField.constant(a1), CoefficientField.constant(b1),
                    holder_exponent=alpha, diffusion_min=min(b1, b2) * 0.5,
                    diffusion_max=max(b1, b2) * 2.0)
    right = SideSpec(CoefficientField.constant(a2), CoefficientField.constant(b2),
                     holder_exponent=alpha, diffusion_min=min(b1, b2) * 0.5,
                     diffusion_max=max(b1, b2) * 2.0)
    wz = WentzellData(TimeFunction.constant(q1), TimeFunction.constant(q2),
                      JumpMeasure(tuple(atoms)))
    return Problem(left=left, right=right, membrane=membrane, wentzell=wz,
                   horizon=horizon)


def atom_at(position, weight=1.0):
    return Atom(TimeFunction.constant(position), TimeFunction.constant(weight))


# reduced correction settings of a genuinely variable diffusion side
VAR_CORRECTION = CorrectionQuadrature(n_sigma=10, n_w=24, n_time=6, n_space=6, depth=4)


def variable_problem(membrane=None, s_amp=0.0):
    """b = 1 + 0.25 sin x + s_amp sin s on the left, b = 1 on the
    right, q = 1/2, on a flat membrane at 0 unless one is given."""
    left = SideSpec(CoefficientField.constant(0.0),
                    CoefficientField("sinusoidal-in-s-and-x", [1.0, 0.25, 1.0, s_amp, 1.0]))
    right = SideSpec(CoefficientField.constant(0.0), CoefficientField.constant(1.0))
    return Problem(left=left, right=right,
                   membrane=membrane or MembranePath.constant(0.0),
                   wentzell=WentzellData(TimeFunction.constant(0.5),
                                         TimeFunction.constant(0.5)),
                   horizon=1.0)


@pytest.fixture
def symmetric_problem():
    """Identical sides, symmetric reflection, flat membrane: plain diffusion."""
    return make_problem()


@pytest.fixture
def skew_problem():
    """Equal unit diffusions, q1=1/4, q2=3/4: skew Brownian motion, alpha=3/4."""
    return make_problem(q1=0.25, q2=0.75)


@pytest.fixture
def two_scale_problem():
    """b1=1, b2=4 with symmetric reflection weights."""
    return make_problem(b1=1.0, b2=4.0)


@pytest.fixture
def moving_membrane_problem():
    """Moving membrane h(s) = 0.1 sin(2 s), symmetric data."""
    return make_problem(membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0]))


@pytest.fixture
def skew_moving_problem():
    """Moving membrane with asymmetric reflection: full kernel machinery."""
    return make_problem(q1=0.25, q2=0.75,
                        membrane=MembranePath("sinusoidal", [0.0, 0.1, 2.0]))


@pytest.fixture
def atom_problem():
    """One unit-weight atom on each side of a flat membrane."""
    return make_problem(atoms=(atom_at(-1.0), atom_at(1.0)))


@pytest.fixture
def gaussian_phi():
    return InitialFunction.gaussian(amp=1.0, center=0.3, width=0.6)


@pytest.fixture
def centered_phi():
    return InitialFunction.gaussian(amp=1.0, center=0.0, width=0.8)
