"""The closed-form fall law against an independent 40-digit route.

``dynamics._fall_time`` gives the time a state on a radial line takes to
fall to the centre from partial fractions in w = |v_r| and the pair
function phi of ``ktrig``.  The oracle here never uses those variables:
it integrates the energy equation in the radius,

    T = integral_0^r dr' / sqrt(2 (E + k cot_k(r'))),

with ``mp.quad`` at 40 digits.  Each case is a float state (r, v_r) on
one of five curvatures; its energy E = v_r**2/2 - k cot_k(r) is taken at
40 digits for the oracle and rounded once for the fall law.  The speeds
are set by w**2 = f |2k (u - sqrt(-kappa))|, u = cot_k(r): f = 0 is a
start at rest, a small f a start next to it, and on the hyperbolic plane
f < 1 is below the escape energy -k sqrt(-kappa) and f > 1 above it.
On the plane y = -2E/w**2 = 1/f - 1, so f = 1 takes the series of phi
and every other f the closed forms (|y| > ``ktrig._PHI_SERIES_Y``).
"""

import cmath
import math
import sys
from contextlib import contextmanager

import pytest
from mpmath import mp, mpf

from curvedkepler.dynamics import _fall_time
from curvedkepler.ktrig import _PHI_SERIES_Y, _cos, _sin

CURVATURES = [1.0, 1e-6, 0.0, -1e-6, -1.0]
RADII = [1e-8, 9e-5, 0.3, 1.2]
#: on the sphere, radii past the equator, where u < 0
FAR_RADII = [2.0, 2.8]
SPEEDS = [0.0, 1e-6, 0.5, 1.0, 2.0, 1e4]
#: the largest error measured over these cases is 2.2e-15 relative (16.5 ulp
#: of T, kappa = -1 at r = 0.3 and f = 1e4, where y_A is 1e-4 above the cut
#: at -1); the bound leaves a margin of 4.5
FALL_RTOL = 1e-14


@contextmanager
def _untraced():
    """Suspend a global trace hook, such as the statement trace's, around
    pure mpmath work."""
    saved = sys.gettrace()
    sys.settrace(None)
    try:
        yield
    finally:
        sys.settrace(saved)


def _sin_k(kappa, x):
    """sin_k(x) at the working precision."""
    if kappa == 0:
        return x
    root = mp.sqrt(abs(kappa))
    return (mp.sin if kappa > 0 else mp.sinh)(root * x) / root


def _cos_k(kappa, x):
    if kappa == 0:
        return mp.mpf(1)
    root = mp.sqrt(abs(kappa))
    return (mp.cos if kappa > 0 else mp.cosh)(root * x)


def _u(kappa, r):
    return _cos(kappa, r) / _sin(kappa, r)


def _cases():
    for i, kappa in enumerate(CURVATURES):
        for j, r in enumerate(RADII + (FAR_RADII if kappa == 1.0 else [])):
            k = (0.7, 1.3)[(i + j) % 2]
            lift = abs(2.0 * k * (_u(kappa, r) - cmath.sqrt(-kappa)))
            for f in SPEEDS:
                yield kappa, k, r, -math.sqrt(f * lift)


CASES = list(_cases())


def _oracle(kappa, k, r, v_r):
    """(T, E) at 40 digits: the fall time and the state's energy.

    E + k cot_k(x) is written as v_r**2/2 + k sin_k(r - x)/(sin_k(x) sin_k(r)),
    which stays positive next to a turning point at r."""
    with mp.workdps(40), _untraced():
        kap, r_mp, v_mp = mpf(kappa), mpf(r), mpf(v_r)
        s_r = _sin_k(kap, r_mp)

        def rate(x):
            return 1 / mp.sqrt(v_mp**2 + 2 * k * _sin_k(kap, r_mp - x) / (_sin_k(kap, x) * s_r))

        t = mp.quad(rate, [0, r_mp])
        return t, v_mp**2 / 2 - k * _cos_k(kap, r_mp) / s_r


@pytest.mark.parametrize("kappa,k,r,v_r", CASES)
def test_fall_time_matches_the_40_digit_quadrature(kappa, k, r, v_r):
    t, e = _oracle(kappa, k, r, v_r)
    got = _fall_time(kappa, k, r, v_r, float(e))
    assert abs(got - t) <= FALL_RTOL * t


def test_the_cases_reach_every_route():
    # both sides of the hyperbolic escape energy, a start at rest, the
    # far hemisphere of the sphere, and on the plane both the series of
    # phi and its closed forms
    energy = {case: 0.5 * case[3] ** 2 - case[1] * _u(case[0], case[2]) for case in CASES}
    escape = [e + k * math.sqrt(-kappa) for (kappa, k, _, _), e in energy.items() if kappa < 0.0]
    assert min(escape) < 0.0 < max(escape)
    assert any(v_r == 0.0 for *_, v_r in CASES)
    assert any(kappa > 0.0 and r > math.pi / 2 for kappa, _, r, _ in CASES)
    flat = [-2.0 * e / case[3] ** 2 for case, e in energy.items() if case[0] == 0.0 and case[3]]
    assert min(map(abs, flat)) <= _PHI_SERIES_Y < max(map(abs, flat))
    assert min(flat) < -_PHI_SERIES_Y and max(flat) > _PHI_SERIES_Y
