"""Closed-form turning points against an independent 40-digit route.

``turning_points`` solves W(u) = E as a quadratic in u = cot_k(r).  The
oracle here never forms that quadratic: it writes W(r) with mpmath's
trig functions at 40 digits and runs ``mp.findroot`` on W(r) - E in r.
Root counts are checked against ``classify_orbit``, which decides
bounded or open in eccentricity, by the one rule of ``conics._side``.
"""

import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from curvedkepler import effective_potential
from curvedkepler.effective_potential import (
    classify_orbit,
    critical_point,
    turning_points,
    w_eff,
)
from curvedkepler.errors import CurvedKeplerError, DomainError

CURVATURES = [1.0, -1.0, 1e-6, -1e-6, 0.0]
ROOT_RTOL = 1e-12
E_ULPS = 4
KINDS = (
    "generic",
    "open",
    "tangency",
    "plateau_below",
    "plateau_above",
    "plateau",
    "radial",
)


def _cot_k_mp(kap, r):
    if kap > 0:
        c = mp.sqrt(kap)
        return c * mp.cot(c * r)
    if kap < 0:
        c = mp.sqrt(-kap)
        return c * mp.coth(c * r)
    return 1 / r


def _w_mp(kappa, k, j, r):
    kap, u = mpf(kappa), _cot_k_mp(mpf(kappa), r)
    return -mpf(k) * u + mpf(j) ** 2 / 2 * (u * u + kap)


def _acot_k_mp(kap, u):
    if kap > 0:
        c = mp.sqrt(kap)
        return mp.acot(u / c) / c
    if kap < 0:
        c = mp.sqrt(-kap)
        return mp.acoth(u / c) / c
    return 1 / u


def _radial_stop_beyond_float_range(kappa, k, j, e):
    """Whether the exact radial stop radius, cot_k(r) = -e/k, is not a float."""
    if j != 0.0 or -e / k <= 0.0:
        return False
    with mp.workdps(40):
        return _acot_k_mp(mpf(kappa), -mpf(e) / mpf(k)) > sys.float_info.max


def _oracle_root(kappa, k, j, e, guess):
    """Root of W(r) = e next to ``guess`` at 40 digits, and its tolerance.

    The tolerance is ROOT_RTOL relative plus the shift of the root that
    an error of E_ULPS ulps in e causes, |de / W'(r)|.  Near the
    hyperbolic plateau W is so flat that this shift exceeds 1e-12
    relative: there no double-precision input pins the root down
    further, whatever route computes it.
    """
    with mp.workdps(40):
        f = lambda r: _w_mp(kappa, k, j, r) - mpf(e)  # noqa: E731
        r0 = mpf(guess)
        root = mp.findroot(f, (r0 * (1 - mpf("1e-6")), r0 * (1 + mpf("1e-6"))))
        kap, u = mpf(kappa), _cot_k_mp(mpf(kappa), root)
        slope = abs((mpf(j) ** 2 * u - mpf(k)) * (u * u + kap))  # |dW/du * du/dr|
        shift = E_ULPS * math.ulp(max(1.0, abs(e))) / slope
    return float(root), ROOT_RTOL * float(root) + float(shift)


def _oracle_critical_radius(kappa, k, j):
    """Radius of the minimum of W: cot_k(r) = k / j**2, solved at 40 digits."""
    with mp.workdps(40):
        u_m = mpf(k) / mpf(j) ** 2
        f = lambda r: _cot_k_mp(mpf(kappa), r) - u_m  # noqa: E731
        guess = critical_point(kappa, k, j)[0]
        return float(mp.findroot(f, mpf(guess)))


def _energy(kappa, k, j, ecc):
    return (ecc * ecc - 1.0) * k * k / (2.0 * j * j) + 0.5 * kappa * j * j


@st.composite
def radial_cases(draw):
    """(kappa, k, j, e) near a landmark of the (j, E) plane."""
    kappa = draw(st.sampled_from(CURVATURES))
    kind = draw(st.sampled_from(KINDS))
    k = draw(st.floats(0.5, 2.0))
    j = draw(st.floats(0.3, 2.0))
    c = math.sqrt(-kappa) if kappa < 0.0 else 0.0
    if kappa < 0.0:
        # keep the well: sqrt(-kappa) j^2 <= 0.8 k
        j = min(j, math.sqrt(0.8 * k / c))
    # plateau energy: escape on the hyperbolic plane, the parabola at 0 on
    # the plane, the equator on the sphere
    land = -k * c if kappa < 0.0 else 0.5 * kappa * j * j
    delta = 10.0 ** draw(st.floats(-6.0, -2.0)) * max(1.0, abs(land))
    ecc_plateau = 1.0 - c * j * j / k
    if kind == "generic":
        e = _energy(kappa, k, j, draw(st.floats(0.05, 0.95)) * ecc_plateau)
    elif kind == "open":
        e = _energy(kappa, k, j, ecc_plateau + draw(st.floats(0.05, 2.0)))
    elif kind == "tangency":
        e = critical_point(kappa, k, j)[1]
    elif kind == "plateau_below":
        e = land - delta
    elif kind == "plateau_above":
        e = land + delta
    elif kind == "plateau":
        e = land
    else:
        j = 0.0
        e = draw(st.floats(-3.0, 3.0))
    return kappa, k, j, e


@given(radial_cases())
@example((1.0, 1.0, 1.0, 0.0))  # tangency on the sphere
@example((0.0, 1.0, 1.0, 0.0))  # flat parabola: inner root only
@example((-1.0, 4.0, 1.0, -4.0))  # horoellipse: inner root only
@example((1.0, 1.0, 0.0, 0.0))  # radial stop at the equator
@example((0.0, 1.0, 0.0, -0.5))
@example((-1.0, 1.0, 0.0, -2.0))
@example((-1.0, 1.0, 0.0, -1.0))  # radial on the plateau: never stops
@example((0.0, 1.0, 0.0, -5e-324))  # radial stop at k/|E|, beyond float range
@example((0.0, 1.0, 1e-3, -1.0))  # small j: one ulp of r moves W by 4e-10
@example((-1.0, 1.0, 1e-3, 0.0))
@settings(max_examples=400, deadline=None)
def test_turning_points_match_mpmath_oracle(case):
    kappa, k, j, e = case
    try:
        roots = turning_points(kappa, k, j, e)
    except DomainError:
        # a root that exists but has no double-precision radius
        assert _radial_stop_beyond_float_range(kappa, k, j, e)
        return
    assert roots == sorted(roots)

    bounded = classify_orbit(kappa, k, j, e).bounded
    if j == 0.0:
        assert not bounded
        c = math.sqrt(-kappa) if kappa < 0.0 else 0.0
        # the stop radius exists while -e/k = cot_k(r) stays on the branch
        assert len(roots) == (1 if kappa > 0.0 or -e / k > c else 0)
    else:
        assert len(roots) == (2 if bounded else 1)

    if len(roots) == 2 and roots[0] == roots[1]:
        r_m = _oracle_critical_radius(kappa, k, j)
        expected = [(r_m, ROOT_RTOL * r_m)] * 2
    else:
        expected = [_oracle_root(kappa, k, j, e, r) for r in roots]
    for r, (r_mp, tol) in zip(roots, expected):
        assert abs(r - r_mp) <= tol, (r, r_mp, tol)


def test_small_j_roots_match_the_oracle():
    # a small j puts the periastron where W is steep in r: one ulp of r
    # moves W by more than 1e-11, and the correctly rounded root must pass
    rng = random.Random(3)
    # d = j**2 = 1e-8: 5% under the escape energy is ecc 5e-10 under the
    # horoellipse rung, but u_apo = 1.05, an apoastron at r ~ 1.86
    cases = [(-1.0, 1e-4, -1.05)]
    for _ in range(150):
        kappa, j = rng.choice([1.0, 0.0, -1.0]), 10.0 ** rng.uniform(-4.0, -1.0)
        w_m = critical_point(kappa, 1.0, j)[1]
        land = 0.5 * kappa * j * j if kappa > 0.0 else -math.sqrt(-kappa)
        # log-spaced up from the well bottom or down from the landmark
        step = (land - w_m) * 10.0 ** rng.uniform(-8.0, -0.01)
        cases.append((kappa, j, w_m + step if rng.random() < 0.5 else land - step))
    for kappa, j, e in cases:
        roots = turning_points(kappa, 1.0, j, e)
        assert len(roots) == 2
        for r in roots:
            r_mp, tol = _oracle_root(kappa, 1.0, j, e, r)
            assert abs(r - r_mp) <= tol, (kappa, j, e, r, r_mp)


def _super_equatorial_cases(kappa, n=300, seed=2):
    rng = random.Random(seed)
    for _ in range(n):
        k, j, ecc = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(1.05, 2.5)
        yield k, j, _energy(kappa, k, j, ecc)


def test_super_equatorial_roots_verified_at_kappa_1e6():
    for k, j, e in _super_equatorial_cases(1e-6):
        roots = turning_points(1e-6, k, j, e)
        assert len(roots) == 2
        for r in roots:
            assert abs(w_eff(1e-6, k, j, r) - e) < 1e-11 * max(1.0, abs(e))


def test_super_equatorial_roots_near_the_antipode_match_the_oracle():
    # near the antipode r ~ pi/sqrt(kappa) of a nearly flat sphere a single
    # ulp of r moves W by more than 1e-11: the verification allows that
    # rounding, and the radii it passes sit on the 40-digit roots
    for k, j, e in _super_equatorial_cases(1e-8):
        roots = turning_points(1e-8, k, j, e)
        assert len(roots) == 2
        for r in roots:
            r_mp, _ = _oracle_root(1e-8, k, j, e, r)
            assert abs(r - r_mp) <= ROOT_RTOL * r_mp, (k, j, e, r, r_mp)


def test_a_corrupted_root_fails_verification_and_names_its_values(monkeypatch):
    # the rounding allowance must not pass a periastron that is off by a
    # relative 1e-9; the error names every value of the check
    real = effective_potential._radial_roots

    def corrupted(kap, k, j, e):
        d, circle, ecc, u_per, u_apo = real(kap, k, j, e)
        return d, circle, ecc, u_per * (1.0 + 1e-9), u_apo

    monkeypatch.setattr(effective_potential, "_radial_roots", corrupted)
    for k, j, e in _super_equatorial_cases(1e-8):
        with pytest.raises(CurvedKeplerError) as info:
            turning_points(1e-8, k, j, e)
        for part in ("at r=", "W(r) - e =", "tol", "W(u) - e =", "ulp(r) =", "moves W(r)"):
            assert part in str(info.value), str(info.value)


def test_a_periastron_where_the_terms_of_w_cancel_is_verified():
    # at u ~ 4.5e6 the two terms of W, about 2.4e7 each, cancel to E ~ -7.6:
    # evaluating W rounds by more than what 4 ulps of r move it by, and the
    # bound allows that rounding; the radius sits on the 50-digit root
    kappa, k, j, e = -2.0, 5.380607987716266, 0.0015393546350689594, -7.609329238485911
    r_per, r_apo = turning_points(kappa, k, j, e)
    with mp.workdps(50):
        f = lambda r: _w_mp(kappa, k, j, r) - mpf(e)  # noqa: E731
        bracket = (mpf(r_per) * (1 - mpf("1e-6")), mpf(r_per) * (1 + mpf("1e-6")))
        root = mp.findroot(f, bracket, tol=mpf("1e-60"), verify=False)
        assert abs(f(root)) < mpf("1e-40")
        assert abs(r_per - root) <= 4 * math.ulp(r_per), (r_per, root)
    r_mp, tol = _oracle_root(kappa, k, j, e, r_apo)
    assert abs(r_apo - r_mp) <= tol
