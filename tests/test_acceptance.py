"""Acceptance gate: one test per shipped guarantee, eleven in all.

Each test is a self-contained end-to-end check of one promised property
of the package — trig-kernel identities, flat-limit continuity,
conserved-quantity drift, the closed-form orbit against the integrator,
effective-potential landmarks, the hyperbolic classification table,
metric conic-hood of bounded orbits, spherical closure, the
fixed-periastron landmark chain, and the equator-touching orbit.
Tolerances are part of the contract and are pinned in the asserts.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import bounded_orbit_elements, random_states
from curvedkepler.conics import (
    ecc_from_focal,
    focal_from_vertices,
    periastron_family,
    verify_conic_definition,
)
from curvedkepler.dynamics import ConservedSet, KeplerParams, PhaseState, integrate
from curvedkepler.effective_potential import (
    OrbitLabel,
    classify_orbit,
    critical_point,
    escape_energy,
    potential_profile,
    turning_points,
    w_eff,
)
from curvedkepler.errors import DomainError
from curvedkepler.geometry import PolarPoint
from curvedkepler.ktrig import acot_k, atan_k, cos_k, radial_limit, sin_k, tan_k
from curvedkepler.orbit import (
    binet_residual,
    orbit_constants,
    orbit_radius,
    phi_from_time,
    propagate,
    radial_period,
    time_from_u,
    u_closed,
)

REGIMES = (1.0, 0.0, -1.0)


def periastron_state(kappa, k, j, ecc, phi_per=0.0):
    """Phase state at the periastron of the orbit with elements (j, ecc)."""
    d = j * j / k
    u_per = (1.0 + ecc) / d
    r_per = acot_k(kappa, u_per)
    s = sin_k(kappa, r_per)
    return PhaseState(r_per, phi_per, 0.0, j / (s * s))


# ----------------------------------------------------------------------
# 1. trig kernel identities
# ----------------------------------------------------------------------


def test_criterion_01_trig_identities_on_1e5_random_pairs():
    # Pythagorean and both double-angle identities, 1e5 (kappa, x) draws
    # over kappa in [-4, 4].  Deviations are scaled by the dominant term
    # of each identity: for kappa < 0 the terms grow like cosh^2, so a
    # raw absolute comparison would measure float range, not kernel
    # quality.  For O(1) arguments the scaling is exactly absolute.
    rng = np.random.default_rng(42)
    worst_pyth = worst_cos2 = worst_sin2 = 0.0
    for _ in range(100_000):
        kap = float(rng.uniform(-4.0, 4.0))
        if kap > 0.0:
            x_hi = 0.9 * math.pi / math.sqrt(kap)
        else:
            x_hi = 5.0 / math.sqrt(max(-kap, 1e-12))
        x = float(rng.uniform(-x_hi, x_hi))
        c, s = cos_k(kap, x), sin_k(kap, x)
        c2, s2 = cos_k(kap, 2.0 * x), sin_k(kap, 2.0 * x)

        pyth = abs(c * c + kap * s * s - 1.0) / max(1.0, c * c, abs(kap) * s * s)
        cos_double = abs(c2 - (c * c - kap * s * s)) / max(1.0, abs(c2))
        sin_double = abs(s2 - 2.0 * s * c) / max(1.0, abs(s2))
        worst_pyth = max(worst_pyth, pyth)
        worst_cos2 = max(worst_cos2, cos_double)
        worst_sin2 = max(worst_sin2, sin_double)
    assert worst_pyth < 1e-13
    assert worst_cos2 < 1e-13
    assert worst_sin2 < 1e-13


# ----------------------------------------------------------------------
# 2. flat-limit continuity
# ----------------------------------------------------------------------


def _agree(value, flat_value, what, rtol=1e-6):
    assert value == pytest.approx(flat_value, rel=rtol, abs=rtol), (
        f"{what}: {value!r} vs flat {flat_value!r}"
    )


def test_criterion_02_flat_limit_continuity_at_kappa_1e8():
    # kappa = +-1e-8 must agree with kappa = 0 to 1e-6 relative on the
    # probe set k=1, J in {0.5, 1, 2}, r in [0.1, 5], for the exported
    # functions of the trig kernel, the effective-potential module and
    # the closed-form orbit module.  Quantities that are structurally
    # flat-degenerate (radial_limit, the escape landmarks, the closure
    # of every spherical orbit) have no finite flat counterpart and are
    # outside the comparison by construction.
    k = 1.0
    probe_r = (0.1, 0.5, 1.0, 2.0, 3.5, 5.0)
    probe_u = (0.2, 0.7, 1.0, 2.5, 10.0)
    phis = np.linspace(0.0, 2.0 * math.pi, 17)

    for kap in (1e-8, -1e-8):
        # --- trig kernel ---------------------------------------------
        for r in probe_r:
            _agree(cos_k(kap, r), cos_k(0.0, r), f"cos_k({r})")
            _agree(sin_k(kap, r), sin_k(0.0, r), f"sin_k({r})")
            _agree(tan_k(kap, r), tan_k(0.0, r), f"tan_k({r})")
            _agree(atan_k(kap, r), atan_k(0.0, r), f"atan_k({r})")
        for u in probe_u:
            _agree(acot_k(kap, u), acot_k(0.0, u), f"acot_k({u})")

        for j in (0.5, 1.0, 2.0):
            # --- effective potential ---------------------------------
            for r in probe_r:
                _agree(w_eff(kap, k, j, r), w_eff(0.0, k, j, r), f"w_eff(J={j},r={r})")
            r_m, w_m = critical_point(kap, k, j)
            r_m0, w_m0 = critical_point(0.0, k, j)
            _agree(r_m, r_m0, f"critical radius (J={j})")
            _agree(w_m, w_m0, f"critical value (J={j})")
            prof, prof0 = potential_profile(kap, k, j), potential_profile(0.0, k, j)
            _agree(prof.critical_radius, prof0.critical_radius, "profile radius")
            _agree(prof.critical_value, prof0.critical_value, "profile value")

            e_bound = 0.8 * w_m0  # well inside the flat well: bound everywhere
            roots = [r for r in turning_points(kap, k, j, e_bound) if r <= 10.0]
            roots0 = [r for r in turning_points(0.0, k, j, e_bound) if r <= 10.0]
            assert len(roots) == len(roots0) == 2
            for a, b in zip(roots, roots0):
                _agree(a, b, f"turning point (J={j})")
            assert classify_orbit(kap, k, j, e_bound).bounded is True
            assert classify_orbit(0.0, k, j, e_bound).bounded is True

            # --- closed-form orbit -----------------------------------
            params, params0 = KeplerParams(kap, k), KeplerParams(0.0, k)
            s, s0 = sin_k(kap, 2.0), sin_k(0.0, 2.0)
            state = PhaseState(2.0, 0.7, 0.3, j / (s * s))
            state0 = PhaseState(2.0, 0.7, 0.3, j / (s0 * s0))
            oc, oc0 = orbit_constants(state, params), orbit_constants(state0, params0)
            _agree(oc.d, oc0.d, f"conic size d (J={j})")
            _agree(oc.ecc, oc0.ecc, f"eccentricity (J={j})")
            _agree(oc.phi0, oc0.phi0, f"periastron angle (J={j})")
            for phi in phis:
                _agree(u_closed(oc, phi), u_closed(oc0, phi), f"u_closed({phi:.2f})")
                r_flat = orbit_radius(oc0, 0.0, phi)
                # compare radii inside the probe window; far outside it
                # (r ~ 1/sqrt|kappa|) the geometries genuinely part ways
                if r_flat is not None and r_flat <= 5.0:
                    r_curved = orbit_radius(oc, kap, phi)
                    assert r_curved is not None
                    _agree(r_curved, r_flat, f"orbit_radius({phi:.2f})")
                assert abs(binet_residual(oc, kap, phi)) < 1e-12
            if oc0.ecc < 0.95:  # bound in the flat problem: compare periods
                _agree(radial_period(oc, kap), radial_period(oc0, 0.0), "radial period")
                u_mid_a = 0.75 * oc0.u_periastron + 0.25 * oc0.u_apoastron
                u_mid_b = 0.25 * oc0.u_periastron + 0.75 * oc0.u_apoastron
                _agree(
                    time_from_u(oc, kap, u_mid_b, u_mid_a),
                    time_from_u(oc0, 0.0, u_mid_b, u_mid_a),
                    "time_from_u leg",
                )
            # sweep law: same trajectory times, same accumulated angle
            traj = integrate(state, params, 2.0, tol=1e-11)
            traj0 = integrate(state0, params0, 2.0, tol=1e-11)
            t_grid = np.linspace(0.0, 2.0, 9)
            for a, b in zip(
                phi_from_time(oc, kap, t_grid, traj),
                phi_from_time(oc0, 0.0, t_grid, traj0),
            ):
                _agree(a, b, "phi_from_time")
            # and the states of the inverted time law, from periastron
            for a, b in zip(propagate(oc, kap, t_grid).ravel(), propagate(oc0, 0.0, t_grid).ravel()):
                _agree(a, b, "propagate")


# ----------------------------------------------------------------------
# 3 + 5. conservation drift and closed form vs integrator
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def ten_period_runs():
    """50 random bounded orbits per regime, integrated 10 radial periods
    at tol 1e-11; shared between the drift and closed-form criteria."""
    rng = np.random.default_rng(42)
    runs = {}
    for kappa in REGIMES:
        params = KeplerParams(kappa, 1.0)
        entries = []
        for _ in range(50):
            j, ecc, _ = bounded_orbit_elements(kappa, 1.0, rng)
            state = periastron_state(kappa, 1.0, j, ecc, float(rng.uniform(-3.0, 3.0)))
            oc = orbit_constants(state, params)
            period = radial_period(oc, kappa)
            traj = integrate(state, params, 10.0 * period, tol=1e-11, dense=False)
            entries.append((state, oc, traj))
        runs[kappa] = entries
    return runs


def test_criterion_03_conserved_drift_below_1e9_over_ten_periods(ten_period_runs):
    worst = 0.0
    for kappa in REGIMES:
        params = KeplerParams(kappa, 1.0)
        for state0, _, traj in ten_period_runs[kappa]:
            c0 = ConservedSet.from_state(state0, params)
            base = (c0.e, c0.j, c0.i3, c0.i4)
            for row in traj.states:
                cs = ConservedSet.from_state(PhaseState(*row), params)
                for now, ref in zip((cs.e, cs.j, cs.i3, cs.i4), base):
                    worst = max(worst, abs(now - ref) / max(1.0, abs(ref)))
    assert worst < 1e-9


def test_criterion_05_closed_form_matches_integrator_below_1e6(ten_period_runs):
    worst_u = 0.0
    worst_binet = 0.0
    for kappa in REGIMES:
        for _, oc, traj in ten_period_runs[kappa]:
            rs, phis = traj.states[:, 0], traj.states[:, 1]
            u_num = np.array([cos_k(kappa, r) / sin_k(kappa, r) for r in rs])
            u_form = u_closed(oc, phis)
            worst_u = max(worst_u, float(np.max(np.abs(u_form - u_num))))
            worst_binet = max(
                worst_binet,
                max(abs(binet_residual(oc, kappa, float(p))) for p in phis[::7]),
            )
    assert worst_u < 1e-6
    assert worst_binet < 1e-12


# ----------------------------------------------------------------------
# 4. Runge-Lenz norm identity
# ----------------------------------------------------------------------


def test_criterion_04_runge_lenz_norm_identity_on_1e4_states_per_regime():
    # I3^2 + I4^2 = 2 E_P J^2 + k^2 on random tangent-bundle states.
    # 1e-11 is read against the size of the identity's own terms: with
    # J^2 up to ~5e3 the products carry that scale's rounding.
    rng = np.random.default_rng(42)
    k = 1.3
    worst = 0.0
    for kappa in REGIMES:
        params = KeplerParams(kappa, k)
        for state in random_states(kappa, 10_000, rng):
            c = ConservedSet.from_state(state, params)
            lhs = c.i3 * c.i3 + c.i4 * c.i4
            rhs = 2.0 * c.e_p * c.j * c.j + k * k
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    assert worst < 1e-11


# ----------------------------------------------------------------------
# 6. effective-potential landmarks vs golden-section oracle
# ----------------------------------------------------------------------


def _w_mp(kappa, k, j, r):
    kap = mpf(repr(kappa))
    if kap > 0:
        root = mp.sqrt(kap)
        co, si = mp.cos(root * r), mp.sin(root * r) / root
    elif kap < 0:
        root = mp.sqrt(-kap)
        co, si = mp.cosh(root * r), mp.sinh(root * r) / root
    else:
        co, si = mpf(1), mpf(r)
    return -k * co / si + mpf(repr(j)) ** 2 / (2 * si * si)


def _golden_min(f, a, b):
    inv_phi = (mp.sqrt(5) - 1) / 2
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > mpf("1e-25"):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    mid = (a + b) / 2
    return mid, f(mid)


def test_criterion_06_critical_point_matches_golden_section_to_1e12():
    mp.dps = 40
    cases = [
        (1.0, 1.0, 0.5), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (2.5, 1.3, 0.8),
        (0.0, 1.0, 1.0), (0.0, 1.0, 2.0),
        (-1.0, 4.0, 1.0), (-1.0, 1.0, 0.5), (-0.3, 2.0, 1.1),
    ]
    for kappa, k, j in cases:
        if kappa > 0.0:
            hi = radial_limit(kappa) - 1e-3
        else:
            hi = 16.0
        r_ref, w_ref = _golden_min(lambda r: _w_mp(kappa, k, j, r), mpf("0.001"), mpf(hi))
        r_m, w_m = critical_point(kappa, k, j)
        assert abs(r_m - float(r_ref)) < 1e-12 * max(1.0, abs(r_m))
        assert abs(w_m - float(w_ref)) < 1e-12 * max(1.0, abs(w_m))

    # qualitative shapes: the spherical well walls up at both chart
    # ends; saturated hyperbolic profiles decrease monotonically to the
    # escape plateau; an unsaturated one dips below it and comes back
    r_m, w_m = critical_point(1.0, 1.0, 1.0)
    assert r_m == pytest.approx(math.pi / 4.0, abs=1e-14)
    assert w_m == pytest.approx(0.0, abs=1e-14)
    assert w_eff(1.0, 1.0, 1.0, 0.01) > w_m + 1e3
    assert w_eff(1.0, 1.0, 1.0, math.pi - 0.01) > w_m + 1e3

    assert critical_point(-1.0, 1.0, 2.0) is None
    grid = np.linspace(0.05, 12.0, 200)
    w_vals = [w_eff(-1.0, 1.0, 2.0, float(r)) for r in grid]
    assert all(b < a for a, b in zip(w_vals, w_vals[1:]))
    assert w_vals[-1] > escape_energy(-1.0, 1.0)

    r_m, w_m = critical_point(-1.0, 4.0, 1.0)
    assert r_m == pytest.approx(math.atanh(0.25), rel=1e-14)
    assert w_m == pytest.approx(-8.5, rel=1e-14)
    assert w_m < escape_energy(-1.0, 4.0)


# ----------------------------------------------------------------------
# 7. hyperbolic classification vs independent boundedness
# ----------------------------------------------------------------------


BOUNDED_HYP = {OrbitLabel.HYP_CIRCLE, OrbitLabel.HYP_ELLIPSE}


def test_criterion_07_hyperbolic_classification_table_10k_pairs():
    # kappa = -1, k = 1.  The class of each attainable (J, E) pair must
    # match boundedness established independently: structurally by the
    # turning-point count of W (a root scan that never consults the
    # classifier's thresholds) for all 1e4 pairs, and dynamically by the
    # integrator on a stratified subsample (full integration of 1e4
    # pairs is hours of compute for the same information).
    kappa, k = -1.0, 1.0
    rng = np.random.default_rng(42)
    e_escape = escape_energy(kappa, k)  # -1
    pairs = []
    boundary_circle = []
    boundary_horoellipse = []
    while len(pairs) < 10_000:
        j = float(rng.uniform(0.05, 2.5)) * (1.0 if rng.random() < 0.5 else -1.0)
        crit = critical_point(kappa, k, j)
        draw = rng.random()
        if crit is not None and crit[1] < e_escape - 1e-4:
            e_cir = crit[1]
            if draw < 0.10:
                boundary_circle.append((j, e_cir))
                continue
            if draw < 0.20:
                boundary_horoellipse.append((j, e_escape))
                continue
            if draw < 0.60:  # generic bound energy, clear of both bands
                t = float(rng.uniform(1e-3, 1.0 - 1e-3))
                e = e_cir + t * (e_escape - e_cir)
                if e - e_cir < 1e-6 * abs(e_cir) or e_escape - e < 1e-6:
                    continue
                pairs.append((j, e, True))
                continue
        e = e_escape + 1e-4 + abs(float(rng.normal(0.0, 1.5)))
        pairs.append((j, e, False))

    for j, e, expect_bounded in pairs:
        cls = classify_orbit(kappa, k, j, e)
        roots = turning_points(kappa, k, j, e)
        assert (len(roots) == 2) == expect_bounded
        assert cls.bounded == expect_bounded
        assert (cls.label in BOUNDED_HYP) == expect_bounded

    # boundary energies land on the boundary classes, inside the band
    assert len(boundary_circle) > 100 and len(boundary_horoellipse) > 100
    for j, e in boundary_circle[:200]:
        assert classify_orbit(kappa, k, j, e).label is OrbitLabel.HYP_CIRCLE
        near = e + 1e-11 * abs(e)
        assert classify_orbit(kappa, k, j, near).label is OrbitLabel.HYP_CIRCLE
    for j, e in boundary_horoellipse[:200]:
        assert classify_orbit(kappa, k, j, e).label is OrbitLabel.HYP_HOROELLIPSE
        for near in (e * (1.0 - 1e-11), e * (1.0 + 1e-11)):
            assert classify_orbit(kappa, k, j, near).label is OrbitLabel.HYP_HOROELLIPSE

    # dynamical spot check: integrate a stratified subsample
    params = KeplerParams(kappa, k)
    bound_sample = [p for p in pairs if p[2]][:12]
    open_sample = [p for p in pairs if not p[2] and p[1] > -0.5][:12]
    assert len(bound_sample) == 12 and len(open_sample) == 12
    for j, e, _ in bound_sample:
        r_per, r_apo = turning_points(kappa, k, j, e)
        s = sin_k(kappa, r_per)
        state = PhaseState(r_per, 0.0, 0.0, j / (s * s))
        oc = orbit_constants(state, params)
        traj = integrate(state, params, 1.2 * radial_period(oc, kappa), tol=1e-9, dense=False)
        assert traj.event is None
        assert float(np.max(traj.states[:, 0])) <= r_apo * (1.0 + 1e-6) + 1e-9
    for j, e, _ in open_sample:
        (r_per,) = turning_points(kappa, k, j, e)
        s = sin_k(kappa, r_per)
        state = PhaseState(r_per, 0.0, 0.0, j / (s * s))
        traj = integrate(state, params, 60.0, tol=1e-9, dense=False)
        assert float(np.max(traj.states[:, 0])) > r_per + 8.0  # escaped the well

    for j, e in boundary_circle[:12]:
        r_m, _ = critical_point(kappa, k, j)
        s = sin_k(kappa, r_m)
        state = PhaseState(r_m, 0.0, 0.0, j / (s * s))
        traj = integrate(state, params, 30.0, tol=1e-9, dense=False)
        assert float(np.max(np.abs(traj.states[:, 0] - r_m))) < 1e-5


# ----------------------------------------------------------------------
# 8. bounded hyperbolic orbits are metric conics
# ----------------------------------------------------------------------


def test_criterion_08_bounded_hyperbolic_orbits_are_metric_ellipses():
    kappa, k = -1.0, 1.0
    rng = np.random.default_rng(42)
    params = KeplerParams(kappa, k)
    worst_def = 0.0
    worst_ecc = 0.0
    for _ in range(20):
        j, ecc, _ = bounded_orbit_elements(kappa, k, rng)
        axis = float(rng.uniform(-3.0, 3.0))
        state = periastron_state(kappa, k, j, ecc, axis)
        oc = orbit_constants(state, params)
        r_per = acot_k(kappa, oc.u_periastron)
        r_apo = acot_k(kappa, oc.u_apoastron)
        fe = focal_from_vertices(kappa, r_per, r_apo, axis=axis)
        samples = []
        for phi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
            r = orbit_radius(oc, kappa, axis + phi)
            samples.append(PolarPoint(r, axis + phi))
        worst_def = max(worst_def, verify_conic_definition(kappa, samples, fe))
        worst_ecc = max(worst_ecc, abs(ecc_from_focal(kappa, fe) - oc.ecc))
    assert worst_def < 1e-8
    assert worst_ecc < 1e-9


# ----------------------------------------------------------------------
# 9. spherical closure after one angular turn
# ----------------------------------------------------------------------


def test_criterion_09_spherical_orbits_close_after_2pi():
    # eccentricity below, at, and above 1: every spherical orbit is
    # closed, and one full turn of phi recurs the whole state.
    kappa, k, j = 1.0, 1.0, 1.0
    params = KeplerParams(kappa, k)
    for ecc in (0.6, 1.0, 1.4):
        state = periastron_state(kappa, k, j, ecc, 0.25)
        oc = orbit_constants(state, params)
        period = radial_period(oc, kappa)
        traj = integrate(state, params, 1.3 * period, tol=1e-11)
        t_turn = traj.first_crossing(lambda t, s: s.phi - (0.25 + 2.0 * math.pi))
        assert t_turn is not None
        again = traj.state_at(t_turn)
        recurrence = max(
            abs(again.r - state.r),
            abs(again.phi - 2.0 * math.pi - state.phi),
            abs(again.v_r - state.v_r),
            abs(again.v_phi - state.v_phi),
        )
        assert recurrence < 1e-7, f"ecc={ecc}: recurrence {recurrence}"


# ----------------------------------------------------------------------
# 10. fixed-periastron landmark chain
# ----------------------------------------------------------------------


def test_criterion_10_periastron_chain_ordering_and_flat_rate():
    for tanh_r in (0.2, 0.5, 0.8):
        fam = periastron_family(-1.0, math.atanh(tanh_r))
        assert 0.0 < fam.d_circle < fam.d_horoellipse < fam.d_horohyperbola
        assert 0.0 < fam.ecc_horoellipse < fam.ecc_equiparabola < 1.0
        assert fam.ecc_horohyperbola > 1.0
        if fam.colatus_tangent is not None:
            assert fam.d_horohyperbola > 1.0  # only exists past the asymptote scale

    # eccentricity width of the parabola band vanishes like
    # sqrt(-kappa) * r_per in the flat limit (prefactor 4)
    r_per = 0.35
    widths = {}
    for kap in (-1e-4, -1e-6, -1e-8):
        fam = periastron_family(kap, r_per)
        widths[kap] = fam.ecc_horohyperbola - fam.ecc_horoellipse
    assert widths[-1e-6] / widths[-1e-8] == pytest.approx(10.0, rel=1e-4)
    assert widths[-1e-4] / widths[-1e-6] == pytest.approx(10.0, rel=1e-2)
    assert widths[-1e-8] == pytest.approx(4.0 * math.sqrt(1e-8) * r_per, rel=1e-3)
    double = periastron_family(-1e-8, 2.0 * r_per)
    assert (double.ecc_horohyperbola - double.ecc_horoellipse) == pytest.approx(
        2.0 * widths[-1e-8], rel=1e-3
    )


# ----------------------------------------------------------------------
# 11. equator-touching orbit
# ----------------------------------------------------------------------


def test_criterion_11_zero_ep_spherical_orbit_touches_equator():
    # ecc = 1 is exactly E_P = 0; the apoastron must sit on the equator
    kappa, k, j = 1.0, 1.0, 1.0
    params = KeplerParams(kappa, k)
    state = periastron_state(kappa, k, j, 1.0)
    oc = orbit_constants(state, params)
    assert oc.ecc == pytest.approx(1.0, abs=1e-12)
    assert orbit_radius(oc, kappa, oc.phi0 + math.pi) == pytest.approx(
        math.pi / 2.0, abs=1e-12
    )
    period = radial_period(oc, kappa)
    traj = integrate(state, params, period, tol=1e-11)
    apo = traj.state_at(0.5 * period)
    assert abs(apo.r - math.pi / 2.0) < 1e-9
    assert float(np.max(traj.states[:, 0])) <= math.pi / 2.0 + 1e-9
