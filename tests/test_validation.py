"""Each public function validates the curvature once, at its boundary.

``curvature_value`` is wrapped with a counter in every module that
imports it; a public call may then check kappa at most once (zero times
where the kappa arrives inside an already checked object), because the
private formulas beneath it take the checked float.
"""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

import curvedkepler as ck
from curvedkepler import cli, geometry, ktrig
from curvedkepler.errors import DomainError

MODULES = ("ktrig", "geometry", "dop853", "dynamics", "effective_potential", "conics", "orbit", "cli")


@pytest.fixture
def checks(monkeypatch):
    """Counter of curvature_value calls made from any module of the package."""
    seen = [0]
    real = ktrig.curvature_value

    def counted(kappa):
        seen[0] += 1
        return real(kappa)

    for name in MODULES:
        mod = importlib.import_module(f"curvedkepler.{name}")
        if hasattr(mod, "curvature_value"):
            monkeypatch.setattr(mod, "curvature_value", counted)

    def count(fn, *args):
        seen[0] = 0
        fn(*args)
        return seen[0]

    return count


PARAMS = {kap: ck.KeplerParams(kap, 1.0) for kap in (1.0, 0.0, -1.0)}
STATE = ck.PhaseState(0.8, 0.3, 0.1, 1.2)
ORBIT = {kap: ck.orbit_constants(STATE, p) for kap, p in PARAMS.items()}
U_STATE = {kap: ck.cos_k(kap, STATE.r) / ck.sin_k(kap, STATE.r) for kap in PARAMS}


def _bounded(kap):
    oc = ck.orbit_constants(ck.PhaseState(0.8, 0.3, 0.1, 1.0), PARAMS[kap])
    return oc, kap


ONCE = {
    # effective potential
    "turning_points": lambda kap: (ck.turning_points, kap, 1.0, 0.8, -0.3),
    "turning_points, radial": lambda kap: (ck.turning_points, kap, 1.0, 0.0, -1.5),
    "potential_profile": lambda kap: (ck.potential_profile, kap, 1.0, 0.8),
    "classify_orbit": lambda kap: (ck.classify_orbit, kap, 1.0, 0.8, -0.3),
    "critical_point": lambda kap: (ck.critical_point, kap, 1.0, 0.8),
    "w_eff": lambda kap: (ck.w_eff, kap, 1.0, 0.8, 0.5),
    # conics
    "ConicSpec": lambda kap: (ck.ConicSpec, kap, 0.64, 0.5),
    "conic_from_dynamics": lambda kap: (ck.conic_from_dynamics, kap, 0.64, 0.5),
    "periastron_family": lambda kap: (ck.periastron_family, min(kap, 0.0), 0.5),
    "ecc_from_focal": lambda kap: (ck.ecc_from_focal, kap, ck.FocalElements.two_foci(0.2, 0.6)),
    "verify_conic_definition": lambda kap: (
        ck.verify_conic_definition,
        kap,
        [ck.PolarPoint(0.5, 0.4 * i) for i in range(8)],
        ck.FocalElements.two_foci(0.2, 0.6),
    ),
    # geometry
    "to_ambient": lambda kap: (ck.to_ambient, kap, ck.PolarPoint(0.5, 0.3)),
    "metric_coefficient": lambda kap: (ck.metric_coefficient, kap, 0.5),
    "geodesic_distance": lambda kap: (
        ck.geodesic_distance, kap, ck.PolarPoint(0.5, 0.3), ck.PolarPoint(0.7, 1.0),
    ),
    # trig kernel
    "cos_k": lambda kap: (ck.cos_k, kap, 0.5),
    "sin_k": lambda kap: (ck.sin_k, kap, 0.5),
    "tan_k": lambda kap: (ck.tan_k, kap, 0.5),
    "atan_k": lambda kap: (ck.atan_k, kap, 0.5),
    "acot_k": lambda kap: (ck.acot_k, kap, 2.0),
    "radial_limit": lambda kap: (ck.radial_limit, kap),
    # dynamics taking a bare kappa
    "killing_fields": lambda kap: (ck.killing_fields, kap, ck.PolarPoint(0.5, 0.3)),
    "separable_integrals": lambda kap: (
        ck.separable_integrals, kap, STATE, lambda r: 0.0, lambda phi: 0.0,
    ),
    "integrate_separable": lambda kap: (
        ck.integrate_separable, kap, STATE,
        lambda r: -1.0 / r, lambda r: 1.0 / (r * r), lambda phi: 0.0, lambda phi: 0.0, 0.5,
    ),
    "momenta": lambda kap: (ck.momenta, kap, STATE),
    # orbits
    "orbit_radius": lambda kap: (ck.orbit_radius, ORBIT[kap], kap, 0.4),
    "time_from_u": lambda kap: (ck.time_from_u, ORBIT[kap], kap, ORBIT[kap].u_periastron, U_STATE[kap]),
    "radial_period": lambda kap: (ck.radial_period, *_bounded(kap)),
    "propagate": lambda kap: (ck.propagate, ORBIT[kap], kap, [0.1, 0.2]),
    "binet_residual": lambda kap: (ck.binet_residual, ORBIT[kap], kap, 0.4),
}

# kappa arrives inside an object that checked it on construction
NONE = {
    "classify_conic": lambda kap: (ck.classify_conic, ck.conic_from_dynamics(kap, 0.64, 0.5)),
    "ConicSpec.d": lambda kap: (lambda s: s.d, ck.conic_from_dynamics(kap, 0.64, 0.5)),
    "ConicSpec chart": lambda kap: (lambda s: (s.family, s.p, s.p_tilde), ck.conic_from_dynamics(kap, 0.64, 0.5)),
    "sample_conic": lambda kap: (ck.sample_conic, ck.conic_from_dynamics(kap, 0.64, 0.5), [0.0, 1.0]),
    "orbit_constants": lambda kap: (ck.orbit_constants, STATE, PARAMS[kap]),
    "ConservedSet.from_state": lambda kap: (ck.ConservedSet.from_state, STATE, PARAMS[kap]),
    "energy": lambda kap: (ck.energy, STATE, PARAMS[kap]),
    "eom_rhs": lambda kap: (ck.eom_rhs, STATE, PARAMS[kap]),
    "runge_lenz": lambda kap: (ck.runge_lenz, STATE, PARAMS[kap]),
    "kepler_potential": lambda kap: (ck.kepler_potential, PARAMS[kap], 0.5),
    "gauss_law_flux": lambda kap: (ck.gauss_law_flux, PARAMS[kap], 0.5),
    "circular_state": lambda kap: (ck.circular_state, PARAMS[kap], 0.8),
    "integrate": lambda kap: (ck.integrate, STATE, PARAMS[kap], 0.5),
}


@pytest.mark.parametrize("kap", [1.0, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(ONCE))
def test_public_function_checks_kappa_at_most_once(checks, name, kap):
    assert checks(*ONCE[name](kap)) <= 1


@pytest.mark.parametrize("kap", [1.0, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(NONE))
def test_checked_objects_are_trusted(checks, name, kap):
    call = NONE[name](kap)  # building the object may check kappa; the call may not
    assert checks(*call) == 0


@pytest.mark.parametrize("build", [ck.ConicSpec, ck.conic_from_dynamics])
def test_a_conic_checks_kappa_exactly_once(checks, build):
    # conic_from_dynamics builds the record, whose constructor is the one check
    assert checks(build, -1.0, 0.64, 0.5) == 1


def test_bounded_turning_points_check_kappa_exactly_once(checks):
    # a bounded orbit verifies both roots on the private W; the
    # public w_eff it once called checked kappa again for each root
    assert checks(ck.turning_points, -1.0, 1.0, 0.8, -1.05) == 1
    r_per, r_apo = ck.turning_points(-1.0, 1.0, 0.8, -1.05)
    assert 0.0 < r_per < r_apo < math.inf


# argv of one CLI run, then two values of its last flag: few and many rows
CLI_RUNS = {
    "simulate ambient": (
        ["simulate", "--kappa", "-1", "--k", "4", "--state", "0.8,0,0,2.2",
         "--chart", "ambient", "--t-end"],
        "0.5", "5",
    ),
    "simulate poincare_disk": (
        ["simulate", "--kappa", "-1", "--k", "4", "--state", "0.8,0,0,2.2",
         "--chart", "poincare_disk", "--output", "json", "--t-end"],
        "0.5", "5",
    ),
    "conic ambient": (
        ["conic", "--kappa", "-1", "--d", "0.5", "--ecc", "3", "--chart", "ambient", "--phi-steps"],
        "8", "64",
    ),
    "conic family": (
        ["conic", "--kappa", "-1", "--periastron", "0.55", "--chart", "ambient", "--phi-steps"],
        "8", "64",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_checks_do_not_grow_with_rows(checks, monkeypatch, capsys, name):
    # the chart columns and the invariants come from private formulas
    # and the integrator's record, not from one validating call per row
    radius = [0]
    real = geometry.check_interior_radius

    def counted(kappa, r):
        radius[0] += 1
        return real(kappa, r)

    for mod_name in MODULES:
        mod = importlib.import_module(f"curvedkepler.{mod_name}")
        if hasattr(mod, "check_interior_radius"):
            monkeypatch.setattr(mod, "check_interior_radius", counted)

    argv, few, many = CLI_RUNS[name]

    def run(last):
        radius[0] = 0
        kappa_checks = checks(cli.main, [*argv, last])
        return kappa_checks, radius[0], len(capsys.readouterr().out)

    small, large = run(few), run(many)
    assert large[2] > 2 * small[2]
    assert large[:2] == small[:2]


# a radius past the antipode, or below zero, is refused by every public
# function that takes a state, as eom_rhs and runge_lenz already did;
# the origin stays allowed where the quantity is regular there
RADIUS_OUT_OF_RANGE = {
    "momenta past the antipode": lambda: ck.momenta(1.0, ck.PhaseState(4.0, 0, 0, 0)),
    "kinetic_energy below zero": lambda: ck.kinetic_energy(1.0, ck.PhaseState(-4.0, 0, 0, 1.0)),
    "energy with a potential": lambda: ck.energy(
        ck.PhaseState(4.0, 0, 0, 1), ck.KeplerParams(1, 1), potential=lambda r: 0.0
    ),
}


@pytest.mark.parametrize("name", sorted(RADIUS_OUT_OF_RANGE))
def test_state_radius_is_checked(name):
    with pytest.raises(DomainError, match="radius"):
        RADIUS_OUT_OF_RANGE[name]()


INTEGRATORS = {
    "integrate": lambda t_end: ck.integrate(ck.PhaseState(1, 0, 0, 1), ck.KeplerParams(-1.0, 1.0), t_end),
    "integrate_separable": lambda t_end: ck.integrate_separable(
        -1.0, ck.PhaseState(1, 0, 0, 1), lambda r: 0.0, lambda r: 0.0, lambda phi: 0.0, lambda phi: 0.0, t_end
    ),
}


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(INTEGRATORS))
def test_integrators_refuse_a_span_that_is_not_positive_and_finite(name, t_end):
    # integrate_separable once returned the initial state alone for a span
    # of 0, -1 or NaN, and ran on until a StiffnessError for inf
    with pytest.raises(DomainError, match=f"t_end must be positive and finite, got {t_end!r}"):
        INTEGRATORS[name](t_end)


def test_momenta_and_kinetic_energy_allow_the_origin():
    state = ck.PhaseState(0.0, 0.3, 1.0, 2.0)
    assert ck.momenta(1.0, state) == ck.Momenta(math.cos(0.3), math.sin(0.3), 0.0)
    assert ck.kinetic_energy(-1.0, state) == 0.5


def test_sample_conic_refuses_a_non_finite_angle():
    spec = ck.conic_from_dynamics(-1.0, 0.5, 0.3)
    for phi in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            ck.sample_conic(spec, [phi])


def test_orbit_errors_print_plain_floats():
    oc = ORBIT[-1.0]
    traj = ck.integrate(STATE, PARAMS[-1.0], 3.0)
    with pytest.raises(DomainError, match=r"span \[0\.0, 3\.0\]$"):
        ck.phi_from_time(oc, -1.0, [0.0, 5.0], traj)
    with pytest.raises(DomainError, match=r"got nan$"):
        ck.propagate(oc, -1.0, [0.0, math.nan])


# inputs that once gave a silent answer, a bare ValueError or a numpy
# warning, and documented refusals no other test reaches: each is
# refused with DomainError
REFUSED = {
    "from_ambient of a NaN point": lambda: ck.from_ambient(-1.0, ck.AmbientPoint(0, 0, math.nan)),
    "from_ambient of an infinite point": lambda: ck.from_ambient(1.0, ck.AmbientPoint(math.inf, 0, 0)),
    "killing_fields past the antipode": lambda: ck.killing_fields(1.0, ck.PolarPoint(4.0, 0)),
    "reduce_angle of inf": lambda: ck.reduce_angle(math.inf),
    "reduce_angle of nan": lambda: ck.reduce_angle(math.nan),
    "u_closed at an infinite angle": lambda: ck.u_closed(ORBIT[1.0], math.inf),
    "u_closed at a NaN angle in an array": lambda: ck.u_closed(ORBIT[1.0], np.array([0.0, math.nan])),
    "orbit_radius at an infinite angle": lambda: ck.orbit_radius(ORBIT[1.0], 1.0, math.inf),
    "binet_residual at an infinite angle": lambda: ck.binet_residual(ORBIT[1.0], 1.0, math.inf),
    "binet_residual with a NaN kappa": lambda: ck.binet_residual(ORBIT[1.0], math.nan, 0.1),
    "time_from_u at a NaN u": lambda: ck.time_from_u(ORBIT[1.0], 1.0, math.nan, U_STATE[1.0]),
    "classify_orbit at a NaN energy": lambda: ck.classify_orbit(-1.0, 1.0, 0.5, math.nan),
    "turning_points at an infinite j": lambda: ck.turning_points(1.0, 1.0, math.inf, -0.3),
    "conic_from_dynamics with a NaN eccentricity": lambda: ck.conic_from_dynamics(1.0, 0.5, math.nan),
    "conic_from_dynamics with a negative eccentricity": lambda: ck.conic_from_dynamics(-1.0, 0.5, -0.1),
    "a ConicSpec without a periastron": lambda: ck.ConicSpec(-1.0, 2.0, 0.5),
    "a ConicSpec with an infinite size": lambda: ck.ConicSpec(-1.0, math.inf, 0.5),
    "FocalElements with a negative half separation": lambda: ck.FocalElements.two_foci(-0.1, 1.0),
    "FocalElements with a NaN half separation": lambda: ck.FocalElements.focus_line(math.nan, 1.0),
    "FocalElements with a zero half axis": lambda: ck.FocalElements.two_foci(0.1, 0.0),
    "FocalElements with an infinite half axis": lambda: ck.FocalElements.focus_line(0.1, math.inf),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_non_finite_or_out_of_chart_input_is_refused(name):
    with pytest.raises(DomainError):
        REFUSED[name]()


def test_an_overflowed_cotangent_on_the_sphere_reaches_the_finite_check():
    # the sphere's cotangent floor is -inf, so the floor test alone would
    # drop a u that overflowed to -inf as "no radius"; it must raise instead
    with pytest.raises(DomainError, match="finite, got -inf"):
        ck.turning_points(1.0, 1.0, 1e-150, 1e10)
    spec = ck.conic_from_dynamics(1.0, 1e-300, 1e300)
    with pytest.raises(DomainError, match="finite, got -inf"):
        ck.sample_conic(spec, [math.pi])
    oc = ck.OrbitConstants(ORBIT[1.0].conserved, d=1e-300, ecc=1e300, phi0=0.0, z=0.0, kappa=1.0)
    with pytest.raises(DomainError, match="finite, got -inf"):
        ck.orbit_radius(oc, 1.0, math.pi)
