"""The pinned outputs, checked in process, and their one home: the sha256
of the bytes of seven CLI runs and of the dense ``sample``, the step
counts and simulate bytes of ``bench/run.py --baseline`` with the step-size
controller's counts on its three orbits, and the digests
of integrations that the CLI runs do not reach.  A change that moves one
of them records old -> new and why."""

import hashlib
import importlib.util
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from curvedkepler.cli import EXIT_OK, main
from curvedkepler.dynamics import KeplerParams, PhaseState, integrate, integrate_separable
from curvedkepler.effective_potential import turning_points
from curvedkepler.ktrig import sin_k
from curvedkepler.orbit import orbit_constants, radial_period

# argv of each pinned run (its --out added), then the sha256 of its output
PINNED_RUNS = {
    "base.csv": (
        "simulate --kappa 1 --k 1 --elements=-0.3,0.8,0 --t-end 200 --tol 1e-11",
        "31b397bd8d76dbc347dddbd1d61448d8b4cd7e1ca65b32949ae350808c94cff8",
    ),
    "base.json": (
        "simulate --kappa -1 --k 1 --elements=-1.05,0.8,0 --t-end 20 --tol 1e-11"
        " --chart poincare_disk --output json",
        "f5a51e3e9695d4f202df9c1e01eda8951824f742b11cb285a815f6d9206aecd0",
    ),
    "classify_bounded.json": (
        "classify --kappa -1 --k 1 --J 0.8 --E -1.05",
        "e3c3ee6fa58b8aa2f5c4e812d4b19986bb553320f3722b36fa119c1094b9ad9e",
    ),
    "classify_colatus.json": (
        "classify --kappa -1 --k 1 --J 1.5 --E 0.5",
        "4bc7e3d96c16c228538c98f8b3d658732a0e0eefb3798f1440727fc1c0b85e65",
    ),
    "classify_parabola.json": (
        "classify --kappa 0 --k 1.4770787061859296 --J 0.13977197546947992 --E=-5.223186524585646e-09",
        "63c4333c1c7ddfed17729e9298cde6df3433c970fc6a08264052ad94400b52d9",
    ),
    "conic.json": (
        "conic --kappa -1 --periastron 0.6 --output json",
        "8e4a031c19e0b588c34299cd122d1e3cfa0bbe8f4439ea33b1ccff33fafd7fe4",
    ),
    "potential_scan.txt": (
        "potential-scan --kappa -1 --k 1 --J 0.8",
        "7e1326c4f397080d4f574d74954ba62bb407c3d9cb7f6d38f4107b3a43a5a9bb",
    ),
}

SAMPLE_DIGEST = "63bb3cd15dc3c1c0e3f8b42d8b363b4f908f3868d0a05cd6b54b08c2f819501c"

#: steps of the three reference orbits, and bytes of the reference simulate run
BASELINE_STEPS = [551, 1066, 719]
BASELINE_BYTES = 944607
#: (accepted, rejected_error, rhs_evaluations) of the step-size controller on the three reference orbits
BASELINE_COUNTS = [(551, 0, 6614), (1066, 8, 12890), (719, 18, 8846)]

BASELINE = Path(__file__).resolve().parent.parent / "bench" / "baseline.py"


def _baseline():
    """bench/baseline.py, loaded as it is."""
    spec = importlib.util.spec_from_file_location("baseline", BASELINE)
    baseline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(baseline)
    return baseline


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pinned_run_writes_its_pinned_bytes(tmp_path, name):
    argv, digest = PINNED_RUNS[name]
    out = tmp_path / name
    assert main([*shlex.split(argv), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_dense_sample_has_its_pinned_digest():
    traj = integrate(PhaseState(1.0, 0.0, 0.0, 1.0), KeplerParams(-1, 1), 20.0, tol=1e-11, dense=True)
    digest = hashlib.sha256(traj.sample(np.linspace(0, 20, 4001)).tobytes()).hexdigest()
    assert digest == SAMPLE_DIGEST


def test_baseline_has_its_pinned_step_counts_and_bytes(tmp_path):
    # bench/baseline.py integrates each orbit over ten radial_period, so a
    # move of the period moves the step counts
    doc = _baseline().measure(str(tmp_path))
    assert [case["steps"] for case in doc["integrate"]] == BASELINE_STEPS
    assert doc["simulate"]["exit_code"] == EXIT_OK
    assert doc["simulate"]["bytes"] == BASELINE_BYTES


def test_baseline_orbits_have_their_pinned_controller_counts():
    # the reference orbits of bench/baseline.py, started at periastron as it
    # starts them; the counts do not depend on timing, unlike its seconds
    baseline = _baseline()
    counts = []
    for kappa, e in baseline.INTEGRATE_CASES:
        params = KeplerParams(kappa, baseline.K)
        r_per = turning_points(kappa, baseline.K, baseline.J, e)[0]
        state = PhaseState(r_per, 0.0, 0.0, baseline.J / sin_k(kappa, r_per) ** 2)
        period = radial_period(orbit_constants(state, params), kappa)
        stats = integrate(state, params, 10.0 * period, tol=baseline.TOL, dense=False).stats
        counts.append((stats.accepted, stats.rejected_error, stats.rhs_evaluations))
    assert counts == BASELINE_COUNTS


# Integrations the CLI pins do not reach, in two parts.  The orbits: a bounded
# orbit on each curvature regime and on the two nearly flat curvatures, where
# each periastron (r near 0.087) dips into the series band |kappa r**2| < 1e-8
# of sin_k, cos_k, and one separable orbit, which the integrator takes through
# its call-flow kernel.  The falls: from rest on the sphere and on the
# hyperbolic plane, whose last steps run through that band until the fall law
# ends them in the collision event.
ORBIT_CASES = [(kappa, PhaseState(1.0, 0.0, 0.1, 0.4)) for kappa in (1.0, 1e-6, 0.0, -1e-6, -1.0)]
FALL_CASES = [(kappa, PhaseState(0.5, 0.0, 0.0, 0.0)) for kappa in (1.0, -1.0)]
ORBIT_DIGEST = "0adda84fa7cff6ea3e8741fed73e3b7bce48ade17fb5a4791c8caef6004020db"
FALL_DIGEST = "cc9e851e39e297b01ab2f35c9bf1bec2156aa009bb945868270ba1800ffde5c5"


def _separable(dense, tol):
    # the Kepler potential plus G(phi)/sin_k(r)**2 with G = 0.05 cos(phi)**2, on kappa = -1
    def f(r):
        return -1.0 / math.tanh(r)

    def df(r):
        return 1.0 / math.sinh(r) ** 2

    def g(phi):
        return 0.05 * math.cos(phi) ** 2

    def dg(phi):
        return -0.05 * math.sin(2.0 * phi)

    return integrate_separable(-1.0, PhaseState(1.0, 0.0, 0.1, 0.5), f, df, g, dg, 10.0, tol=tol, dense=dense)


def _digest(cases, separable):
    """sha256 over times, states, invariants, stats, event and the dense (h, d)
    of each case, plain at tol 1e-11 and dense at 1e-9, and of the events."""
    digest, events = hashlib.sha256(), []
    for dense, tol in ((False, 1e-11), (True, 1e-9)):
        runs = [integrate(state, KeplerParams(kappa, 1.0), 20.0, tol=tol, dense=dense) for kappa, state in cases]
        for traj in [*runs, *([_separable(dense, tol)] if separable else [])]:
            for array in (traj.times, traj.states, traj.invariants, *(traj._dense or ())):
                digest.update(np.ascontiguousarray(array).tobytes())
            digest.update(repr((traj.stats, traj.event, traj.event_time)).encode())
            events.append(traj.event)
    return digest.hexdigest(), events


def test_orbit_integrations_have_their_pinned_digest():
    assert _digest(ORBIT_CASES, True) == (ORBIT_DIGEST, [None] * 12)


def test_fall_integrations_have_their_pinned_digest():
    assert _digest(FALL_CASES, False) == (FALL_DIGEST, ["collision"] * 4)
