"""The pinned outputs, checked in process, and their one home: the sha256
of the bytes of seven CLI runs and of the dense ``sample``, the step
counts and simulate bytes of ``bench/run.py --baseline``, and the digests
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

# argv of each pinned run (its --out added), then the sha256 of its output
PINNED_RUNS = {
    "base.csv": (
        "simulate --kappa 1 --k 1 --elements=-0.3,0.8,0 --t-end 200 --tol 1e-11",
        "98ad8f963d47589b4bda5301df2197e6f177c3ca138047be0836b9e79aac6fc1",
    ),
    "base.json": (
        "simulate --kappa -1 --k 1 --elements=-1.05,0.8,0 --t-end 20 --tol 1e-11"
        " --chart poincare_disk --output json",
        "3787805f9b959413830707b544f7004284be0404ef1259d8fce7c83bf0732fe9",
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

SAMPLE_DIGEST = "3253ff2dd4e9f75a465d28764f6431dfdb812fe871828e336dea45e6a53734c6"

#: steps of the three reference orbits, and bytes of the reference simulate run
BASELINE_STEPS = [543, 1045, 699]
BASELINE_BYTES = 932145

BASELINE = Path(__file__).resolve().parent.parent / "bench" / "baseline.py"


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
    # bench/baseline.py, loaded as it is, integrates each orbit over ten
    # radial_period, so a move of the period moves the step counts
    spec = importlib.util.spec_from_file_location("baseline", BASELINE)
    baseline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(baseline)
    doc = baseline.measure(str(tmp_path))
    assert [case["steps"] for case in doc["integrate"]] == BASELINE_STEPS
    assert doc["simulate"]["exit_code"] == EXIT_OK
    assert doc["simulate"]["bytes"] == BASELINE_BYTES


# Integrations the CLI pins do not reach, in two parts.  The orbits: a bounded
# orbit on each curvature regime and on the two nearly flat curvatures, where
# each periastron (r near 0.087) dips into the series band |kappa r**2| < 1e-8
# of sin_k, cos_k, and one separable orbit, which the integrator takes through
# its call-flow kernel.  The falls: from rest on the sphere and on the
# hyperbolic plane, whose last steps run through that band until the fall law
# ends them in the collision event.
ORBIT_CASES = [(kappa, PhaseState(1.0, 0.0, 0.1, 0.4)) for kappa in (1.0, 1e-6, 0.0, -1e-6, -1.0)]
FALL_CASES = [(kappa, PhaseState(0.5, 0.0, 0.0, 0.0)) for kappa in (1.0, -1.0)]
ORBIT_DIGEST = "7129f5cc92baec8b579c7382511cb96df129fbfff0ba2278754020eb26606351"
FALL_DIGEST = "d1286b4cf16daf5dca4fa8933328c11a2a8cf02c8c221b11ec703a96df94af13"


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
