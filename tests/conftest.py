"""Shared fixtures: seeded random generators, state samplers and a guard
that keeps a global trace hook out of pure mpmath work."""

import math
import sys
from contextlib import contextmanager

import numpy as np
import pytest

SEED = 42


@pytest.fixture(autouse=True)
def _fresh_orbit_memo():
    """Start each test with an empty ``_orbit`` memo, so that no test reads
    an analysis another made, perhaps under a patched callee."""
    from curvedkepler.effective_potential import _orbit

    _orbit.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@contextmanager
def untraced():
    """Suspend a global trace hook, such as the statement trace's, around
    pure mpmath work.  The hook runs on every Python call inside mp.quad
    where the package runs no statement of its own."""
    saved = sys.gettrace()
    sys.settrace(None)
    try:
        yield
    finally:
        sys.settrace(saved)


def random_states(kappa, n, rng, r_lo=0.1, v_max=3.0, r_hi=None):
    """Random phase states with r in [0.1, 0.9*range] and bounded speeds.

    For kappa <= 0 the radial range is open-ended; 5.0 stands in for
    0.9*range there unless r_hi says otherwise.
    """
    from curvedkepler.dynamics import PhaseState

    if r_hi is None:
        r_hi = 0.9 * math.pi / math.sqrt(kappa) if kappa > 0 else 5.0
    elif kappa > 0:
        r_hi = min(r_hi, 0.9 * math.pi / math.sqrt(kappa))
    out = []
    for _ in range(n):
        r = rng.uniform(r_lo, r_hi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        v_r = rng.uniform(-v_max, v_max)
        v_phi = rng.uniform(-v_max, v_max)
        out.append(PhaseState(r, phi, v_r, v_phi))
    return out


def bounded_orbit_elements(kappa, k, rng, ecc_lo=0.05, ecc_hi=0.8):
    """Random (j, ecc, energy) of a bounded noncircular orbit."""
    j = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    if kappa < 0:
        # stay safely inside the bounded class: ecc < 1 - sqrt(-kappa) j^2/k
        top = 1.0 - math.sqrt(-kappa) * j * j / k
        while top <= ecc_lo:
            j = rng.uniform(0.3, 0.9) * math.copysign(1.0, j)
            top = 1.0 - math.sqrt(-kappa) * j * j / k
        ecc = rng.uniform(ecc_lo, min(ecc_hi, 0.9 * top))
    else:
        ecc = rng.uniform(ecc_lo, ecc_hi)
    e_p = (ecc * ecc - 1.0) * k * k / (2.0 * j * j)
    energy = e_p + 0.5 * kappa * j * j
    return j, ecc, energy
