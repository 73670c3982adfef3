"""Closed forms the benchmark generates inputs from and checks outputs against.

Everything here uses the standard library and numpy only, never
``curvedkepler``: a defect in the package cannot hide in its own check,
and generating a workload costs no package time.

Notation follows the package: ``u = cot_k(r)``, the orbit is the conic
``u(theta) = (1 + ecc cos theta) / d`` with ``d = j**2 / k`` and
``theta = phi - phi0``, and the sweep law is ``dphi/dt = j (u**2 + kappa)``.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np


def sin_k(kappa: float, r: float) -> float:
    if kappa > 0.0:
        c = math.sqrt(kappa)
        return math.sin(c * r) / c
    if kappa < 0.0:
        c = math.sqrt(-kappa)
        return math.sinh(c * r) / c
    return r


def cos_k(kappa: float, r: float) -> float:
    if kappa > 0.0:
        return math.cos(math.sqrt(kappa) * r)
    if kappa < 0.0:
        return math.cosh(math.sqrt(-kappa) * r)
    return 1.0


def cot_k(kappa: float, r: float) -> float:
    return cos_k(kappa, r) / sin_k(kappa, r)


def cot_k_array(kappa: float, r: np.ndarray) -> np.ndarray:
    if kappa > 0.0:
        c = math.sqrt(kappa)
        return c / np.tan(c * r)
    if kappa < 0.0:
        c = math.sqrt(-kappa)
        return c / np.tanh(c * r)
    return 1.0 / r


def acot_k(kappa: float, u: float) -> float:
    """Radius on the physical branch with cot_k(r) = u."""
    if kappa > 0.0:
        c = math.sqrt(kappa)
        return math.atan2(1.0, u / c) / c
    if kappa < 0.0:
        c = math.sqrt(-kappa)
        return math.atanh(c / u) / c
    return 1.0 / u


def w_eff(kappa: float, k: float, j: float, r: float) -> float:
    """Effective radial potential -k u + (j**2/2)(u**2 + kappa)."""
    u = cot_k(kappa, r)
    return -k * u + 0.5 * j * j * (u * u + kappa)


def energy(kappa: float, k: float, j: float, ecc: float) -> float:
    """Energy of the orbit with angular momentum j and eccentricity ecc."""
    return 0.5 * kappa * j * j + k * k * (ecc * ecc - 1.0) / (2.0 * j * j)


def eccentricity(kappa: float, k: float, j: float, e: float) -> float:
    """Inverse of :func:`energy`: sqrt(1 + z), z = 2 j**2 e_p / k**2."""
    e_p = e - 0.5 * kappa * j * j
    return math.sqrt(max(0.0, 1.0 + 2.0 * j * j * e_p / (k * k)))


def escape_landmarks(kappa: float, k: float, j: float) -> tuple[float, float]:
    """Eccentricities (lo, hi) of the horoellipse and horohyperbola.

    On the plane and the sphere both are 1 (the parabola, the equator).
    """
    t = math.sqrt(max(0.0, -kappa)) * j * j / k
    return 1.0 - t, 1.0 + t


def radial_period(kappa: float, k: float, j: float, ecc: float) -> float:
    """Radial period of a bounded orbit, in closed form.

    T = (d**2/|j|) * integral over one turn of dtheta / ((1 + ecc cos)**2 + kappa d**2).
    Partial fractions in a = d sqrt(-kappa) (imaginary on the sphere)
    reduce it to 2 pi / sqrt(c**2 - ecc**2) integrals.
    """
    d = j * j / k
    scale = d * d / abs(j)
    if kappa == 0.0:
        return scale * 2.0 * math.pi / (1.0 - ecc * ecc) ** 1.5

    def turn(c):
        # integral of dtheta / (c + ecc cos theta) over one turn; the
        # product of principal roots keeps the branch cut on [-ecc, ecc]
        return 2.0 * math.pi / (cmath.sqrt(c - ecc) * cmath.sqrt(c + ecc))

    if kappa < 0.0:
        a = d * math.sqrt(-kappa)
        return scale * ((turn(1.0 - a) - turn(1.0 + a)) / (2.0 * a)).real
    b = d * math.sqrt(kappa)
    return scale * turn(complex(1.0, -b)).imag / b


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Nodes and weights on [-1, 1]; read-only, shared by every caller."""
    return np.polynomial.legendre.leggauss(n)


def time_from_periastron(kappa: float, k: float, j: float, ecc: float, u_end: float) -> float:
    """Time from periastron until u falls to u_end, by Gauss-Legendre in theta.

    The integrand d**2 / (|j| ((1 + ecc cos)**2 + kappa d**2)) is smooth
    on [0, theta_end] while u stays above the infinity asymptote, so the
    node count doubles until two estimates agree to 1e-13.
    """
    d = j * j / k
    theta_end = math.acos(max(-1.0, min(1.0, (d * u_end - 1.0) / ecc)))
    prev = None
    for n in (32, 64, 128, 256, 512, 1024, 2048, 4096):
        x, w = _gauss_legendre(n)
        theta = 0.5 * theta_end * (x + 1.0)
        f = d * d / (abs(j) * ((1.0 + ecc * np.cos(theta)) ** 2 + kappa * d * d))
        est = 0.5 * theta_end * float(np.dot(w, f))
        if prev is not None and abs(est - prev) <= 1e-13 * abs(est):
            return est
        prev = est
    raise ArithmeticError(f"time quadrature did not converge (last {prev!r})")


def chart(name: str, kappa: float, r: float, phi: float) -> tuple[float, ...]:
    """Chart columns the CLI appends to each trajectory row."""
    if name == "polar":
        return (r * math.cos(phi), r * math.sin(phi))
    if name == "ambient":
        s = sin_k(kappa, r)
        z = 0.0 if kappa == 0.0 else cos_k(kappa, r) / math.sqrt(abs(kappa))
        return (s * math.cos(phi), s * math.sin(phi), z)
    rho = math.tanh(0.5 * math.sqrt(-kappa) * r)
    return (rho * math.cos(phi), rho * math.sin(phi))
