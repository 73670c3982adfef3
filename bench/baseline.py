"""The ROADMAP baseline cases, reproduced as reference numbers.

These are not gated and not part of any workload; they exist so that
the benchmark's numbers can be set against the first measurements.

- ``integrate`` over 10 radial periods at tol 1e-11 with k = 1, J = 0.8,
  started at periastron: kappa = +1 and 0 at E = -0.3, kappa = -1 at
  E = -1.05.  At kappa = -1 the energy -0.3 lies above the escape
  energy -k sqrt(-kappa) = -1, so that orbit is open and has no radial
  period; E = -1.05 is bounded with T ~ 8.38.
- ``simulate --kappa 1 --k 1 --elements=-0.3,0.8,0 --t-end 200 --tol 1e-11``
  to a CSV file.

Run with ``python3 bench/run.py --baseline``.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import curvedkepler as ck
from curvedkepler import cli

INTEGRATE_CASES = ((1.0, -0.3), (0.0, -0.3), (-1.0, -1.05))
K, J, TOL = 1.0, 0.8, 1e-11
SIMULATE_ARGV = ["simulate", "--kappa", "1", "--k", "1", "--elements=-0.3,0.8,0", "--t-end", "200", "--tol", "1e-11"]


def _timed(fn, *args, repeat=3, **kwargs):
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        times.append(perf_counter() - t0)
    return out, statistics.median(times)


def measure(scratch: str) -> dict:
    out = {"integrate": [], "simulate": None}
    for kappa, e in INTEGRATE_CASES:
        params = ck.KeplerParams(kappa, K)
        r_per = ck.turning_points(kappa, K, J, e)[0]
        s = ck.sin_k(kappa, r_per)
        state = ck.PhaseState(r_per, 0.0, 0.0, J / (s * s))
        period = ck.radial_period(ck.orbit_constants(state, params), kappa)
        traj, t_int = _timed(ck.integrate, state, params, 10.0 * period, tol=TOL, dense=False)

        def conserved_rows():
            for row in traj.states:
                ck.ConservedSet.from_state(ck.PhaseState(*row), params)

        _, t_rows = _timed(conserved_rows)
        out["integrate"].append(
            {
                "kappa": kappa, "k": K, "J": J, "E": e, "tol": TOL,
                "radial_period": period,
                "steps": len(traj) - 1,
                "integrate_s": t_int,
                "step_us": t_int / (len(traj) - 1) * 1e6,
                "conserved_rows_s": t_rows,
            }
        )
    path = os.path.join(scratch, "baseline-simulate.csv")
    t0 = perf_counter()
    code = cli.main(SIMULATE_ARGV + ["--out", path])
    out["simulate"] = {
        "argv": SIMULATE_ARGV,
        "exit_code": code,
        "wall_s": perf_counter() - t0,
        "bytes": os.path.getsize(path),
    }
    return out
