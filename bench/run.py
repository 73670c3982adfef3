"""Benchmark of curvedkepler: one workload per run, closed loop, one client.

    python3 bench/run.py --workload {simulate,survey,ephemeris,all} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --baseline     # ungated reference cases, see baseline.py

Run it from the repository root.  The package is imported from ``src/``
of the same checkout, never from an installed copy.

``--trace 0`` runs jobs of the workload until their summed wall time
reaches ``--seconds`` and prints the end-to-end metrics.  Times in those
metrics are in reference seconds (see ``reference_time``): each wall
time is scaled by how fast a fixed reference loop ran around it, so
that the share of the host that neighbours take drops out; the raw
wall times are printed beside them.  ``--trace 1``
prints the per-layer metrics instead: it runs a fixed, seeded slice of
every workload with spans around each call the benchmark makes into a
module (see ``tracing.py``), times a mix of scalar ktrig calls, and then
runs each job of the chosen workload twice, untraced and traced, for
``--seconds`` in all, to measure the tracing overhead and the self time
per layer.

Every job's output is checked outside the timed region; a job fails on
an unexpected exception, an unexpected exit code or a failed check.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One thread for numpy's BLAS/OpenMP pools, set before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = HERE / "_scratch"

WORKLOAD_NAMES = ("simulate", "survey", "ephemeris")
# fresh interpreters whose set-up time is measured; setup_s is their median
SETUP_PROBES = 5
# The tail is p90 once 100 jobs ran (10 beyond it); fewer jobs fall back
# to the highest percentile that still has 10 beyond it.  Fixing it keeps
# the metric one quantile when a faster program completes more jobs.
TAIL_PERCENTILE = 90.0
# Fixed slices for the per-layer metrics: one full block of simulate
# cells, eight blocks of survey cells, one block of ephemeris cells.
SLICE_JOBS = {"simulate": 26, "survey": 2, "ephemeris": 5}
# batches stop starting jobs after this much wall time, so a run ends
# well inside three minutes even when checks are slow
DEADLINE_S = 150.0
# Reference loop: its wall time on an unloaded host, the number of its
# runs around each set-up probe, and the jobs on either side of a job
# whose reference runs scale that job's time.
REF_NOMINAL_S = 4e-4
SETUP_REFS = 10
REF_WINDOW = 10


def reference_time() -> float:
    """Wall time of one run of a fixed pure-Python float loop.

    The loop uses only ``math``, never the package, so a change to the
    package leaves it alone.  On a shared host the wall time of the same
    work drifts by a third or more from minute to minute as neighbours
    come and go; a job's time divided by the reference time measured
    around it, times REF_NOMINAL_S, is that job's time on a host that
    runs the loop in REF_NOMINAL_S: its time in "reference seconds".
    """
    t0 = perf_counter()
    x = 0.0
    for i in range(1, 1200):
        t = i * 1e-3
        x += math.sin(t) * math.sqrt(t) / (1.0 + t * t) + math.atan(t)
    return perf_counter() - t0


def normalize(times, refs) -> list[float]:
    """Each time scaled by REF_NOMINAL_S over the median reference time
    of the jobs within REF_WINDOW of it; ``refs[i]`` ran just before job i."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1])
        out.append(t * REF_NOMINAL_S / local)
    return out


def load_package():
    """Import curvedkepler from this checkout's src/ and the bench modules."""
    sys.path.insert(0, str(SRC))
    import curvedkepler

    origin = Path(curvedkepler.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"curvedkepler was imported from {origin}, not from {SRC}")
    import workloads

    return workloads


@dataclass
class Batch:
    """Timed jobs of one workload: wall times, failures and check facts."""

    ids: list = field(default_factory=list)
    times: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    facts: list = field(default_factory=list)
    refs: list = field(default_factory=list)


def attempt(wl, i: int, tracer, batch: Batch, prefix: str = "") -> float:
    """Run job i of ``wl``, time it, check it and record it in ``batch``."""
    job = wl.job(i)
    job_id = f"{prefix}{wl.name}:{i}"
    dt = 0.0
    try:
        with tracer.job(job_id):
            t0 = perf_counter()
            try:
                out = wl.run(job, tracer)
            finally:
                dt = perf_counter() - t0
        with tracer.tag(job_id):
            batch.facts.append(wl.check(job, out, tracer))
    except Exception as exc:  # a failed job is counted, the run goes on
        batch.failures.append(f"{job_id}: {type(exc).__name__}: {exc}")
    batch.ids.append(job_id)
    batch.times.append(dt)
    return dt


def run_batch(wl, tracer, seconds, deadline) -> Batch:
    """Closed loop: jobs 0, 1, ... until their summed time reaches ``seconds``."""
    batch = Batch()
    measured = 0.0
    i = 0
    while measured < seconds and perf_counter() < deadline:
        batch.refs.append(reference_time())
        measured += attempt(wl, i, tracer, batch)
        i += 1
    return batch


def run_slice(wl, tracer, jobs: int) -> Batch:
    """Exactly jobs 0 .. jobs-1, so counts over the slice repeat for a seed."""
    batch = Batch()
    for i in range(jobs):
        attempt(wl, i, tracer, batch, prefix="slice-")
    return batch


def run_paired(wl, tracer, seconds, deadline) -> tuple[Batch, Batch]:
    """Each job once untraced and once traced, until ``seconds`` of job time.

    Pairing gives both sides the same inputs and the same machine state,
    so their difference is the tracing overhead and not drift; which side
    runs first alternates, so neither always finds the caches warm.
    """
    plain, traced = Batch(), Batch()
    sides = [(NullTracer(), plain), (tracer, traced)]
    measured = 0.0
    i = 0
    while measured < seconds and perf_counter() < deadline:
        for side_tracer, batch in sides:
            measured += attempt(wl, i, side_tracer, batch)
        sides.reverse()
        i += 1
    return plain, traced


def tail(times) -> tuple[float, float]:
    """(percentile, wall time) of the tail; see TAIL_PERCENTILE."""
    ts = sorted(times)
    n = len(ts)
    if n >= 100:
        p = TAIL_PERCENTILE
    elif n > 10:
        p = 100.0 * (n - 10) / n
    else:
        p = 100.0
    return p, ts[max(0, math.ceil(p / 100.0 * n) - 1)]


def setup_times(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up time, reference time) of SETUP_PROBES fresh interpreters,
    one after another."""
    out = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup, ref = map(float, proc.stdout.split()[-2:])
        out.append((setup, ref))
    return out


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Import of curvedkepler plus generation of the first job, and the
    median reference time of SETUP_REFS runs before and after it."""
    refs = [reference_time() for _ in range(SETUP_REFS // 2)]
    t0 = perf_counter()
    workloads = load_package()
    workloads.make(workload, seed, str(SCRATCH)).job(0)
    setup = perf_counter() - t0
    refs += [reference_time() for _ in range(SETUP_REFS - SETUP_REFS // 2)]
    return setup, statistics.median(refs)


def end_to_end(batch: Batch, setup: list[tuple[float, float]]):
    times = normalize(batch.times, batch.refs)
    p, t_tail = tail(times)
    n = len(times)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(s * REF_NOMINAL_S / ref for s, ref in setup)
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (t_tail, "s"),
        "jobs_per_s": (n / sum(times), "1/s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    _, raw_tail = tail(batch.times)
    notes = {
        "setup_s": (
            f"median of {len(setup)} fresh interpreters; raw wall median "
            f"{statistics.median(s for s, _ in setup):.6g} s"
        ),
        "job_p50_s": f"n={n}; raw wall p50 {statistics.median(batch.times):.6g} s",
        "job_tail_s": f"p{p:g}, {n - math.ceil(p / 100.0 * n)} jobs beyond it, n={n}; raw wall {raw_tail:.6g} s",
        "jobs_per_s": f"{n} jobs in {sum(batch.times):.3f} s of wall job time, {sum(times):.3f} reference s",
        "reference": (
            f"reference loop median {statistics.median(batch.refs) * 1e6:.1f} us "
            f"(nominal {REF_NOMINAL_S * 1e6:.0f} us)"
        ),
    }
    return metrics, notes


def per_layer(tr, slices, ktrig_ns, plain: Batch, traced: Batch):
    """Per-layer metrics from the traced slices and the overhead batches."""
    sim, sur, eph = slices["simulate"], slices["survey"], slices["ephemeris"]

    def durations(name, batch):
        return tr.durations(name, set(batch.ids))

    def med(name, batch, scale):
        return statistics.median(durations(name, batch)) * scale

    sim_facts = sim.facts
    rows = sum(f["rows"] for f in sim_facts)
    steps = sum(f["steps"] for f in sim_facts)
    chart_rows = sum(f["chart_rows"] for f in sim_facts)
    integrate_s = sum(durations("dynamics.integrate", sim))
    cli_only_s = (
        sum(durations("cli.main", sim))
        - integrate_s
        - sum(durations("effective_potential.turning_points", sim))
    )
    queries = sum(f["queries"] for f in eph.facts)
    p50_plain = statistics.median(plain.times)
    p50_traced = statistics.median(traced.times)
    self_time = tr.self_time_by_layer(set(traced.ids))

    metrics = {
        "ktrig.call_ns": (ktrig_ns, "ns"),
        "geometry.chart_point_us": (sum(durations("geometry.chart_points", sim)) / chart_rows * 1e6, "us"),
        "dynamics.integrate_s": (med("dynamics.integrate", sim, 1.0), "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.step_us": (integrate_s / steps * 1e6, "us"),
        "dynamics.conserved_row_us": (sum(durations("dynamics.conserved_rows", sim)) / rows * 1e6, "us"),
        "dynamics.max_rel_drift": (max(f["drift"] for f in sim_facts if f["drift"] is not None), "ratio"),
        "dynamics.dense_integrate_s": (med("dynamics.integrate", eph, 1.0), "s"),
        "dynamics.sample_query_us": (sum(durations("dynamics.sample", eph)) / queries * 1e6, "us"),
        "dynamics.first_crossing_ms": (med("dynamics.first_crossing", eph, 1e3), "ms"),
        "effective_potential.turning_points_us": (med("effective_potential.turning_points", sur, 1e6), "us"),
        "effective_potential.classify_orbit_us": (med("effective_potential.classify_orbit", sur, 1e6), "us"),
        "orbit.orbit_constants_us": (med("orbit.orbit_constants", sur, 1e6), "us"),
        "orbit.radial_period_us": (med("orbit.radial_period", sur, 1e6), "us"),
        "orbit.time_from_u_us": (med("orbit.time_from_u", sur, 1e6), "us"),
        "orbit.phi_from_time_ms": (med("orbit.phi_from_time", eph, 1e3), "ms"),
        "conics.conic_from_dynamics_us": (med("conics.conic_from_dynamics", sur, 1e6), "us"),
        "conics.classify_conic_us": (med("conics.classify_conic", sur, 1e6), "us"),
        "conics.periastron_family_us": (med("conics.periastron_family", sur, 1e6), "us"),
        "cli.rows": (rows, "count"),
        "cli.bytes_out": (sum(f["bytes"] for f in sim_facts), "bytes"),
        "cli.row_us": (cli_only_s / rows * 1e6, "us"),
        "trace.overhead_s": (p50_traced - p50_plain, "s"),
        "trace.overhead_frac": ((p50_traced - p50_plain) / p50_plain, "ratio"),
    }
    for layer, seconds in self_time.items():
        metrics[f"{layer}.self_s"] = (seconds / len(traced.times), "s")
    notes = {
        "dynamics.steps": f"accepted steps over the first {SLICE_JOBS['simulate']} simulate jobs",
        "cli.rows": f"rows over the same jobs, {chart_rows} of them projected to a chart",
        "trace.overhead_s": (
            f"traced p50 {p50_traced:.6g} s (n={len(traced.times)}) minus "
            f"untraced p50 {p50_plain:.6g} s (n={len(plain.times)})"
        ),
        "trace.spans": f"{len(tr.spans)} spans written to {SCRATCH.name}/",
        "dynamics.rejected_steps": "absent: not visible through the public API",
        "dynamics.rhs_evaluations": "absent: not visible through the public API",
    }
    return metrics, notes


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (batches, metrics, notes)."""
    deadline = perf_counter() + DEADLINE_S
    setup = setup_times(workload, seed)
    workloads = load_package()
    SCRATCH.mkdir(exist_ok=True)
    scratch = str(SCRATCH)
    if not trace:
        batch = run_batch(workloads.make(workload, seed, scratch), NullTracer(), seconds, deadline)
        return [batch], *end_to_end(batch, setup)

    tr = Tracer()
    slices = {name: run_slice(workloads.make(name, seed, scratch), tr, n) for name, n in SLICE_JOBS.items()}
    ktrig_ns = workloads.ktrig_call_ns(seed)
    plain, traced = run_paired(workloads.make(workload, seed, scratch), tr, seconds, deadline)
    tr.write(SCRATCH / f"trace-{workload}-seed{seed}.json")
    metrics, notes = per_layer(tr, slices, ktrig_ns, plain, traced)
    return [*slices.values(), plain, traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="print the ungated reference cases")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "curvedkepler" / "__init__.py").is_file():
        print(f"error: no curvedkepler package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.baseline:
        load_package()
        import baseline

        SCRATCH.mkdir(exist_ok=True)
        print(json.dumps(baseline.measure(str(SCRATCH)), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(*map(repr, setup_probe(args.workload, args.seed)))
        return 0
    if not (math.isfinite(args.seconds) and args.seconds > 0.0):
        parser.error("--seconds must be positive")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted, failures, results = 0, [], {}
    for name in names:
        batches, metrics, notes = measure(name, args.seed, args.seconds, bool(args.trace))
        n = sum(len(b.times) for b in batches)
        failed = [msg for b in batches for msg in b.failures]
        for msg in failed[:10]:
            print(f"FAILED {msg}", file=sys.stderr)
        print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        for metric, (value, unit) in metrics.items():
            note = notes.get(metric)
            print(f"  {metric:40s} {value:<14.6g} {unit:6s}" + (f"  ({note})" if note else ""))
        for metric, note in notes.items():
            if metric not in metrics:
                print(f"  {metric:40s} {note}")
        print(f"  {'failed_frac':40s} {len(failed) / n:<14.6g} ratio   ({len(failed)}/{n})")
        attempted += n
        failures += failed
        results[name] = {metric: {"value": v, "unit": u} for metric, (v, u) in metrics.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        # with --workload all, metrics are grouped by workload
        "metrics": results[names[0]] if len(names) == 1 else results,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
