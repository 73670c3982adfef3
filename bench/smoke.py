"""Smoke tests of the benchmark itself, every workload at a tiny size.

    python3 -m pytest -q bench/smoke.py

The file name keeps the repository's own test run from collecting it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
from tracing import NullTracer

workloads = run.load_package()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0.0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


def test_every_end_to_end_metric_is_printed_with_its_unit_for_every_workload():
    result = _result(_bench("--workload", "all", "--seed", "3", "--seconds", "0.5", "--trace", "0"))
    assert set(result["metrics"]) == set(run.WORKLOAD_NAMES)
    for metrics in result["metrics"].values():
        _assert_metrics({**result, "metrics": metrics}, SPEC["end_to_end"])


def test_every_per_layer_metric_is_printed_with_its_unit():
    # a traced run measures every layer on fixed slices of all workloads
    result = _result(_bench("--workload", "survey", "--seed", "3", "--seconds", "0.5", "--trace", "1"))
    _assert_metrics(result, SPEC["per_layer"])


def _corrupt_simulate(job, exit_code):
    """Nudge r in the final trajectory row of the written file."""
    text = Path(job.path).read_text()
    if job.output == "json":
        doc = json.loads(text)
        doc["rows"][-1][1] *= 1.0 + 1e-9
        text = json.dumps(doc)
    else:
        lines = text.splitlines()
        last = max(i for i, line in enumerate(lines) if not line.startswith("#"))
        fields = lines[last].split(",")
        fields[1] = repr(float(fields[1]) * (1.0 + 1e-9))
        lines[last] = ",".join(fields)
        text = "\n".join(lines) + "\n"
    Path(job.path).write_text(text)
    return exit_code


def _corrupt_survey(job, outs):
    outs[-1].roots = [outs[-1].roots[0] * (1.0 + 1e-3)] + outs[-1].roots[1:]
    return outs


def _corrupt_ephemeris(job, out):
    out.samples = out.samples.copy()
    out.samples[:, 0] *= 1.0 + 1e-4
    return out


CORRUPTIONS = {"simulate": _corrupt_simulate, "survey": _corrupt_survey, "ephemeris": _corrupt_ephemeris}


class _Corrupted:
    """A workload whose job outputs are corrupted before their check."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt, self.name = wl, corrupt, wl.name

    def job(self, i):
        return self.wl.job(i)

    def run(self, job, tr):
        return self.corrupt(job, self.wl.run(job, tr))

    def check(self, job, out, tr):
        return self.wl.check(job, out, tr)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_a_corrupted_output_counts_as_a_failure(workload, tmp_path):
    wl = workloads.make(workload, 5, str(tmp_path))
    clean = run.run_slice(wl, NullTracer(), 2)
    assert clean.failures == []
    bad = run.run_slice(_Corrupted(wl, CORRUPTIONS[workload]), NullTracer(), 2)
    assert len(bad.failures) == 2
    assert all("CheckFailed" in msg for msg in bad.failures)


def test_a_directory_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("_scratch", "__pycache__"))
    proc = _bench("--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_reference_seconds_scale_each_job_by_the_reference_loop_around_it():
    nominal = run.REF_NOMINAL_S
    assert run.normalize([0.1, 0.2], [nominal, nominal]) == pytest.approx([0.1, 0.2])
    # a host running everything at half speed reads the same in reference seconds
    assert run.normalize([0.2, 0.4], [2 * nominal, 2 * nominal]) == pytest.approx([0.1, 0.2])
    assert run.reference_time() > 0.0
