"""vaclab benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 bench/run.py --workload {anchor,sweep,verify} --seed N
                         --seconds S --trace {0,1}

Run from the repository root.  Every repetition runs the workload's
`vaclab` CLI call in a fresh interpreter (``bench/rep.py``) on the sources
under ``src/``; its outputs go to ``bench/out/<workload>/`` and are checked
by ``bench/checks.py``.

``--trace 0`` repeats the workload while another repetition still fits in
``--seconds``, then samples set-up alone until it has three samples, and
reports the medians of ``wall_s``, ``setup_s``, ``cpu_s`` and
``peak_rss_mb``.  ``--trace 1`` runs a traced, an untraced and a traced
repetition and reports the per-layer metrics of the first traced one; it
fails when a boundary the workload must cross records no call, or when an
exact count differs between the two traced repetitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import STATUS, check_anchor, check_sweep, check_verify
from tracer import INTEGRATORS
from workloads import VERIFY_CHECKS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170.0         # every run must end within 180 s
MIN_SETUP_SAMPLES = 3

# Boundaries each workload must cross; a traced run without a call fails.
REQUIRED = {
    "anchor": (
        "runio.run", "correction.solve", "correction.h_at", "correction.h_t_at",
        "radial.evolve", "radial.rhs", "radial.pressure", "radial.damping",
        "radial.wave_coefficient", "radial.step_cap", "radial.reconstruct_physical",
        "radial.reconstructed_mass", "timestepping.integrate_adaptive",
        "timestepping.on_output", "weighted.grid", "quadrature.jacobi_rule_01",
        "diagnostics.gap_series", "diagnostics.theorem_rate_report",
    ),
    "verify": (
        "suite.verify", "correction.solve", "correction.h_at", "correction.h_t_at",
        "radial.evolve", "radial.rhs", "radial.pressure",
        "timestepping.integrate_adaptive", "timestepping.integrate_fixed_rk4",
        "angular.evolve_mode", "angular.planar_rhs", "kinematics.build_deformation",
        "kinematics.check_identities", "weighted.grid", "quadrature.jacobi_rule_01",
    ),
}
REQUIRED["sweep"] = REQUIRED["anchor"] + (
    "sweep.sweep", "radial.time_derivatives", "energy.radial_component",
    "diagnostics.boundedness_report",
)

# Counts that must repeat exactly between two traced repetitions.
EXACT = ("timestepping.steps", "timestepping.rhs_evaluations", "correction.radau_steps",
         "correction.dense_calls", "energy.components", "radial.rhs_calls",
         "angular.rhs_calls", "weighted.grids_built", "weighted.rules_built")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def environment() -> dict:
    import numpy
    import scipy

    blas_threads = None
    for lib in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            blas_threads = fn()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "blas_threads": blas_threads,
            "machine": platform.machine()}


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, None elsewhere."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with its resource usage, killing it at ``deadline``."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"repetition {proc.args} passed the run's time limit")
        time.sleep(0.01)


def spawn(workload, mode: str, rep_dir: Path, seed: int, deadline: float,
          checks_alone: bool = False) -> dict:
    """One repetition in a fresh interpreter; returns its result record."""
    rep_dir.mkdir(parents=True)
    result = rep_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload.name,
           "--mode", mode, "--result", str(result)]
    cmd += ["--checks-alone"] if checks_alone else []
    cmd += ["--"] + workload.cli_argv(rep_dir, seed)
    with open(rep_dir / "stdout.txt", "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
        ticks = _cpu_ticks()
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        status, usage = _wait(proc, deadline)
        after = _cpu_ticks()
    if status != 0 or not result.is_file():
        raise BenchError(f"repetition in {rep_dir} exited with status {status}; "
                         f"see its stderr.txt")
    record = json.loads(result.read_text())
    record.update(dir=str(rep_dir), spawned=spawned,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    if ticks and after and after[1] > ticks[1]:
        # share of the machine's CPU time the hypervisor gave to others
        record["steal_share"] = (after[0] - ticks[0]) / (after[1] - ticks[1])
    return record


def setup_seconds(workload, record: dict) -> float | None:
    """Process start to the set-up boundary; for sweep, summed over cells
    from each cell's start (entry of runio.run) to its boundary.  None when
    the boundary was never reached."""
    marks = record["marks"]
    if workload.cell_start is None:
        return next((t - record["spawned"] for name, t in marks
                     if name == workload.boundary), None)
    total, cells, start = 0.0, 0, None
    for name, t in marks:
        if name == workload.cell_start:
            start = t
        elif name == workload.boundary and start is not None:
            total, cells, start = total + t - start, cells + 1, None
    return total if cells else None


def evaluate(workload, record: dict) -> tuple[int, int, bool]:
    """(attempted, failed, outputs correct) of one repetition."""
    rep_dir = Path(record["dir"])
    code = record["exit_code"]
    if workload.name == "anchor":
        per_op = {"anchor": check_anchor(rep_dir / "run", code)}
    elif workload.name == "sweep":
        per_op = check_sweep(rep_dir / "sweep", code)
    else:
        per_op = check_verify(rep_dir / "suite.json", code)
    if len(per_op) != workload.operations:
        raise BenchError(f"{len(per_op)} operations checked, expected {workload.operations}")
    failed = {op: msgs for op, msgs in per_op.items() if msgs}
    for op, msgs in failed.items():
        print(f"{workload.name} {rep_dir.name} {op}: {'; '.join(msgs)}", file=sys.stderr)
    wrong = any(not m.startswith(STATUS) for msgs in failed.values() for m in msgs)
    return len(per_op), len(failed), not wrong


def timed_run(workload, seed: int, seconds: float, out: Path, limit: float) -> tuple:
    start = time.monotonic()
    reps = []
    while True:
        rep_start = time.monotonic()
        reps.append(spawn(workload, "time", out / f"rep{len(reps):02d}", seed, limit))
        now = time.monotonic()
        if now + (now - rep_start) > start + seconds:
            break
    setups = [setup_seconds(workload, r) for r in reps]
    for k in range(MIN_SETUP_SAMPLES - len(reps)):
        setups.append(setup_seconds(
            workload, spawn(workload, "probe", out / f"probe{k:02d}", seed, limit)))
    setups = [v for v in setups if v is not None]
    if not setups:
        raise BenchError(f"{workload.name} never reached {workload.boundary}")
    attempted = failed = 0
    correct = True
    for rep in reps:
        a, f, c = evaluate(workload, rep)
        attempted, failed, correct = attempted + a, failed + f, correct and c
    samples = {
        "wall_s": [r["cli_end"] - r["cli_start"] for r in reps],
        "setup_s": setups,
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    samples["steal_share"] = [r.get("steal_share") for r in reps]
    (out / "samples.json").write_text(json.dumps(samples, indent=2) + "\n")
    steal = max((v for v in samples["steal_share"] if v is not None), default=0.0)
    print(f"{workload.name}: {len(reps)} repetitions, {len(setups)} set-up samples, "
          f"steal share up to {steal:.3f}", file=sys.stderr)
    return correct, attempted, failed, metrics


def _written(directory: Path | None) -> tuple[int, int]:
    if directory is None or not directory.is_dir():
        return 0, 0
    files = [p for p in directory.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def layer_metrics(workload, traced: dict, base: dict) -> dict:
    """Per-layer metrics from one traced repetition and one untraced one."""
    summary = traced["trace"]
    calls, total, own, counts = (summary["calls"], summary["total_s"],
                                 summary["self_s"], summary["counts"])

    def n(*names):
        return sum(calls.get(k, 0) for k in names)

    def s(*names):
        return sum(total.get(k, 0.0) for k in names)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    steps = counts.get("timestepping.steps", 0)
    rejected = counts.get("timestepping.rejected", 0)
    rhs_calls = n("radial.rhs", "angular.planar_rhs", "angular.toroidal_rhs")
    dense = n("correction.h_at", "correction.h_t_at")
    outputs = n("radial.time_derivatives", "angular.planar_time_derivatives")
    stepper_self = sum(own.get(k, 0.0) for k in INTEGRATORS)
    components = n("energy.radial_component", "energy.mode_component")
    cells = n("runio.run") if n("sweep.sweep") else 0
    bytes_written, files_written = _written(
        workload.output_dir(Path(traced["dir"])) if n("runio.run") else None)
    metrics = {
        "correction.solves": n("correction.solve"),
        "correction.solve_s": s("correction.solve"),
        "correction.radau_steps": counts.get("correction.radau_steps", 0),
        "correction.dense_calls": dense,
        "correction.dense_per_rhs": ratio(dense, rhs_calls),
        "radial.rhs_calls": n("radial.rhs"),
        "radial.rhs_s": s("radial.rhs"),
        "radial.pressure_s": s("radial.pressure"),
        "radial.coeff_s": s("radial.damping", "radial.wave_coefficient"),
        "radial.step_cap_s": s("radial.step_cap"),
        "radial.time_derivatives_s": s("radial.time_derivatives"),
        "radial.reconstruct_s": s("radial.reconstruct_physical", "radial.reconstructed_mass"),
        "timestepping.steps": steps,
        "timestepping.rejected": rejected,
        "timestepping.rhs_evaluations": counts.get("timestepping.rhs_evaluations", 0),
        "timestepping.accepted_share": ratio(steps, steps + rejected),
        "timestepping.overhead_s": stepper_self,
        "timestepping.overhead_per_step_us": ratio(stepper_self, steps, 1e6),
        "energy.components": components,
        "energy.component_s": s("energy.radial_component", "energy.mode_component"),
        "energy.per_output_ms": ratio(s("energy.radial_component", "energy.mode_component"),
                                      outputs, 1e3),
        "weighted.grids_built": n("weighted.grid"),
        "weighted.grid_s": s("weighted.grid"),
        "weighted.rules_built": n("quadrature.jacobi_rule_01"),
        "diagnostics.gap_series_s": s("diagnostics.gap_series"),
        "diagnostics.rates_s": s("diagnostics.theorem_rate_report"),
        "diagnostics.boundedness_s": s("diagnostics.boundedness_report"),
        "runio.self_s": own.get("runio.run", 0.0),
        "runio.bytes_written": bytes_written,
        "runio.files_written": files_written,
        "angular.evolve_mode_calls": n("angular.evolve_mode"),
        "angular.evolve_mode_s": s("angular.evolve_mode"),
        "angular.rhs_calls": n("angular.planar_rhs", "angular.toroidal_rhs"),
        "kinematics.build_deformation_s": s("kinematics.build_deformation"),
        "kinematics.check_identities_s": s("kinematics.check_identities"),
        "sweep.cells": cells,
        "sweep.cell_s": ratio(s("runio.run"), cells),
    }
    alone = base.get("checks_alone", {})
    reported = 0.0
    if workload.name == "verify":
        suite = json.loads((Path(base["dir"]) / "suite.json").read_text())
        reported = sum(c["seconds"] for c in suite["checks"])
    for check in VERIFY_CHECKS:
        metrics[f"suite.{check}_s"] = alone.get(check, 0.0)
    metrics["suite.reported_over_wall"] = ratio(reported, _wall(base))
    return metrics


def _wall(record: dict) -> float:
    return record["cli_end"] - record["cli_start"]


def _exact_counts(metrics: dict) -> dict:
    return {k: metrics[k] for k in EXACT}


def traced_run(workload, seed: int, out: Path, limit: float) -> tuple:
    # untraced between the traced repetitions, so a slow drift of the
    # machine's speed cancels out of the overhead
    first = spawn(workload, "trace", out / "traced-a", seed, limit)
    base = spawn(workload, "time", out / "untraced", seed, limit,
                 checks_alone=workload.name == "verify")
    second = spawn(workload, "trace", out / "traced-b", seed, limit)
    for record in (first, second):
        missing = [b for b in REQUIRED[workload.name] if not record["trace"]["calls"].get(b)]
        if missing:
            raise BenchError(f"{workload.name}: no span recorded at {missing} in "
                             f"{record['dir']}; a traced boundary was not crossed")
        counts = record["trace"]["counts"]
        rhs = sum(record["trace"]["calls"].get(k, 0) for k in
                  ("radial.rhs", "angular.planar_rhs", "angular.toroidal_rhs"))
        if counts.get("timestepping.rhs_evaluations", 0) != rhs:
            raise BenchError(f"{workload.name}: steppers report "
                             f"{counts.get('timestepping.rhs_evaluations', 0)} right-hand "
                             f"sides, the trace saw {rhs}")
    metrics = layer_metrics(workload, first, base)
    again = layer_metrics(workload, second, base)
    metrics["trace.overhead_s"] = (_wall(first) + _wall(second)) / 2.0 - _wall(base)
    if _exact_counts(metrics) != _exact_counts(again):
        raise BenchError(f"{workload.name}: exact counts differ between traced runs: "
                         f"{_exact_counts(metrics)} against {_exact_counts(again)}")
    attempted = failed = 0
    correct = True
    for record in (first, base, second):
        a, f, c = evaluate(workload, record)
        attempted, failed, correct = attempted + a, failed + f, correct and c
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    limit = time.monotonic() + RUN_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "vaclab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no vaclab sources under {ROOT / 'src'} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = BENCH / "out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment()
    (out / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
    print(f"environment {json.dumps(env)}")
    try:
        if args.trace:
            correct, attempted, failed, values = traced_run(workload, args.seed, out, limit)
        else:
            correct, attempted, failed, values = timed_run(
                workload, args.seed, args.seconds, out, limit)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    names = [m["name"] for m in listed]
    if sorted(values) != sorted(names):
        print(f"metrics {sorted(set(values) ^ set(names))} disagree with {spec_path.name}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
