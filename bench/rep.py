"""One repetition of a workload in a fresh interpreter.

    python3 bench/rep.py --workload NAME --mode {time,probe,trace}
                         --result FILE -- <vaclab CLI arguments>

The CLI call goes through ``vaclab.cli.main``.  ``time`` records the
monotonic timestamps of the set-up boundaries and of the CLI call;
``probe`` stops the process at the workload's set-up boundary (for
``sweep``, aborts each cell there), so set-up can be sampled cheaply;
``trace`` additionally wraps the program's public functions (see
``tracer.py``) and writes the spans to ``spans.json`` beside the result.
The result is written as JSON to ``--result``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


class ProbeStop(Exception):
    """Raised at a sweep cell's set-up boundary in probe mode."""


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload) + "\n")


def _mark(module_name: str, attribute: str, marks: list, on_entry=None) -> None:
    """Record the monotonic time of every entry of ``module.attribute``."""
    module = sys.modules[module_name]
    original = getattr(module, attribute)

    def marked(*args, **kwargs):
        marks.append([f"{module_name}:{attribute}", time.monotonic()])
        if on_entry is not None:
            on_entry()
        return original(*args, **kwargs)

    setattr(module, attribute, marked)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("time", "probe", "trace"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--checks-alone", action="store_true",
                        help="after the CLI call, time each verify check alone")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    result_path = Path(args.result)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import vaclab.cli
    from workloads import WORKLOADS

    if not Path(vaclab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"vaclab imported from {vaclab.__file__}, not from {src}", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    marks: list = []
    payload = {"mode": args.mode, "marks": marks}

    if args.mode == "probe":
        def stop():
            if workload.cell_start is not None:
                raise ProbeStop("set-up probe")
            _write(result_path, payload)
            os._exit(0)
    else:
        stop = None
    if args.mode != "trace":
        if workload.cell_start is not None:
            _mark(*workload.cell_start.split(":"), marks)
        _mark(*workload.boundary.split(":"), marks, on_entry=stop)

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.monotonic()
    code = vaclab.cli.main(cli_args)
    end = time.monotonic()
    payload.update({"exit_code": code, "cli_start": start, "cli_end": end})

    if tracer is not None:
        payload["trace"] = tracer.summary()
        (result_path.parent / "spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    elif args.checks_alone:
        payload["checks_alone"] = _time_checks_alone()
    _write(result_path, payload)
    return 0


def _time_checks_alone() -> dict:
    """Seconds of each check run alone through ``suite.verify(only=name)``,
    with the default check seed that the verify workload uses."""
    from vaclab.suite import CHECKS, verify

    seconds = {}
    for name in CHECKS:
        start = time.perf_counter()
        report = verify(only=name)
        seconds[name] = time.perf_counter() - start
        if [r.name for r in report.results] != [name] or not report.ok:
            raise RuntimeError(f"check {name} did not run alone and pass")
    return seconds


if __name__ == "__main__":
    sys.exit(main())
