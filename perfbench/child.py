"""One measured iteration of a workload, run in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC names the ``cli.main`` argv lists to run and whether to trace. The
result holds each call's host seconds and exit status, the duration of every
``simulate`` call (one per grid cell), the process's peak RSS and, when
traced, every per-layer statistic. Untraced, each call is also timed in
calibrated seconds (see clock.py); host seconds then leave the probes out.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    from tunesim import cli, experiment, simulator

    from clock import CalibratedClock
    from tracer import Tracer

    if spec["trace"]:
        tracer, clock = Tracer(), None
    else:
        clock = CalibratedClock()
        # one timer around each cell's simulate call, nothing else
        tracer = Tracer(
            targets={"simulator.simulate": (simulator, "simulate")},
            namespaces=[experiment],
            sampled=("simulator.simulate",),
        )
    calls = []
    with tracer, clock or contextlib.nullcontext():
        for command in spec["commands"]:
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            span = clock.span() if clock else None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(command["argv"])
            except Exception:  # counted as a failed check; the run goes on
                code, error = None, traceback.format_exc()
            seconds, calibrated = span.stop() if span else (time.perf_counter() - start, None)
            if code != 0 and error is None:
                error = f"exit code {code}: {stderr.getvalue().strip()}"
            calls.append({"name": command["name"], "seconds": seconds,
                          "calibrated": calibrated, "error": error})
    result = {
        "calls": calls,
        "cell_seconds": tracer.samples.get("simulator.simulate", []),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.flat() if spec["trace"] else {},
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
