"""One repetition of a workload, in a fresh interpreter.

Protocol with ``run.py``: the child imports numpy and the library, prints
``ready`` (the parent times set-up up to that line), reads the job as JSON
from stdin, runs the op list between two sets of calibration probes and
prints one JSON line with its findings.
With ``--setup-only`` it exits right after ``ready``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy  # noqa: F401  (part of set-up: every op needs it)
import spectra_theta  # noqa: F401
import spectra_theta.cli  # noqa: F401


def _run_ops(ops) -> tuple[list[dict], bytes, dict]:
    digest = hashlib.sha256()
    records, values = [], {}
    for op in ops:
        try:
            result = op()
        except Exception as exc:  # an op that raises counts as failed
            traceback.print_exc()
            records.append({"ok": False, "detail": f"{type(exc).__name__}: {exc}"})
            digest.update(b"raised")
            continue
        records.append({"ok": result.ok, "detail": result.detail})
        digest.update(len(result.output).to_bytes(8, "little") + result.output)
        values.update(result.values)
    return records, digest.digest(), values


def main() -> int:
    print("ready", flush=True)
    if "--setup-only" in sys.argv:
        return 0
    job = json.load(sys.stdin)
    library = os.path.realpath(spectra_theta.__file__)
    if not library.startswith(os.path.realpath(job["src"]) + os.sep):
        print(f"spectra_theta was imported from {library}, not from {job['src']}", file=sys.stderr)
        return 3
    import calibrate
    import workloads

    ops = workloads.build_ops(job["workload"], job["inputs"], job["golden"])
    out = {}
    probes = calibrate.probes()
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        records, digest, values = tracer.run_root(lambda: _run_ops(ops))
        out["wall_s"] = tracer.root_ns * 1e-9
        out["layers"] = spans.layer_metrics(tracer)
        out["self_sum_ok"] = spans.self_times_sum_to_root(tracer)
    else:
        start = time.perf_counter()
        records, digest, values = _run_ops(ops)
        out["wall_s"] = time.perf_counter() - start
    probes += calibrate.probes()
    out["probe_s"] = statistics.median(probes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(ops=records, digest=digest.hex(), values=values)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
