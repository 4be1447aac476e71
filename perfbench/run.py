"""spectra-theta benchmark: time to a verified result on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload theta_scan --seed 12648430 --seconds 40 --trace 0

Each repetition runs the workload's whole op list in a fresh interpreter
(closed loop, one caller, one process), so imports and the library's caches
start cold, as they do for a command-line user.  Repetitions are started
while the next one is expected to end within ``--seconds`` (at least a few
are always made), and the medians are reported.  Each repetition's time is
rescaled by the calibration probes run in its own process (``calibrate.py``),
because the shared host's speed drifts more than the bounds allow.  The
library is imported from ``src/`` of the checkout.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``wall_norm_s``, ``setup_s``, ``peak_rss_mb``,
``verified_digits``); with ``--trace 1`` untraced and traced repetitions
alternate and the metrics are the per-layer ones from the traced
repetitions, plus ``trace_overhead_frac``.  The line before it records the
samples, failed ops and the environment.  See perfbench/README.md for what
each workload exercises and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_PROBE_S
from reference import references, verified_digits
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
DEFAULT_SEED = 0xC0FFEE
MIN_SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 60  # a repetition takes about 4 s; a whole run must end within 180 s
THREAD_ENV = "SPECTRA_THETA_THREADS"  # users' default is serial, so it is never passed on
RECORDED_ENV_PREFIXES = ("PYTHON", "OMP_", "OPENBLAS_", "MKL_", "SPECTRA_THETA")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an op that failed its check)."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != THREAD_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(job: dict | None) -> tuple[float, dict | None]:
    """Start a fresh interpreter; return its set-up time and, unless ``job``
    is None (set-up only), the findings of its run of the op list."""
    cmd = [sys.executable, str(HERE / "child.py")] + ([] if job else ["--setup-only"])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=_child_env(), cwd=ROOT, text=True)
    try:
        # The child writes nothing after "ready" until it has read the job,
        # so this line is all that is buffered when communicate() takes over.
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(json.dumps(job) if job else "", timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"benchmark child exited with code {proc.returncode}")
    return setup_s, (json.loads(out.splitlines()[-1]) if job else None)


def _git_commit() -> str | None:
    """The checkout's commit, or None where it is not a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spectra_theta").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = _child_env()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "child_env": {k: v for k, v in sorted(env.items()) if k.startswith(RECORDED_ENV_PREFIXES)},
        "removed_env": [THREAD_ENV],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, units: dict[str, str]) -> tuple[dict, dict]:
    """Run repetitions for ``seconds``; return the result object and a record
    of the samples behind it.  ``units`` maps each metric to report to its unit."""
    job = {"workload": workload, "inputs": make_inputs(workload, seed),
           "src": str(SRC), "golden": str(GOLDEN)}
    refs = references(workload)
    setups, walls, traced_walls, rss, layers, digests = [], [], [], [], [], set()
    probes, norm_walls, norm_traced_walls = [], [], []
    attempted, failures, correct = 0, [], True
    min_reps = 4 if trace else 3
    start = time.perf_counter()
    rep, rep_s = 0, 0.0
    # Start another repetition only while it is expected to end in time.
    while rep < min_reps or time.perf_counter() - start + rep_s <= seconds:
        rep_start = time.perf_counter()
        traced = trace and rep % 2 == 1
        setup_s, res = run_child({**job, "trace": traced})
        setups.append(setup_s)
        (traced_walls if traced else walls).append(res["wall_s"])
        # The repetition's time on a host where one probe takes REFERENCE_PROBE_S.
        norm_wall = res["wall_s"] * REFERENCE_PROBE_S / res["probe_s"]
        (norm_traced_walls if traced else norm_walls).append(norm_wall)
        if traced:
            layers.append(res["layers"])
            correct = correct and res["self_sum_ok"]
        else:
            rss.append(res["peak_rss_mb"])
            probes.append(res["probe_s"])
        digests.add(res["digest"])
        attempted += len(res["ops"])
        failures += [f"rep {rep} op {i}: {op['detail']}" for i, op in enumerate(res["ops"]) if not op["ok"]]
        values = res["values"]
        rep += 1
        rep_s = time.perf_counter() - rep_start
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_child(None)[0])

    # Identical inputs must give identical output bytes in every repetition,
    # traced or not.
    correct = correct and not failures and len(digests) == 1
    if trace:
        metrics = {name: statistics.median(sample[name] for sample in layers) for name in layers[0]}
        metrics["trace_overhead_frac"] = statistics.median(norm_traced_walls) / statistics.median(norm_walls) - 1.0
        metrics["bench.wall_s"] = statistics.median(walls)
        metrics["bench.probe_s"] = statistics.median(probes)
    else:
        metrics = {
            "wall_norm_s": statistics.median(norm_walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "verified_digits": verified_digits(values, refs),
        }
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured and declared")
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "reps": rep, "wall_s_samples": walls, "traced_wall_s_samples": traced_walls,
              "probe_s_samples": probes, "wall_norm_s_samples": norm_walls,
              "setup_s_samples": setups, "distinct_output_digests": len(digests),
              "failed_ops": failures, "environment": environment()}
    return result, record


def declared_units(trace: bool) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spectra_theta" / "__init__.py").is_file():
        print(f"error: no spectra_theta sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        result, record = measure(args.workload, args.seed, args.seconds, trace, declared_units(trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
