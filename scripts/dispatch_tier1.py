#!/usr/bin/env python3
"""Tier-1 under each dispatch of numpy's float64 log, exp and log1p.

Runs pytest three times: with numpy's default dispatch, with
NPY_DISABLE_CPU_FEATURES=X86_V4 (no AVX-512) and with "X86_V3 X86_V4" (no
AVX2 either), the dispatch numpy picks on CPUs without those features.  The
variable is set only in each child's environment.  For each run it prints
the target numpy chose for float64 log, exp and log1p
(``numpy.lib.introspect.opt_func_info``, read in a child with the same
environment), the passed and failed counts and the id of each failing test.
Extra arguments go to pytest.  Exits 1 if any run fails.

    python scripts/dispatch_tier1.py
    python scripts/dispatch_tier1.py tests/test_theta.py -x
"""

import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SETTINGS = (None, "X86_V4", "X86_V3 X86_V4")  # NPY_DISABLE_CPU_FEATURES; None: the default dispatch
_PROBE = ("import json; from numpy.lib.introspect import opt_func_info; "
          "info = opt_func_info(func_name='^(log|exp|log1p)$', signature='float64'); "
          "print(json.dumps({f: next(iter(s.values()))['current'] for f, s in info.items()}))")


def run(setting: str | None, pytest_args: list[str]) -> bool:
    """Print one run's targets, counts and failing ids; True if it passed."""
    env = {name: value for name, value in os.environ.items() if name != "NPY_DISABLE_CPU_FEATURES"}
    if setting is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = setting
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, check=True)
    targets = json.loads(probe.stdout)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pytest_args],
                          env=env, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    counts = {kind: int(m.group(1)) if (m := re.search(rf"(\d+) {kind}", lines[-1] if lines else "")) else 0
              for kind in ("passed", "failed", "error")}
    print(f"NPY_DISABLE_CPU_FEATURES={setting or '(unset)'}: "
          + ", ".join(f"{name} {target}" for name, target in sorted(targets.items())))
    print(f"  {counts['passed']} passed, {counts['failed']} failed, {counts['error']} errors, exit {done.returncode}")
    for line in lines:
        if line.startswith(("FAILED ", "ERROR ")):
            print(f"  {line.split(' - ')[0]}")
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    pytest_args = sys.argv[1:] if argv is None else argv
    results = [run(setting, pytest_args) for setting in SETTINGS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
