"""Per-layer spans for the traced benchmark run.

The tracer replaces module attributes of ``spectra_theta`` with timing
wrappers; it never edits the library's source.  A module attribute is
wrapped when it is a public function of that module, or a function that the
module imports from another module of the package (``theta._reg_inc_beta``,
``betastats.bisect_monotone``, ``pencil.theta`` ...).  Private helpers called
inside their own module, methods of classes and the ``ln_beta`` memo table
(whose traffic its own ``cache_info`` counts) are not wrapped, so their time
counts toward the span that called them.  The root finders additionally get
their residual callables wrapped, which counts function evaluations and puts
the residual's time back on the layer that asked for the root.

A span has a layer name, a key (``layer.function``), a start, an end and a
parent: the span open when it started.  Spans are folded into totals as they
close (self time = duration minus the time covered by child spans), so a
traced run with 10^5 calls does not grow memory.  All arithmetic is in
integer nanoseconds, so the layer self times sum exactly to the root span.

Only the traced child process imports this module; timed runs never do.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "spectra_theta"
LAYERS = ("cli", "theta", "betastats", "rootfind", "specfun", "sphere_oracle", "pencil", "dilation")
ROOT = "bench"  # the benchmark's own code: op dispatch and output checks

_ORACLE_ESTIMATORS = (
    "sphere_oracle.sphere_abs_quadratic_integral",
    "sphere_oracle.sign_quadratic_moment",
    "sphere_oracle.e_j_matrix",
)


class Tracer:
    """Span bookkeeping for one traced run of a workload's op list."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, ns covered by child spans]
        # layer -> [self ns, open spans of the layer, ns with a span of the layer open]
        self.layers = {name: [0, 0, 0] for name in LAYERS + (ROOT,)}
        self.keys: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # key -> [calls, summed ns]
        self.work: dict[str, float] = defaultdict(float)  # work arguments: samples, trials, bytes
        self.root_ns = 0

    def span(self, layer: str, key: str, fn, before=None):
        """``fn`` wrapped so that every call records a span of ``layer``."""
        stack, clock = self.stack, time.perf_counter_ns
        layer_stat, key_stat = self.layers[layer], self.keys[key]

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            frame = [layer, 0]
            stack.append(frame)
            layer_stat[1] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][1] += dur
                layer_stat[0] += dur - frame[1]
                layer_stat[1] -= 1
                if not layer_stat[1]:
                    layer_stat[2] += dur
                key_stat[0] += 1
                key_stat[1] += dur

        return functools.update_wrapper(wrapper, fn)

    def run_root(self, fn):
        """Call ``fn`` inside the root span and return its result."""
        frame = [ROOT, 0]
        self.stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self.root_ns = time.perf_counter_ns() - start
            self.stack.pop()
            self.layers[ROOT][0] += self.root_ns - frame[1]


def _count_f(argnames: tuple[str, ...], keys: tuple[str, ...]):
    """Hook for a root finder: wrap its callables (given by parameter name)
    as spans of the calling layer, counting each evaluation under ``keys``."""

    def before(tracer: Tracer, args, kwargs):
        caller = tracer.stack[-1][0]
        args = list(args)
        for pos, (name, key) in enumerate(zip(argnames, keys)):
            if pos < len(args):
                args[pos] = tracer.span(caller, key, args[pos])
            elif name in kwargs:
                kwargs[name] = tracer.span(caller, key, kwargs[name])
        return tuple(args), kwargs

    return before


def _count_work(fn, counter):
    """Hook that binds the call's arguments and adds to the work counters."""
    signature = inspect.signature(fn)

    def before(tracer: Tracer, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counter(tracer.work, bound.arguments)
        return args, kwargs

    return before


def _oracle_work(work, arguments) -> None:
    n = int(arguments["n"])
    if "B" in arguments:
        d = len(arguments["B"])
    else:
        d = arguments["J"].d + int(arguments.get("pad_zeros", 0))
    work["sphere_oracle.samples"] += n
    work["sphere_oracle.bytes_computed"] += 8.0 * n * d  # the n x d sample matrix


def _pencil_work(work, arguments) -> None:
    work["pencil.trials"] += int(arguments["trials"])


def _hook(key: str, fn):
    if key == "rootfind.newton_bracketed":
        return _count_f(("f", "fprime"), ("rootfind.newton_f", "rootfind.newton_fprime"))
    if key == "rootfind.bisect_monotone":
        return _count_f(("f",), ("rootfind.bisect_f",))
    if key in _ORACLE_ESTIMATORS:
        return _count_work(fn, _oracle_work)
    if key == "pencil.cube_relaxation_test":
        return _count_work(fn, _pencil_work)
    return None


def install(tracer: Tracer) -> None:
    """Wrap the package's module attributes."""
    for name in LAYERS:
        module = sys.modules[f"{PACKAGE}.{name}"]
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj):
                continue  # classes, modules, constants, and the ln_beta memo table
            home = obj.__module__ or ""
            layer = home.rpartition(".")[2]
            if not home.startswith(PACKAGE + ".") or layer not in LAYERS:
                continue
            if attr.startswith("_") and home == module.__name__:
                continue  # a private helper inside its own module
            key = f"{layer}.{obj.__name__}"
            setattr(module, attr, tracer.span(layer, key, obj, _hook(key, obj)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run (times in seconds)."""
    keys, work = tracer.keys, tracer.work
    sec = 1e-9

    def n(*names: str) -> int:
        return sum(keys[k][0] for k in names if k in keys)

    def b(*names: str) -> float:
        return sec * sum(keys[k][1] for k in names if k in keys)

    ibeta = ("specfun._reg_inc_beta", "specfun.reg_inc_beta")
    cache = sys.modules[f"{PACKAGE}.specfun"].ln_beta.cache_info()
    newton, bisect = n("rootfind.newton_bracketed"), n("rootfind.bisect_monotone")
    oracle_busy = b(*_ORACLE_ESTIMATORS)
    m = {
        "specfun.ibeta_calls": n(*ibeta),
        "specfun.ibeta_busy_s": b(*ibeta),
        "specfun.ibeta_us_per_call": 1e6 * _ratio(b(*ibeta), n(*ibeta)),
        "specfun.ibeta_inv_calls": n("specfun.reg_inc_beta_inv"),
        "specfun.ibeta_inv_busy_s": b("specfun.reg_inc_beta_inv"),
        "specfun.ln_beta_hit_ratio": _ratio(cache.hits, cache.hits + cache.misses),
        "rootfind.roots": newton + bisect,
        "rootfind.newton_f_evals_per_root": _ratio(n("rootfind.newton_f"), newton),
        "rootfind.bisect_f_evals_per_root": _ratio(n("rootfind.bisect_f"), bisect),
        "theta.calls": n("theta.theta"),
        "theta.kappa_star_calls": n("theta.kappa_star"),
        "betastats.equipoint_calls": n("betastats.equipoint"),
        "betastats.median_calls": n("betastats.median"),
        "cli.commands": n("cli.main"),
        "sphere_oracle.samples": work["sphere_oracle.samples"],
        "sphere_oracle.busy_s": sec * tracer.layers["sphere_oracle"][2],
        "sphere_oracle.samples_per_s": _ratio(work["sphere_oracle.samples"], oracle_busy),
        "sphere_oracle.bytes_computed": work["sphere_oracle.bytes_computed"],
        "pencil.trials": work["pencil.trials"],
        "pencil.min_eigenvalue_calls": n("pencil.min_eigenvalue"),
        "pencil.trials_per_s": _ratio(work["pencil.trials"], b("pencil.cube_relaxation_test")),
        "pencil.witness_busy_s": b("pencil.sharpness_witness"),
        "dilation.dilations": n("dilation.spin2_dilation", "dilation.blockdiag_dilation"),
        "dilation.busy_s": sec * tracer.layers["dilation"][2],
        "dilation.tensor_norm_busy_s": b("dilation.spin_tensor_norm"),
        "trace.root_s": sec * tracer.root_ns,
    }
    for layer, (self_ns, _, _) in tracer.layers.items():
        m[f"{layer}.self_s"] = sec * self_ns
    return m


def self_times_sum_to_root(tracer: Tracer) -> bool:
    return sum(self_ns for self_ns, _, _ in tracer.layers.values()) == tracer.root_ns
