import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectra_theta.betastats import (
    BetaShape,
    binom_tail,
    equipoint,
    equipoint_bounds,
    equipoints,
    median,
    bounds_sweeps,
    median_bounds,
    median_bounds_sweep,
    median_old_upper_bound,
    ordering_sweep,
    phi_functions,
    phi_hat_monotone_sweep,
    phi_monotone_sweep,
    simmons_sweep,
)
from spectra_theta.errors import DomainError
from spectra_theta.specfun import reg_inc_beta

shapes = st.floats(min_value=0.5, max_value=50.0)

# equipoints of the integer shapes (s, 10 - s), printed to 6 digits
EQUIPOINT_TABLE = {
    1: 0.111223, 2: 0.208955, 3: 0.306089, 4: 0.403069, 5: 0.5,
    6: 0.596931, 7: 0.693911, 8: 0.791045, 9: 0.888777, 10: 1.0,
}


def test_equipoint_table_rows():
    for s, ref in EQUIPOINT_TABLE.items():
        assert equipoint(BetaShape(float(s), float(10 - s))) == pytest.approx(ref, abs=1e-6)


def test_equipoint_degenerate_t_zero():
    assert equipoint(BetaShape(10.0, 0.0)) == 1.0


@given(s=shapes, t=shapes)
def test_equipoint_defining_equation(s, t):
    e = equipoint(BetaShape(s, t))
    residual = reg_inc_beta(s, t + 1.0, e) + reg_inc_beta(s + 1.0, t, e) - 1.0
    assert abs(residual) <= 1e-11


def test_equipoint_against_mpmath():
    # The documented 2e-14 absolute, on a grid of real shapes and on
    # half-integer shapes of the Simmons sweep (d <= 400, so shapes up to
    # 200): the worst cases found in a 6000-shape sample, the corners and a
    # seeded sample.
    import mpmath
    import random

    from mp_reference import equipoint as equipoint_star

    grid = (0.1, 0.5, 1.0, 2.5, 7.0, 30.0, 100.0)
    shapes = [(s, t) for s in grid for t in grid]
    shapes += [(125.0, 53.5), (133.0, 61.0), (96.0, 88.0), (143.0, 46.0),
               (200.0, 0.5), (199.5, 0.5), (100.5, 99.5), (0.5, 0.5)]
    rnd = random.Random(400)
    for _ in range(40):
        d = rnd.randrange(2, 401)
        s = rnd.randrange((d + 1) // 2, d)
        shapes.append((s / 2.0, (d - s) / 2.0))
    roots = equipoints([BetaShape(s, t) for s, t in shapes])
    with mpmath.workdps(40):
        for (s, t), e in zip(shapes, roots):
            assert abs(e - float(equipoint_star(s, t))) <= 2e-14, (s, t)
        # lane 1932 of ``mpmath_roots.py --equipoints 3000 --seed 25``, the row's worst
        s, t = 112.06056737778749, 183.57216059051396
        assert abs(equipoint(BetaShape(s, t)) - float(equipoint_star(s, t))) <= 2.2e-14


def test_equipoint_tiny_roots_absolute_accuracy():
    # Roots far below the residual's noise floor: the documented accuracy is
    # absolute, not relative.  Reference: the 60-digit root.
    import mpmath

    from mp_reference import equipoint as equipoint_star

    with mpmath.workdps(60):
        for s, t in ((1e-6, 1e6), (1e-8, 1e8)):
            ref = float(equipoint_star(s, t))
            # at (1e-8, 1e8) the root (1.5e-15) is below 2e-15: the bound
            # ref/2 keeps a collapse to zero from passing
            assert abs(equipoint(BetaShape(s, t)) - ref) <= min(2e-15, ref / 2), (s, t)


@given(s=shapes, t=shapes)
def test_equipoint_swap_reflection(s, t):
    assert equipoint(BetaShape(s, t)) == pytest.approx(
        1.0 - equipoint(BetaShape(t, s)), abs=1e-12
    )


def test_median_values():
    assert median(BetaShape(3.0, 2.0)) == pytest.approx(0.614272, abs=1e-6)
    assert median(BetaShape(10.0, 7.0)) == pytest.approx(0.591773, abs=1e-6)
    for a in (0.7, 1.0, 5.5):
        assert median(BetaShape(a, a)) == pytest.approx(0.5, abs=1e-11)
    with pytest.raises(DomainError):
        median(BetaShape(2.0, 0.0))


@given(s=shapes, t=shapes)
def test_median_residual(s, t):
    m = median(BetaShape(s, t))
    assert reg_inc_beta(s, t, m) == pytest.approx(0.5, abs=1e-11)


def test_median_bounds_rows():
    assert median_bounds(BetaShape(3.0, 2.0)) == pytest.approx((0.6, 0.64))
    assert median_bounds(BetaShape(10.0, 3.0)) == pytest.approx((0.769231, 0.810651), abs=1e-6)
    lo, hi = median_bounds(BetaShape(4.0, 4.0))
    assert lo == hi == 0.5
    with pytest.raises(DomainError):
        median_bounds(BetaShape(2.0, 0.5))
    with pytest.raises(DomainError):
        median_bounds(BetaShape(1.0, 1.5))  # t > s
    with pytest.raises(DomainError):
        median_bounds(BetaShape(1.4, 1.4))  # total below 3


def test_median_old_upper_bound():
    assert median_old_upper_bound(BetaShape(3.0, 2.0)) == pytest.approx(2.0 / 3.0)


def test_equipoint_bounds_rows():
    assert equipoint_bounds(BetaShape(1.0, 1.0)) == (0.5, 0.5)
    lo, hi = equipoint_bounds(BetaShape(8.0, 2.0))
    assert (lo, hi) == (0.75, 0.8)
    assert lo <= equipoint(BetaShape(8.0, 2.0)) <= hi
    assert equipoint_bounds(BetaShape(5.0, 5.0)) == (0.5, 0.5)
    with pytest.raises(DomainError):
        equipoint_bounds(BetaShape(5.0, 0.0))
    with pytest.raises(DomainError):
        equipoint_bounds(BetaShape(2.0, 3.0))


def test_phi_values():
    _, phi_hat = phi_functions(2.0, 4.0)
    assert phi_hat == pytest.approx(0.6875, abs=1e-12)  # polynomial CDF of Beta(2,3) at 1/2
    _, phi_hat3 = phi_functions(3.0, 4.0)
    assert phi_hat3 >= phi_hat
    # at the symmetric split the equipoint is 1/2
    for d in (4.0, 6.0, 10.0):
        phi, _ = phi_functions(d / 2.0, d)
        assert phi == pytest.approx(reg_inc_beta(d / 2.0, d / 2.0 + 1.0, 0.5), abs=1e-11)
    with pytest.raises(DomainError):
        phi_functions(5.0, 4.0)


def test_phi_refuses_a_d_that_is_not_finite():
    from spectra_theta.betastats import phi, phi_hat

    for fn in (phi, phi_hat):
        for d in (math.inf, math.nan):
            with pytest.raises(DomainError):
                fn(2.0, d)


def test_binom_tail_examples():
    assert binom_tail(0.77, 0, 6) == 1.0
    assert binom_tail(0.5, 3, 5) == pytest.approx(0.5, abs=1e-12)
    assert binom_tail(0.3, 2, 4) == pytest.approx(0.3483, abs=1e-12)  # 1 - (0.7^4 + 4*0.3*0.7^3)
    with pytest.raises(DomainError):
        binom_tail(0.5, 7, 6)


@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    d=st.integers(min_value=1, max_value=25),
    data=st.data(),
)
def test_binom_tail_matches_direct_sum(p, d, data):
    s = data.draw(st.integers(min_value=0, max_value=d))
    direct = sum(
        math.comb(d, k) * p**k * (1.0 - p) ** (d - k) for k in range(s, d + 1)
    )
    assert binom_tail(p, s, d) == pytest.approx(direct, abs=1e-10)


@given(s=st.integers(min_value=1, max_value=25), d=st.integers(min_value=2, max_value=25))
def test_integer_equipoint_balances_binomial(s, d):
    # P_e(S >= s) == P_e(S <= s) at the equipoint of the integer shapes
    if s >= d:
        return
    e = equipoint(BetaShape(float(s), float(d - s)))
    up = binom_tail(e, s, d)
    down = 1.0 - (binom_tail(e, s + 1, d) if s + 1 <= d else 0.0)
    assert up == pytest.approx(down, abs=1e-9)


def test_ordering_chain_on_grid():
    shapes_list = [
        (s / 2.0, t / 2.0)
        for s in range(1, 25)
        for t in range(1, s + 1)
    ]
    assert ordering_sweep(shapes_list) == []


def test_simmons_sweep_small():
    assert simmons_sweep(80) == []


def test_monotone_sweeps_small():
    assert phi_hat_monotone_sweep(30.0, 0.25) == []
    assert phi_monotone_sweep(30.0) == []


def test_simmons_conjecture_sweep_reports_only():
    from spectra_theta.betastats import simmons_conjecture_sweep

    # the real-parameter upper bound is conjectural: the sweep returns
    # findings instead of raising, and on this grid there are none
    findings = simmons_conjecture_sweep(12.0, 0.5)
    assert isinstance(findings, list)
    assert findings == []


def test_median_sandwich_random_grid():
    import random

    rnd = random.Random(7)
    for _ in range(300):
        t = 1.0 + 19.0 * rnd.random()
        s = t + 19.0 * rnd.random()
        if s + t < 3.0:
            continue
        lo, hi = median_bounds(BetaShape(s, t))
        m = median(BetaShape(s, t))
        assert lo - 1e-12 <= m <= hi + 1e-12


def _root_then_compare(median_shapes, ordering_shapes, lower_shapes, conjecture_shapes):
    """The records of ``_bounds_checks`` by the plain rule: each root solved
    (through the module's solvers, as patched), then compared with its bound."""
    import importlib

    betastats = importlib.import_module("spectra_theta.betastats")

    def roots(rows, shapes):
        s, t = np.array(shapes, dtype=float).reshape(-1, 2).T
        return rows(s, t).tolist()

    def medians(s, t):
        return betastats._ibeta_inv_row(0.5, s, t)

    kept = [(s, t) for s, t in ordering_shapes if 0.0 < t <= s]
    violations, findings = [], []
    for (s, t), m in zip(median_shapes, roots(medians, median_shapes)):
        lower, upper = betastats._median_bounds(s, t)
        if not (lower - 1e-12 <= m <= upper + 1e-12):
            violations.append({"check": "median_bounds", "s": s, "t": t, "m": m,
                               "lower": lower, "upper": upper})
    ups = roots(medians, [(s + 1.0, t + 1.0) for s, t in kept])
    for (s, t), e, m, m_up in zip(kept, roots(betastats._equipoint_rows, kept), roots(medians, kept), ups):
        if e > m + 1e-12:
            violations.append({"check": "e_le_m", "s": s, "t": t, "e": e, "m": m})
        if t < s and m_up > e + 1e-12:
            violations.append({"check": "m_up_le_e", "s": s, "t": t, "e": e, "m_up": m_up})
    for (s, t), e in zip(lower_shapes, roots(betastats._equipoint_rows, lower_shapes)):
        lower, _ = equipoint_bounds(BetaShape(s, t))
        if e < lower - 1e-12:
            violations.append({"check": "equipoint_lower", "s": s, "t": t, "e": e, "bound": lower})
    for (s, t), e in zip(conjecture_shapes, roots(betastats._equipoint_rows, conjecture_shapes)):
        _, upper = equipoint_bounds(BetaShape(s, t))
        if e > upper + 1e-12:
            findings.append({"check": "simmons_conjecture", "s": s, "t": t, "e": e, "bound": upper})
    return violations, findings


def _simmons_root_then_compare(d_max):
    """``simmons_sweep(d_max)``'s records by the plain rule, as ``_root_then_compare``."""
    import importlib

    betastats = importlib.import_module("spectra_theta.betastats")
    splits = [(s, d - s) for d in range(2, d_max + 1) for s in range((d + 1) // 2, d)]
    sh, th = np.array(splits, dtype=float).T / 2.0
    records = []
    for (s, t), e in zip(splits, betastats._equipoint_rows(sh, th).tolist()):
        lower, upper = equipoint_bounds(BetaShape(s / 2.0, t / 2.0))
        if e > upper + 1e-12:
            records.append({"check": "simmons_upper", "s": s, "t": t, "e": e, "bound": upper})
        if e < lower - 1e-12:
            records.append({"check": "equipoint_lower", "s": s, "t": t, "e": e, "bound": lower})
    return records


def _shift_roots(monkeypatch, median_shift, equipoint_shift):
    """Move every median and equipoint by its shape's shift, ``median_shift(s,
    t)`` or ``equipoint_shift(s, t)``, and every residual the sweeps read
    with it (the residual at x becomes the old one at x - shift, whose root
    is the moved root), so that a check fires where the moved root breaks
    its bound."""
    import importlib

    betastats = importlib.import_module("spectra_theta.betastats")
    inverse, equipoint_rows, residuals = (
        betastats._ibeta_inv_row, betastats._equipoint_rows, betastats._residuals)
    monkeypatch.setattr(betastats, "_ibeta_inv_row",
                        lambda y, s, t: inverse(y, s, t) + median_shift(s, t))
    monkeypatch.setattr(betastats, "_equipoint_rows",
                        lambda s, t: equipoint_rows(s, t) + equipoint_shift(s, t))
    monkeypatch.setattr(betastats, "_residuals", lambda medians, equipoints: residuals(
        [(s, t, x - median_shift(s, t)) for s, t, x in medians],
        [(s, t, x - equipoint_shift(s, t)) for s, t, x in equipoints]))


def test_bounds_sweeps_equal_the_separate_sweeps(monkeypatch):
    # The combined sweep evaluates every check in two residual passes.  Its
    # roots and residuals are moved per shape, by up to 0.1 and differently
    # for medians and equipoints, so that every check sees violations: each
    # must come back with the separate sweeps' bits, at the same shape, in
    # the same order, and as the plain solve-then-compare rule records it.
    import importlib
    import random

    betastats = importlib.import_module("spectra_theta.betastats")
    _shift_roots(monkeypatch, lambda s, t: 0.1 * np.sin(7.0 * s + 3.0 * t),
                 lambda s, t: 0.1 * np.sin(7.0 * s + 3.0 * t + 1.0))
    rnd = random.Random(11)
    shapes = []
    for _ in range(150):
        t = 1.0 + 9.0 * rnd.random()
        shapes.append((t + 9.0 * rnd.random(), t))
    shapes += [(4.0, 2.0), (4.0, 2.0), (3.0, 3.0)] + shapes[:10]
    combined = betastats.bounds_sweeps(shapes, 8.0, 6.0, 0.5)
    violations = betastats.median_bounds_sweep(shapes) + betastats.ordering_sweep(shapes)
    violations += betastats.equipoint_lower_sweep(8.0, 0.5)
    separate = violations, betastats.simmons_conjecture_sweep(6.0, 0.5)
    assert combined == separate
    plain = _root_then_compare(shapes, shapes, betastats._triangle(1.0, 8.0, 0.5),
                               betastats._triangle(0.5, 6.0, 0.5))
    assert [[list(r.items()) for r in part] for part in combined] == \
        [[list(r.items()) for r in part] for part in plain]
    checks = {v["check"] for v in combined[0] + combined[1]}
    assert checks == {"median_bounds", "e_le_m", "m_up_le_e", "equipoint_lower",
                      "simmons_conjecture"}


@pytest.mark.parametrize("seed", [0xC0FFEE, 1, 2])
def test_the_sign_rule_gives_the_verdicts_of_the_solved_roots(seed):
    # Each sweep reads a bound's verdict from the sign of its root's
    # increasing residual at the bound +- 1e-12; solving every root and
    # comparing it with its bound must give the same verdicts (the same
    # records) on every shape that the verify commands check at their
    # defaults: the Simmons splits with d <= 400, the drawn shapes of
    # verify bounds and its two triangles.
    import importlib

    betastats = importlib.import_module("spectra_theta.betastats")
    shapes, lower_s_max, conjecture_s_max, step = importlib.import_module(
        "spectra_theta.cli")._bounds_arguments(seed, 99, 0.5)
    assert betastats.median_bounds_sweep(shapes) + betastats.ordering_sweep(shapes) == \
        _root_then_compare(shapes, shapes, [], [])[0]
    if seed == 0xC0FFEE:  # the parts that no seed changes, once
        assert simmons_sweep(400) == _simmons_root_then_compare(400)
        lower_shapes = betastats._triangle(1.0, lower_s_max, step)
        conjecture_shapes = betastats._triangle(0.5, conjecture_s_max, step)
        assert (betastats.equipoint_lower_sweep(lower_s_max, step),
                betastats.simmons_conjecture_sweep(conjecture_s_max, step)) == \
            _root_then_compare([], [], lower_shapes, conjecture_shapes)


def test_a_root_within_the_tolerance_of_its_bound_passes(monkeypatch):
    # Each check allows its bound 1e-12.  A root moved 0.5e-12 past its bound
    # must pass and one moved 2e-12 past must be recorded, by every check,
    # as the plain solve-then-compare rule records it.
    import importlib

    betastats = importlib.import_module("spectra_theta.betastats")
    inverse, equipoint_rows, moved = betastats._ibeta_inv_row, betastats._equipoint_rows, {}

    def medians(s, t):
        return inverse(0.5, s, t)

    def shift(kind, solve):  # the shift of each root that ``moved`` names to its new place
        return lambda s, t: np.array([moved.get((kind, a, b), r) - r for a, b, r in
                                      zip(s.tolist(), t.tolist(), solve(s, t).tolist())])

    def e(s, t):
        return equipoint_rows(np.array([s]), np.array([t])).item()

    _shift_roots(monkeypatch, shift("m", medians), shift("e", equipoint_rows))
    gaps = (0.5e-12, 2e-12)
    sandwich, chain, chain_up = [(4.0, 2.0), (5.0, 2.0), (6.0, 2.0), (7.0, 2.0)], [(8.0, 3.0), (9.0, 3.0)], \
        [(10.0, 3.0), (11.0, 3.0)]
    for k, (s, t) in enumerate(sandwich):
        lower, upper = betastats._median_bounds(s, t)
        moved["m", s, t] = lower - gaps[k % 2] if k < 2 else upper + gaps[k % 2]
    for ((s, t), (s_up, t_up)), gap in zip(zip(chain, chain_up), gaps):
        moved["m", s, t] = e(s, t) - gap
        moved["m", s_up + 1.0, t_up + 1.0] = e(s_up, t_up) + gap
    violations = betastats.median_bounds_sweep(sandwich) + betastats.ordering_sweep(chain + chain_up)
    assert violations == _root_then_compare(sandwich, chain + chain_up, [], [])[0]
    assert [(v["check"], v["s"]) for v in violations] == [
        ("median_bounds", 5.0), ("median_bounds", 7.0), ("e_le_m", 9.0), ("m_up_le_e", 11.0)]
    moved.clear()
    for (s, t), (s_up, t_up), gap in zip([(1.5, 1.0), (2.0, 1.0)], [(0.5, 0.5), (1.0, 0.5)], gaps):
        moved["e", s, t] = (s + 1.0) / (s + t + 2.0) - gap
        moved["e", s_up, t_up] = s_up / (s_up + t_up) + gap
    triangles = betastats.equipoint_lower_sweep(2.0, 0.5), betastats.simmons_conjecture_sweep(1.0, 0.5)
    assert triangles == _root_then_compare([], [], betastats._triangle(1.0, 2.0, 0.5),
                                           betastats._triangle(0.5, 1.0, 0.5))
    assert [[(r["s"], r["t"]) for r in part] for part in triangles] == [[(2.0, 1.0)], [(1.0, 0.5)]]
    moved.clear()  # the half-shapes of the splits (2, 1), (3, 1); (3, 2), (4, 1)
    for (s, t), (s_low, t_low), gap in zip([(1.0, 0.5), (1.5, 0.5)], [(1.5, 1.0), (2.0, 0.5)], gaps):
        moved["e", s, t] = s / (s + t) + gap
        moved["e", s_low, t_low] = (s_low + 1.0) / (s_low + t_low + 2.0) - gap
    records = simmons_sweep(5)
    assert records == _simmons_root_then_compare(5)
    assert [(r["check"], r["s"], r["t"]) for r in records] == [("simmons_upper", 3, 1), ("equipoint_lower", 4, 1)]


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -0.5])
def test_sweeps_refuse_a_step_that_is_not_finite_and_positive(step):
    from spectra_theta.betastats import equipoint_lower_sweep, simmons_conjecture_sweep

    for sweep in (equipoint_lower_sweep, simmons_conjecture_sweep, phi_hat_monotone_sweep):
        with pytest.raises(DomainError):
            sweep(10.0, step)


def test_sweeps_refuse_a_bound_that_is_not_finite():
    from spectra_theta.betastats import equipoint_lower_sweep, simmons_conjecture_sweep

    for sweep in (phi_monotone_sweep, lambda d: phi_hat_monotone_sweep(d, 0.25),
                  lambda s: equipoint_lower_sweep(s, 0.5), lambda s: simmons_conjecture_sweep(s, 0.5)):
        for bound in (math.nan, -math.inf):
            with pytest.raises(DomainError):
                sweep(bound)


def _grid_pin(rows) -> tuple[int, str]:
    """The lane count of (s, d) or (s, t) rows and the first 16 hex digits
    of the SHA-256 of their float64 bytes, in sweep order."""
    import hashlib

    rows = np.ascontiguousarray(np.asarray(rows, dtype=np.float64).reshape(-1, 2))
    return len(rows), hashlib.sha256(rows.tobytes()).hexdigest()[:16]


def _swept_rows(monkeypatch, kernel, sweep, *args):
    """The (s, d) rows that ``sweep(*args)`` passes to ``kernel``, in order."""
    import importlib

    betastats = importlib.import_module("spectra_theta.betastats")
    seen = []
    monkeypatch.setattr(betastats, kernel,
                        lambda s, d: seen.append(np.stack([s, d], axis=1)) or np.zeros(len(s)))
    sweep(*args)
    return np.concatenate(seen)


@pytest.mark.parametrize("kernel, sweep, args, pin", [
    ("_phi_hat_rows", phi_hat_monotone_sweep, (100.0, 0.25), (40168, "7df7d949b37e9f14")),
    ("_phi_hat_rows", phi_hat_monotone_sweep, (24.0, 0.5), (592, "81dae51b6bf848e0")),
    ("_phi_rows", phi_monotone_sweep, (100.0,), (9992, "7f7f3eebde119e0d")),
    ("_phi_rows", phi_monotone_sweep, (24.0,), (568, "4f93f78c96929fb7")),
])
def test_monotone_sweep_grids_keep_their_bits(monkeypatch, kernel, sweep, args, pin):
    # recorded from the grids built by float-accumulating loops, which are
    # exact on these dyadic steps; the rows are the distinct points of the
    # pairs, sorted by (s, d) (the interleaved (s, d), (s + 1, d) Phi_hat grid
    # had 77,224 and 1,012 rows; the flat Phi grid, 9,996 and 572, four of
    # them never compared)
    assert _grid_pin(_swept_rows(monkeypatch, kernel, sweep, *args)) == pin


@pytest.mark.parametrize("args, pin", [
    ((100.0, 0.25), (77224, "47f47f441fdcb5c1")),
    ((24.0, 0.5), (1012, "232604b4a690b7ad")),
])
def test_phi_hat_sweep_compares_each_s_with_s_plus_1(monkeypatch, args, pin):
    # a Phi_hat decreasing in s makes every (s, d) of the grid a violation,
    # reported in grid order against its own (s + 1, d): together they
    # rebuild the interleaved grid of the recorded pin
    import importlib

    betastats = importlib.import_module("spectra_theta.betastats")

    def fake(s, d):
        return -s - d / 1024.0

    monkeypatch.setattr(betastats, "_phi_hat_rows", fake)
    violations = phi_hat_monotone_sweep(*args)
    assert all(v["phi_hat_s"] == fake(v["s"], v["d"]) and v["phi_hat_s1"] == fake(v["s"] + 1.0, v["d"])
               for v in violations)
    assert _grid_pin([(v["s"] + k, v["d"]) for v in violations for k in (0.0, 1.0)]) == pin


@pytest.mark.parametrize("d_max", [24.0, 40.0, 100.0])
def test_phi_sweep_compares_each_s_with_s_plus_1(monkeypatch, d_max):
    # a Phi decreasing in s makes every pair a violation, reported in pair
    # order with both of its values: the half-integers s, d with
    # d/2 <= s < d - 1, d from 3 up, each against (s + 1, d)
    import importlib

    betastats = importlib.import_module("spectra_theta.betastats")

    def fake(s, d):
        return -s - d / 1024.0

    monkeypatch.setattr(betastats, "_phi_rows", fake)
    pairs = [(k / 2.0, m / 2.0) for m in range(6, int(2 * d_max) + 1)
             for k in range(m // 2 + m % 2, m - 2)]
    assert phi_monotone_sweep(d_max) == [
        {"check": "phi_monotone", "s": s, "d": d, "phi_s": fake(s, d), "phi_s1": fake(s + 1.0, d)}
        for s, d in pairs]


@pytest.mark.parametrize("d_max", [2.5, 2.9])
def test_a_phi_sweep_with_no_pair_is_refused(d_max):
    # the grid d = 2.5 has the points s = 1.5 and 2, but no s below d - 1:
    # the sweep would compare nothing
    with pytest.raises(DomainError, match="has no pair"):
        phi_monotone_sweep(d_max)
    assert phi_monotone_sweep(3.0) == []


@pytest.mark.parametrize("args, pin", [
    ((1.0, 100.0, 0.5), (19900, "b31fbb232d0f001c")),
    ((0.5, 30.0, 0.5), (1830, "6902f540b56d177e")),
    ((1.0, 20.0, 0.5), (780, "2c31f8f18e14e800")),
    ((0.5, 20.0, 0.5), (820, "b4cfb0bb940b714d")),
])
def test_triangle_grids_keep_their_bits(args, pin):
    from spectra_theta.betastats import _triangle

    assert _grid_pin(_triangle(*args)) == pin


def test_a_sweep_whose_grid_is_empty_is_refused():
    # each bound lies below its sweep's first grid point, so the sweep
    # would check nothing
    from spectra_theta.betastats import equipoint_lower_sweep, simmons_conjecture_sweep

    for sweep, bound in ((phi_monotone_sweep, 2.0), (lambda d: phi_hat_monotone_sweep(d, 0.25), 2.0),
                         (lambda s: equipoint_lower_sweep(s, 0.5), 0.5),
                         (lambda s: simmons_conjecture_sweep(s, 0.5), 0.4)):
        with pytest.raises(DomainError, match="has no point up to"):
            sweep(bound)


def test_a_step_whose_count_overflows_is_refused():
    from spectra_theta.betastats import equipoint_lower_sweep, simmons_conjecture_sweep

    for sweep in (equipoint_lower_sweep, simmons_conjecture_sweep, phi_hat_monotone_sweep):
        with pytest.raises(DomainError, match="too small"):
            sweep(100.0, 1e-310)


def test_a_triangle_sweep_checks_no_shape_above_its_bound(monkeypatch):
    import importlib

    betastats = importlib.import_module("spectra_theta.betastats")
    residuals, largest = betastats._residuals, []
    monkeypatch.setattr(betastats, "_residuals", lambda medians, equipoints: largest.extend(
        s.max() for s, _, _ in equipoints if s.size) or residuals(medians, equipoints))
    betastats.equipoint_lower_sweep(20.0, 0.4)
    betastats.simmons_conjecture_sweep(30.0, 0.4)
    # the last grid points below each bound: 1 + 47 * 0.4 and 0.5 + 73 * 0.4
    assert largest == [pytest.approx(19.8), pytest.approx(29.7)]


def test_simmons_sweep_builds_no_beta_shape(monkeypatch):
    # the sweep reads its equipoints and both bounds from the (s, t) rows
    built = []
    post_init = BetaShape.__post_init__
    monkeypatch.setattr(BetaShape, "__post_init__", lambda self: built.append(1) or post_init(self))
    assert simmons_sweep(400) == []
    assert built == []


def test_bounds_sweeps_builds_no_beta_shape(monkeypatch):
    # the sweeps read the median bounds, like their medians and equipoints,
    # from the (s, t) pairs
    built = []
    post_init = BetaShape.__post_init__
    monkeypatch.setattr(BetaShape, "__post_init__", lambda self: built.append(1) or post_init(self))
    shapes = [(4.0 + 0.5 * k, 1.0 + 0.25 * k) for k in range(12)]
    assert bounds_sweeps(shapes, 10.0, 5.0, 0.5) == ([], [])
    assert built == []


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (3.0, -1.0), (1.0, 1.5), (1.4, 1.4),
                                 (True, 2.0), ("3", 1.0)])
def test_median_bounds_sweep_refuses_as_median_bounds(bad):
    # the first bad shape is refused with the DomainError of
    # median_bounds(BetaShape(s, t)), whichever check it fails
    with pytest.raises(DomainError) as expected:
        median_bounds(BetaShape(*bad))
    with pytest.raises(DomainError) as got:
        median_bounds_sweep([(4.0, 2.0), bad, (math.nan, 1.0), (1.0, 2.0)])
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [(math.inf, 1.0), (math.inf, math.inf), (4.0, math.inf)])
def test_a_row_of_float_shapes_refuses_as_median_bounds(bad):
    # a list of float pairs is checked as one row, which must refuse each
    # shape that median_bounds(BetaShape(s, t)) refuses, with its message
    with pytest.raises(DomainError) as expected:
        median_bounds(BetaShape(*bad))
    with pytest.raises(DomainError) as got:
        median_bounds_sweep([(4.0, 2.0), bad, (5.0, 2.5)])
    assert str(got.value) == str(expected.value)


def test_simmons_sweep_records_equal_a_plain_recomputation(monkeypatch):
    # equipoints pushed off their band, up at odd s and down at even s
    # (the residuals moved with them), so that both checks fire; the records
    # must be those of the defining loop
    _shift_roots(monkeypatch, lambda s, t: 0.0, lambda s, t: np.where((2.0 * s) % 2.0 == 1.0, 0.02, -0.02))
    records = simmons_sweep(40)
    assert {r["check"] for r in records} == {"simmons_upper", "equipoint_lower"}
    expected = _simmons_root_then_compare(40)
    assert [list(r.items()) for r in records] == [list(r.items()) for r in expected]
    assert all(type(r["s"]) is int and type(r["t"]) is int and type(r["e"]) is float
               and type(r["bound"]) is float for r in records)


def test_simmons_sweep_equals_the_plain_rule_under_moved_roots(monkeypatch):
    # every equipoint moved by up to 0.1, as in
    # test_bounds_sweeps_equal_the_separate_sweeps, so that both checks fire
    # on many splits, often on the same d: each record must come back with
    # the plain rule's bits, split and key order, upper before lower per split
    _shift_roots(monkeypatch, lambda s, t: 0.0, lambda s, t: 0.1 * np.sin(7.0 * s + 3.0 * t + 1.0))
    records = simmons_sweep(40)
    assert [list(r.items()) for r in records] == [list(r.items()) for r in _simmons_root_then_compare(40)]
    kinds = [r["check"] for r in records]
    assert len(records) == 360 and {"simmons_upper", "equipoint_lower"} <= set(kinds)
    assert kinds != sorted(kinds) and kinds != sorted(kinds, reverse=True)  # interleaved by split


def test_a_shape_gives_its_sum_and_mean():
    shape = BetaShape(3.0, 1.0)
    assert shape.d_frak == 4.0 and shape.mean == 0.75
    assert BetaShape(2.5, 0.0).mean == 1.0
