import collections
import importlib
import math

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_theta.betastats import BetaShape, equipoint
from spectra_theta.errors import DomainError, NumericError
from spectra_theta.theta import (
    SignDiag,
    alpha_beta,
    f_g_h,
    h_closed_form,
    kappa,
    kappa_star,
    sigma_st,
    theta,
    theta_even_closed_form,
    theta_odd_bounds,
    thetas,
)

# printed 6-digit table of theta(d) and its odd-d bounds
THETA_TABLE = {
    1: (None, 1.0, None, None),
    2: (None, 1.5708, None, None),
    3: (1.73205, 1.73482, 1.77064, 1.88562),
    4: (None, 2.0, None, None),
    5: (2.15166, 2.1527, 2.17266, 2.26274),
    6: (None, 2.35619, None, None),
    7: (2.49496, 2.49548, 2.50851, 2.58599),
    8: (None, 2.66667, None, None),
    9: (2.79445, 2.79475, 2.80409, 2.87332),
    10: (None, 2.94524, None, None),
    11: (3.064, 3.06419, 3.07131, 3.13453),
    12: (None, 3.2, None, None),
    13: (3.31129, 3.31142, 3.31707, 3.37565),
    14: (None, 3.43612, None, None),
    15: (3.54114, 3.54123, 3.54585, 3.6007),
    16: (None, 3.65714, None, None),
    17: (3.75681, 3.75688, 3.76076, 3.8125),
    18: (None, 3.86563, None, None),
    19: (3.96068, 3.96073, 3.96404, 4.01316),
    20: (None, 4.06349, None, None),
}


def test_alpha_beta_symmetric_point():
    # On S^1 the signed moment evaluates to 1/pi (direct computation of
    # the circle integral of sgn(cos 2phi) cos^2 phi).
    alpha, beta = alpha_beta(SignDiag(1, 1, 1.0, 1.0))
    assert alpha == pytest.approx(1.0 / math.pi, abs=1e-13)
    assert beta == pytest.approx(1.0 / math.pi, abs=1e-13)


def test_alpha_beta_swap_symmetry():
    for s, t, a, b in [(3, 2, 0.8, 1.7), (5, 1, 1.1, 0.3), (2, 4, 0.25, 2.0)]:
        alpha, _ = alpha_beta(SignDiag(s, t, a, b))
        _, beta_swapped = alpha_beta(SignDiag(t, s, b, a))
        assert alpha == pytest.approx(beta_swapped, abs=1e-15)


@given(
    s=st.integers(min_value=1, max_value=12),
    t=st.integers(min_value=1, max_value=12),
    a=st.floats(min_value=0.0, max_value=5.0),
    b=st.floats(min_value=0.01, max_value=5.0),
)
def test_alpha_beta_range(s, t, a, b):
    alpha, beta = alpha_beta(SignDiag(s, t, a, b))
    d = s + t
    assert -1.0 / d - 1e-12 <= alpha <= 1.0 / d + 1e-12
    assert -1.0 / d - 1e-12 <= beta <= 1.0 / d + 1e-12


def test_kappa_identity_pattern():
    for s, t in [(3, 2), (5, 1), (1, 1)]:
        d = s + t
        assert kappa(SignDiag(s, t, d / s, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert kappa(SignDiag(4, 0, 1.0, 0.0)) == pytest.approx(1.0)


def test_kappa_d2_value():
    assert kappa(SignDiag(1, 1, 1.0, 1.0)) == pytest.approx(2.0 / math.pi, abs=1e-12)


@given(
    s=st.integers(min_value=1, max_value=10),
    t=st.integers(min_value=1, max_value=10),
    w=st.floats(min_value=0.02, max_value=0.98),
)
def test_kappa_normalized_in_unit_interval(s, t, w):
    # points on the trace-normalized segment a s + b t = d
    d = s + t
    a = w * d / s
    b = (d - s * a) / t
    value = kappa(SignDiag(s, t, a, b))
    assert 0.0 < value <= 1.0 + 1e-12


def test_sigma_st_values():
    assert sigma_st(3, 3) == 0.5
    sig = sigma_st(2, 1)
    assert 4.0 / 7.0 <= sig <= 2.0 / 3.0
    from spectra_theta.specfun import reg_inc_beta

    residual = reg_inc_beta(1.0, 1.5, sig) - reg_inc_beta(0.5, 2.0, 1.0 - sig)
    assert abs(residual) <= 1e-11
    with pytest.raises(DomainError):
        sigma_st(1, 2)


def test_sigma_matches_equipoint():
    for s, t in [(2, 1), (5, 3), (9, 4), (7, 7), (12, 5)]:
        assert sigma_st(s, t) == pytest.approx(
            equipoint(BetaShape(s / 2.0, t / 2.0)), abs=1e-10
        )


def test_f_g_h_agree_at_sigma():
    from spectra_theta.specfun import reg_inc_beta

    for s, t in [(2, 1), (4, 3), (6, 6), (9, 2)]:
        sig = sigma_st(s, t)
        f, g, h = f_g_h(s, t, sig)
        assert f == pytest.approx(g, abs=1e-11)
        assert g == pytest.approx(h, abs=1e-11)
        assert f == pytest.approx(
            2.0 * reg_inc_beta(s / 2.0, 1.0 + t / 2.0, sig) - 1.0, abs=1e-11
        )


@given(
    s=st.integers(min_value=1, max_value=20),
    t=st.integers(min_value=1, max_value=20),
    p=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
)
def test_h_closed_form(s, t, p):
    _, _, h = f_g_h(s, t, p)
    assert h == pytest.approx(h_closed_form(s, t, p), abs=1e-10)


def test_h_at_half_gives_even_theta():
    for d in (2, 4, 8, 12, 20):
        _, _, h = f_g_h(d // 2, d // 2, 0.5)
        assert h == pytest.approx(1.0 / theta(d).theta, abs=1e-12)


def test_f_prime_formula_matches_central_difference():
    # f'(p) = 2st/((1-p)s+pt)^2 (I_p(s/2,1+t/2) - I_{1-p}(t/2,1+s/2))
    from spectra_theta.specfun import reg_inc_beta

    eps = 1e-5
    for s, t in [(2, 1), (5, 4), (7, 3)]:
        for p in (0.2, 0.45, 0.62, 0.9):
            up, _, _ = f_g_h(s, t, p + eps)
            dn, _, _ = f_g_h(s, t, p - eps)
            central = (up - dn) / (2.0 * eps)
            w = (1.0 - p) * s + p * t
            formula = (2.0 * s * t / w**2) * (
                reg_inc_beta(s / 2.0, 1.0 + t / 2.0, p)
                - reg_inc_beta(t / 2.0, 1.0 + s / 2.0, 1.0 - p)
            )
            assert central == pytest.approx(formula, abs=5e-6)


def test_f_decreasing_then_increasing():
    eps = 1e-4
    for s, t in [(2, 1), (5, 4), (8, 3)]:
        sig = sigma_st(s, t)
        for p in (0.3 * sig, 0.7 * sig):
            lo, _, _ = f_g_h(s, t, p - eps)
            hi, _, _ = f_g_h(s, t, p + eps)
            assert lo > hi
        for p in (sig + 0.5 * (1 - sig), sig + 0.9 * (1 - sig)):
            lo, _, _ = f_g_h(s, t, p - eps)
            hi, _, _ = f_g_h(s, t, p + eps)
            assert lo < hi


def test_kappa_star_values():
    ks, a, b = kappa_star(1, 1)
    assert (a, b) == (pytest.approx(1.0, abs=1e-10), pytest.approx(1.0, abs=1e-10))
    assert ks == pytest.approx(2.0 / math.pi, abs=1e-12)
    ks22, a22, b22 = kappa_star(2, 2)
    assert ks22 == pytest.approx(0.5, abs=1e-12)
    assert a22 == pytest.approx(1.0, abs=1e-10)
    ks21, _, _ = kappa_star(2, 1)
    assert ks21 == pytest.approx(1.0 / 1.73482, abs=5e-5)


def test_kappa_star_optimality_conditions():
    for s, t in [(2, 1), (5, 3), (7, 6), (4, 4)]:
        d = s + t
        ks, a, b = kappa_star(s, t)
        assert s * a + t * b == pytest.approx(d, abs=1e-10)
        alpha, beta = alpha_beta(SignDiag(s, t, a, b))
        assert abs(alpha - beta) <= 1e-11
        sig = sigma_st(s, t)
        f, _, _ = f_g_h(s, t, sig)
        assert ks == pytest.approx(f, abs=1e-9)


def test_kappa_star_cross_check_fires_on_wrong_root(monkeypatch):
    # Both routes evaluate at the same sigma, so the check must still see a
    # wrong root.  import_module, because the package attribute
    # spectra_theta.theta is the function, not the module.
    module = importlib.import_module("spectra_theta.theta")
    true_sigma = module.sigma_st
    monkeypatch.setattr(module, "sigma_st", lambda s, t: true_sigma(s, t) + 1e-5)
    with pytest.raises(NumericError):
        kappa_star(30, 5)


def test_sigma_newton_stops_on_its_step(monkeypatch):
    # A Newton step below the tolerance ends the root: at most 6 residual
    # evaluations (bracket ends included) per sigma root, where stopping on
    # the bracket width alone bisected at the residual's noise floor (up to
    # 41 at d = 60 and 50 at d = 200), and a midpoint start took up to 8.
    module = importlib.import_module("spectra_theta.theta")
    residual = module._sigma_residual
    evals = collections.Counter()

    def counted(sh, th, x, ln_b):
        evals.update(zip(sh.tolist(), th.tolist()))
        return residual(sh, th, x, ln_b)

    monkeypatch.setattr(module, "_sigma_residual", counted)
    for d in (60, 200):
        evals.clear()
        theta(d)
        assert len(evals) == (d - 1) // 2  # one root per split s > t >= 1
        assert max(evals.values()) <= 6, d


def test_sigma_lane_at_the_noise_floor_of_2001(monkeypatch):
    # At d = 2001 the sigma lane (s, t) = (1465, 536) reaches its residual's
    # noise floor with Newton steps just above xtol.  It stops there and
    # takes 7 residual evaluations (bracket ends included), as many as any
    # other split; without the noise-floor stop it bisected 17 times from a
    # far bracket end and took 24.
    module = importlib.import_module("spectra_theta.theta")
    residual = module._sigma_residual
    evals = collections.Counter()

    def counted(sh, th, x, ln_b):
        evals.update(zip(sh.tolist(), th.tolist()))
        return residual(sh, th, x, ln_b)

    monkeypatch.setattr(module, "_sigma_residual", counted)
    theta(2001)
    assert len(evals) == 1000
    assert evals.pop((1465 / 2, 536 / 2)) <= 7
    assert max(evals.values()) <= 7


def test_theta_stacks_its_independent_rows(monkeypatch):
    # The two incomplete betas of each sigma residual, and those of the two
    # kappa_star routes, come from one stacked pass: theta(2000) makes 6
    # passes (bracket ends, 4 Newton rounds, kappa_star) over 10,323 lanes.
    # The kappa_star pass has 2,107 of them: the profile's two betas on each
    # of the 1,000 splits, and alpha's on the 107 lanes where its p is not
    # the profile's (beta's p is the profile's on every lane).  With math's
    # logs and exps in the kernel the lane (1305, 695) took 2 more rounds:
    # 8 passes over 10,410 lanes, 2,106 in the kappa_star pass.  Evaluating
    # all four betas on every split took 12,304 lanes (15,512 from midpoint
    # starts, in 18 unstacked passes before that).
    # Each stack is one call of the row kernel, which alone decides how to
    # run it; the one row-kernel call after them is the one-lane
    # reg_inc_beta of the even-d closed-form check.
    module = importlib.import_module("spectra_theta.theta")
    specfun = importlib.import_module("spectra_theta.specfun")
    rows, row = module._ibeta_rows, specfun._ibeta_row
    stacks, row_calls = [], []

    def counted_rows(*triples, ln_b=None):
        out = rows(*triples, ln_b=ln_b)
        stacks.append(sum(value.size for value, _ in out))
        return out

    def counted_row(a, b, p, ln_b=None):
        value, density = row(a, b, p, ln_b)
        row_calls.append(value.size)
        return value, density

    monkeypatch.setattr(module, "_ibeta_rows", counted_rows)
    monkeypatch.setattr(specfun, "_ibeta_row", counted_row)
    theta(2000)
    assert (len(stacks), sum(stacks), stacks[-1]) == (6, 10323, 2107)
    assert row_calls == [*stacks, 1]


def _kappa_rows_of_four_betas(s, t, sigma, ln_b):
    """The reference for ``_kappa_rows``: (kappa_*, a_opt, b_opt) with all
    four incomplete betas of the two routes evaluated on every split."""
    module = importlib.import_module("spectra_theta.theta")
    d = s + t
    u = 1.0 - sigma
    lam = d / (s * u + t * (1.0 - u))
    a_opt, b_opt = lam * u, lam * (1.0 - u)
    (i_alpha, _), (i_beta, _), (i_left, _), (i_right, _) = module._ibeta_rows(
        *module._alpha_beta_triples(s, t, a_opt, b_opt), *module._profile_triples(s, t, sigma),
        ln_b=ln_b[[1, 0, 1, 0]].ravel(),
    )
    alpha, beta = module._alpha_beta_values(d, i_alpha, i_beta)
    f_val = module._f_value(s, t, sigma, i_left, i_right)
    assert np.all(np.abs(d * 0.5 * (alpha + beta) - f_val) <= module.KAPPA_CROSS_CHECK_TOL)
    return d * 0.5 * (alpha + beta), a_opt, b_opt


@pytest.mark.parametrize("d", [2, 3, 20, 201, 2000, 2001])
def test_kappa_rows_keep_the_bits_of_four_betas(d):
    # alpha and beta copy the profile betas that share their shapes and p,
    # and evaluate only the other lanes; the kernel is lane-exact, so every
    # output keeps the bits of the pass that evaluated all four everywhere
    module = importlib.import_module("spectra_theta.theta")
    s = np.arange((d + 1) // 2, d)
    t = d - s
    ln_b = module._split_ln_b(s / 2.0, t / 2.0)
    sigma = np.full(s.size, 0.5)
    unequal = s > t
    sigma[unequal] = module._sigma_rows(s[unequal], t[unequal], ln_b[:, unequal])
    got = module._kappa_rows(s, t, sigma, ln_b)
    want = _kappa_rows_of_four_betas(s, t, sigma, ln_b)
    assert [row.tobytes() for row in got] == [row.tobytes() for row in want]


def test_theta_1_makes_no_row_kernel_pass(monkeypatch):
    # theta(1) has no split with s, t >= 1, so its sigma and kappa_star rows
    # are empty, and neither is solved nor evaluated
    module = importlib.import_module("spectra_theta.theta")
    rows = module._ibeta_rows
    stacks = []
    monkeypatch.setattr(module, "_ibeta_rows",
                        lambda *triples: stacks.append(triples) or rows(*triples))
    assert theta(1).theta == 1.0
    assert stacks == []


@pytest.mark.parametrize("d", [61, 2001])
def test_split_scan_lanes_equal_kappa_star(d):
    # theta's row scan and the one-lane kappa_star give the same bits, on a
    # row shorter (d = 61) and longer (d = 2001) than the row kernel's
    # crossover.
    module = importlib.import_module("spectra_theta.theta")
    s, t, ks, a, b = module._split_scan(d)
    assert s.tolist() == list(range((d + 1) // 2, d))
    for lane in range(s.size):
        point = kappa_star(int(s[lane]), int(t[lane]))
        assert (float(ks[lane]), float(a[lane]), float(b[lane])) == point, (s[lane], t[lane])


def test_theta_table_reproduction():
    for d, (t_minus, th, t_plus, t_pp) in THETA_TABLE.items():
        report = theta(d)
        assert report.theta == pytest.approx(th, abs=5e-5)
        if t_minus is not None:
            bm, bp, bpp = report.bounds_odd
            assert bm == pytest.approx(t_minus, abs=5e-5)
            assert bp == pytest.approx(t_plus, abs=5e-5)
            assert bpp == pytest.approx(t_pp, abs=5e-5)
        else:
            assert report.bounds_odd is None


def test_theta_report_fields():
    r = theta(3)
    assert (r.minimizer_s, r.minimizer_t) == (2, 1)
    assert r.theta * r.kappa_star == pytest.approx(1.0, abs=1e-12)
    assert r.p_opt == sigma_st(2, 1)
    r4 = theta(4)
    assert (r4.minimizer_s, r4.minimizer_t) == (2, 2)
    assert r4.p_opt == 0.5
    r1 = theta(1)
    assert (r1.theta, r1.minimizer_s, r1.minimizer_t) == (1.0, 1, 0)
    with pytest.raises(DomainError):
        theta(0)


def test_theta_even_closed_forms_agree():
    from spectra_theta.specfun import reg_inc_beta

    for d in range(2, 121, 2):
        beta_form = 2.0 * reg_inc_beta(d / 4.0, d / 4.0 + 1.0, 0.5) - 1.0
        assert abs(beta_form - theta_even_closed_form(d)) <= 1e-12


def test_theta_odd_bounds_domain():
    with pytest.raises(DomainError):
        theta_odd_bounds(4)
    with pytest.raises(DomainError):
        theta_odd_bounds(1)


def test_theta_odd_sandwich():
    for d in range(3, 62, 2):
        report = theta(d)
        t_minus, t_plus, t_pp = report.bounds_odd
        assert t_minus - 1e-9 <= report.theta <= min(t_plus, t_pp) + 1e-9


def test_two_step_monotonicity():
    for d in range(4, 61):
        values = []
        for s in range((d + 1) // 2, d):
            t = d - s
            values.append(((s, t), kappa_star(s, t)[0]))
        for (s, t), ks in values:
            if t - 2 >= 1:
                ks2 = kappa_star(s + 2, t - 2)[0]
                assert ks2 >= ks - 1e-12, (s, t)


def test_kappa_star_below_identity_value():
    for d in (3, 6, 11):
        for s in range((d + 1) // 2, d):
            assert kappa_star(s, d - s)[0] <= 1.0 + 1e-12


def test_divisible_by_four_coin_flip():
    for d in range(4, 65, 4):
        prob = math.comb(d // 2, d // 4) * 0.5 ** (d // 2)
        assert theta(d).kappa_star == pytest.approx(prob, abs=1e-12)


@settings(max_examples=10)
@given(d=st.sampled_from([400, 401, 500, 625, 750, 999, 1000, 2001, 10001]))
def test_asymptotics(d):
    assert abs(theta(d).theta / math.sqrt(d) - math.sqrt(math.pi) / 2.0) <= 0.02


def test_theta_at_large_odd_d():
    # No other test reaches an odd d above 10001.  These three pass every
    # check of theta's scan, their odd-d bounds among them; 13001, 15001,
    # 16001 and 19001-21001 raise NumericError (ROADMAP item 1).
    ds = [12001, 14001, 18001]
    reports = thetas(ds)
    assert [report.d for report in reports] == ds
    for report in reports:
        theta_minus, theta_plus, _ = report.bounds_odd
        assert theta_minus <= report.theta <= theta_plus
        assert (report.minimizer_s, report.minimizer_t) == ((report.d + 1) // 2, report.d // 2)
        assert abs(report.theta / math.sqrt(report.d) - math.sqrt(math.pi) / 2.0) <= 0.01


def test_even_d_explicit_bounds():
    for d in range(2, 121, 2):
        th = theta(d).theta
        assert math.sqrt(math.pi) / 2.0 * math.sqrt(d + 1.0) <= th + 1e-12
        assert th <= math.sqrt(math.pi) / 2.0 * d / math.sqrt(d - 1.0) + 1e-12


def test_sign_diag_validation():
    with pytest.raises(DomainError):
        SignDiag(0, 1, 1.0, 1.0)
    with pytest.raises(DomainError):
        SignDiag(1, 1, 0.0, 0.0)
    J = SignDiag(2, 1, 1.0, 1.0)
    assert J.d == 3 and J.diagonal() == [1.0, 1.0, -1.0]
    assert SignDiag(2, 1, 1.0, 1.0).is_trace_normalized() is True
    assert SignDiag(2, 1, 1.4, 0.2).is_trace_normalized() is True
    assert SignDiag(2, 1, 1.0, 0.5).is_trace_normalized() is False


def test_sign_diag_refuses_weights_that_break_kappa():
    # a weight that is not finite, or a trace s a + t b that overflows
    for bad in ((1, 1, math.inf, 0.0), (1, 0, math.inf, 0.0), (1, 0, 1.0, math.inf),
                (2, 1, 1e308, 1e308), (1, 2, 0.0, 1e308)):
        with pytest.raises(DomainError):
            SignDiag(*bad)
    assert 0.0 < kappa(SignDiag(1, 1, 8e307, 8e307)) < math.inf


@pytest.mark.parametrize("s, t, bound", [(2, 1, 1e-16), (31, 30, 5e-16), (1001, 1000, 2.5e-15)])
def test_sigma_st_against_mpmath(s, t, bound):
    # sigma keeps its two-beta residual because the contiguous one-beta form
    # of the equipoint residual is several times less accurate here
    import mpmath

    from mp_reference import equipoint as equipoint_star

    with mpmath.workdps(40):
        root = equipoint_star(mpmath.mpf(s) / 2, mpmath.mpf(t) / 2)
        assert abs(sigma_st(s, t) - root) <= bound


def test_thetas_keep_the_bits_of_theta(monkeypatch):
    # every report of the stacked scan is the repr of its theta(d), in one
    # pass and in passes cut down to 64 splits, so pass boundaries keep the
    # bits too; each pass holds whole d's, in the order given
    module = importlib.import_module("spectra_theta.theta")
    ds = [*range(1, 121), 2000, 2001]
    expected = [repr(theta(d)) for d in ds]
    assert [repr(report) for report in thetas(ds)] == expected
    scan, runs = module._split_scan, []
    monkeypatch.setattr(module, "_split_scan", lambda *run: runs.append(run) or scan(*run))
    monkeypatch.setattr(module, "_PASS_SPLITS", 64)
    assert [repr(report) for report in thetas(ds)] == expected
    assert [d for run in runs for d in run] == ds and len(runs) > 40
    assert all(len(run) == 1 or sum(d // 2 for d in run) <= 64 for run in runs)
    assert runs[-2:] == [(2000,), (2001,)]


def test_thetas_of_nothing_and_of_a_bad_d(monkeypatch):
    module = importlib.import_module("spectra_theta.theta")
    assert thetas([]) == []
    monkeypatch.setattr(module, "_split_scan", lambda *run: pytest.fail("solved before the check"))
    for bad in (0, 2.5, "7"):
        with pytest.raises(DomainError, match=f"d must be an integer of at least 1, got {bad!r}"):
            thetas([3, bad, 5])


def test_theta_refuses_a_d_above_its_cap(monkeypatch):
    module = importlib.import_module("spectra_theta.theta")
    assert module.THETA_D_MAX == 10**5
    monkeypatch.setattr(module, "_split_scan", lambda *run: pytest.fail("solved before the check"))
    for call in (lambda: theta(100001), lambda: thetas([3, 100001])):
        with pytest.raises(DomainError, match=r"theta capped at d <= 100000, got 100001"):
            call()


def test_thetas_report_the_first_failing_d(monkeypatch):
    # as a loop of theta(d) would: the closed form is made to disagree at
    # d = 30 and d = 16, and the scan stops at the smaller
    module = importlib.import_module("spectra_theta.theta")
    closed_form = module.theta_even_closed_form
    monkeypatch.setattr(module, "theta_even_closed_form",
                        lambda d: closed_form(d) + (1e-6 if d in (16, 30) else 0.0))
    with pytest.raises(NumericError, match="even-d closed forms disagree for d=16:"):
        thetas(range(1, 41))


def test_thetas_name_the_sigma_lane_that_fails(monkeypatch):
    # a sigma bracket that does not change sign at d = 9 is named by its
    # (d, s, t); a check that fails at a smaller d in the same pass is still
    # the one reported, as a loop of theta(d) reports it
    module = importlib.import_module("spectra_theta.theta")
    residual = module._sigma_residual

    def broken(sh, th, x, ln_b):
        value, slope = residual(sh, th, x, ln_b)
        return np.where(sh + th == 4.5, 1.0, value), slope

    monkeypatch.setattr(module, "_sigma_residual", broken)
    with pytest.raises(NumericError, match=r"lane 0 \(sigma of \(d, s, t\) = \(9, 5, 4\)\)"):
        theta(9)
    with pytest.raises(NumericError, match=r"lane 0 \(sigma of \(d, s, t\) = \(9, 5, 4\)\)"):
        thetas(range(1, 41))
    closed_form = module.theta_even_closed_form
    monkeypatch.setattr(module, "theta_even_closed_form",
                        lambda d: closed_form(d) + (1e-6 if d == 4 else 0.0))
    with pytest.raises(NumericError, match="even-d closed forms disagree for d=4:"):
        thetas(range(1, 41))


def test_ln_beta_is_computed_once_per_solve(monkeypatch):
    # ln B of a root's shapes is fixed over its Newton rounds: theta(2000)
    # computes both of its shape pairs' rows in one call, which kappa_star's
    # routes reuse, and a 4,000-lane median row computes its row once; each
    # reg_inc_beta adds its one-lane row: one in an even d's closed-form
    # check, two in an odd d's theta_+ bound
    from spectra_theta import betastats, specfun

    calls = []
    row = specfun._ln_beta_row

    def counted(a, b):
        calls.append(a.size)
        return row(a, b)

    for module in (specfun, betastats, importlib.import_module("spectra_theta.theta")):
        monkeypatch.setattr(module, "_ln_beta_row", counted)
    theta(2000)
    assert calls == [2000, 1]
    calls.clear()
    thetas(range(1, 201))
    assert calls[0] > 1 and calls[1:] == [1] * (100 + 2 * 99)
    rng = np.random.Generator(np.random.Philox(key=5))
    shapes = [BetaShape(s, t) for s, t in (0.5 + 20.0 * rng.random((4000, 2))).tolist()]
    calls.clear()
    betastats.medians(shapes)
    assert calls == [4000]
    calls.clear()
    betastats.equipoints(shapes)
    assert calls == [4000]


def test_alpha_beta_needs_a_negative_block():
    with pytest.raises(DomainError, match="alpha_beta requires t >= 1"):
        alpha_beta(SignDiag(2, 0, 1.0, 0.0))


def test_theta_names_a_scan_minimizer_off_the_proven_split(monkeypatch):
    # kappa of the split (4, 1) of d = 5 is made the smallest
    module = importlib.import_module("spectra_theta.theta")
    scan = module._split_scan

    def rigged(*ds):
        rows = scan(*ds)
        rows[2][1] = 0.0
        return rows

    monkeypatch.setattr(module, "_split_scan", rigged)
    with pytest.raises(NumericError, match=r"scan minimizer \(4, 1\) differs from the proven "
                                           r"split \(3, 2\) for d=5"):
        theta(5)


def test_theta_refuses_a_scan_minimum_off_the_closed_form(monkeypatch):
    # both closed forms move together, so they agree, and the scan is left behind
    module = importlib.import_module("spectra_theta.theta")
    closed_form, beta = module.theta_even_closed_form, module.reg_inc_beta
    monkeypatch.setattr(module, "theta_even_closed_form", lambda d: closed_form(d) + 1e-6)
    monkeypatch.setattr(module, "reg_inc_beta", lambda a, b, x: beta(a, b, x) + 5e-7)
    with pytest.raises(NumericError, match="scan minimum .* differs from closed form .* for d=4"):
        theta(4)


def test_theta_refuses_a_value_outside_its_odd_d_bounds(monkeypatch):
    module = importlib.import_module("spectra_theta.theta")
    monkeypatch.setattr(module, "theta_odd_bounds", lambda d: (3.0, 4.0, 5.0))
    with pytest.raises(NumericError, match=r"theta\(5\)=.* escapes its odd-d bounds \(3.0, 4.0, 5.0\)"):
        theta(5)
