import collections
import importlib
import math

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
    # A Newton step below the tolerance ends the root: at most 10 residual
    # evaluations (bracket ends included) per sigma root, where stopping on
    # the bracket width alone bisected at the residual's noise floor (up to
    # 41 at d = 60 and 50 at d = 200).
    module = importlib.import_module("spectra_theta.theta")
    residual = module._sigma_residual
    evals = collections.Counter()

    def counted(sh, th, x):
        evals.update(zip(sh.tolist(), th.tolist()))
        return residual(sh, th, x)

    monkeypatch.setattr(module, "_sigma_residual", counted)
    for d in (60, 200):
        evals.clear()
        theta(d)
        assert len(evals) == (d - 1) // 2  # one root per split s > t >= 1
        assert max(evals.values()) <= 10, d


def test_theta_stacks_its_independent_rows(monkeypatch):
    # The two incomplete betas of each sigma residual, and the four of the
    # two kappa_star routes, come from one stacked pass: theta(2000) makes 8
    # passes (bracket ends, 6 Newton rounds, kappa_star) over the 15,512
    # lanes that 18 unstacked passes covered.  Each stack is one call of the
    # row kernel, which alone decides how to run it.
    module = importlib.import_module("spectra_theta.theta")
    specfun = importlib.import_module("spectra_theta.specfun")
    rows, row = module._ibeta_rows, specfun._ibeta_row
    stacks, row_calls = [], []

    def counted_rows(*triples):
        out = rows(*triples)
        stacks.append(sum(value.size for value, _ in out))
        return out

    def counted_row(a, b, p):
        value, density = row(a, b, p)
        row_calls.append(value.size)
        return value, density

    monkeypatch.setattr(module, "_ibeta_rows", counted_rows)
    monkeypatch.setattr(specfun, "_ibeta_row", counted_row)
    theta(2000)
    assert (len(stacks), sum(stacks)) == (8, 15512)
    assert row_calls == stacks


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
