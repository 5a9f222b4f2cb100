import numpy as np
import pytest

from dielscat.effective import (amplification_f, ball_moment_vectors,
                                ball_resonance_k4, classify_regime,
                                coercivity_window, correction_g, coupling_xi,
                                detuned_xi, effective_mu, effective_mu_ball,
                                frequency_function_c, p0_ball,
                                p0_from_moments, plasmonic_frequency,
                                spectral_gap_delta, tensor_T)

PI3 = np.pi ** 3


def test_p0_from_ball_moments():
    p0 = p0_from_moments(ball_moment_vectors())
    assert np.max(np.abs(p0 - (12.0 / PI3) * np.eye(3))) <= 1e-12


def test_p0_from_single_moment():
    v = np.array([1.0, 2.0, 0.0])
    p0 = p0_from_moments([v])
    assert np.allclose(p0, np.outer(v, v))


def test_effective_mu_ball_closed_form():
    for xi in (0.1, 1.0, 5.0):
        for sign, s in (("+", 1.0), ("-", -1.0)):
            mu = effective_mu(xi, p0_ball(), sign)
            want = (PI3 + s * 8 * xi) / (PI3 - s * 4 * xi)
            assert np.allclose(mu, want * np.eye(3), rtol=1e-12)
            assert np.allclose(mu, effective_mu_ball(xi, sign), rtol=1e-12)


def test_mu_sign_boundaries():
    eps = 1e-6
    # lower branch: numerator root at pi^3 / 8
    assert np.real(effective_mu_ball(PI3 / 8 - eps, "-")[0, 0]) > 0
    assert np.real(effective_mu_ball(PI3 / 8 + eps, "-")[0, 0]) < 0
    # upper branch: pole at pi^3 / 4
    assert np.real(effective_mu_ball(PI3 / 4 - eps, "+")[0, 0]) > 0
    assert np.real(effective_mu_ball(PI3 / 4 + eps, "+")[0, 0]) < 0


def test_mu_large_coupling_limit():
    # exact deviation from the -2I limit: 3 pi^3 / (pi^3 + 4 xi) on the "-"
    # branch, |3 pi^3 / (pi^3 - 4 xi)| = 3 pi^3 / (4 xi - pi^3) on the "+"
    # branch (xi > pi^3/4)
    for xi in (1e6, 1e7):
        dev_minus = np.max(np.abs(effective_mu(xi, p0_ball(), "-")
                                  + 2.0 * np.eye(3)))
        dev_plus = np.max(np.abs(effective_mu(xi, p0_ball(), "+")
                                 + 2.0 * np.eye(3)))
        assert dev_minus == pytest.approx(3 * PI3 / (PI3 + 4 * xi), rel=1e-10)
        assert dev_plus == pytest.approx(3 * PI3 / (4 * xi - PI3), rel=1e-10)
    assert np.max(np.abs(effective_mu(1e7, p0_ball(), "-")
                         + 2.0 * np.eye(3))) <= 1e-5


def test_classify_regime():
    assert classify_regime(1.0, "-") == "dielectric-positive"
    assert classify_regime(PI3 / 8, "-") == "degenerate"
    assert classify_regime(5.0, "-") == "plasmonic-negative"
    assert classify_regime(5.0, "+") == "dielectric-positive"
    assert classify_regime(PI3 / 4, "+") == "degenerate"
    assert classify_regime(10.0, "+") == "plasmonic-negative"
    with pytest.raises(ValueError):
        classify_regime(-1.0, "+")


def test_degenerate_pole_raises():
    with pytest.raises(ZeroDivisionError):
        tensor_T(PI3 / 4, p0_ball(), "+")
    with pytest.raises(ZeroDivisionError):
        effective_mu_ball(PI3 / 4, "+")


def test_tensor_T_refuses_only_within_the_pole_tolerance():
    """Near the "+" pole pi^3/4 the tensor-T factor is (1 - 4 xi / pi^3) I:
    at the relative distance 10^-j from the pole its smallest singular
    value is 10^-j, above POLE_TOL for j = 3 ... 9, so the general form
    returns, as the closed form does, and the two agree to the pole's
    conditioning, 10^(j - 15) relative (5e-9 apart at j = 8)."""
    for j in range(3, 10):
        for side in (1.0, -1.0):
            xi = PI3 / 4.0 * (1.0 + side * 10.0 ** -j)
            mu = effective_mu(xi, p0_ball(), "+")
            want = effective_mu_ball(xi, "+")
            assert np.max(np.abs(mu - want)) \
                <= 10.0 ** (j - 15) * abs(want[0, 0])


def test_coupling_xi():
    assert coupling_xi(2.0, 3.0, 4.0, 0.5) == pytest.approx(
        2.0 * 9.0 / (4.0 * 0.125))


def test_dispersion_and_detuning():
    """At beta = 0 the detuned coupling is the dispersion root
    pi^3 / (4 (3 lam - 1)), and beta shifts it by beta pi^3 / 4."""
    lam = 0.4
    xi0 = detuned_xi(lam, 0.0)
    assert xi0 == pytest.approx(PI3 / (4 * (3 * lam - 1)))
    beta = 1e-3
    assert detuned_xi(lam, beta) == pytest.approx(
        xi0 + beta * PI3 / 4, rel=1e-12)
    with pytest.raises(ValueError):
        detuned_xi(0.3, 0.0)


def test_resonant_denominator_identity():
    """1 - xi(beta) Ttilde lam = -sign(beta) f(beta) exactly on the detuned
    dispersion relation (lower branch)."""
    for lam, beta in ((0.45, 2e-3), (0.37, -1e-4)):
        q = 3 * lam - 1
        xi = detuned_xi(lam, beta)
        Ttilde = np.real(tensor_T(xi, p0_ball(), "-")[0, 0])
        lhs = 1.0 - xi * Ttilde * lam
        f = amplification_f(lam, beta)
        want = -np.sign(beta) * f / (1.0 + beta * q / (3 * lam))
        assert lhs == pytest.approx(want, rel=1e-10)
        assert f == pytest.approx(abs(beta) * q ** 2 / (3 * lam))


def test_plasmonic_frequency():
    ksq, c0cr3 = plasmonic_frequency(2.0, 0.4, 0.45, 1e-3)
    assert ksq == pytest.approx((1 + 1e-3 * 0.35) / (2.0 * 0.4))
    assert c0cr3 == pytest.approx((4 / PI3) * 0.35 / 0.4)
    with pytest.raises(ValueError):
        plasmonic_frequency(2.0, 0.4, 0.3, 0.0)


def test_correction_g_is_first_order():
    lam, vol = 0.45, 4.0 * np.pi / 3.0
    g1 = correction_g(lam, 1e-4, vol)
    g2 = correction_g(lam, 2e-4, vol)
    assert g2 / g1 == pytest.approx(2.0, rel=1e-3)


def test_ball_resonance_k4():
    k4 = ball_resonance_k4(1.0, 1.0, 2.0, 0.5)
    assert k4 == pytest.approx(PI3 / 6.0)
    with pytest.raises(ValueError):
        ball_resonance_k4(1.0, 1.0, 2.0, -0.5)


def test_frequency_function_series():
    # closed form against a truncated direct series
    from math import factorial
    k, D = 0.7, 2.0
    x = k * D
    tail2 = sum(x ** n / factorial(n) for n in range(2, 40))
    tail1 = sum(x ** n / factorial(n) for n in range(1, 40))
    want = (k ** 2 + k ** 3 / 6 + k ** 2 / (4 * D) * tail2
            + k ** 3 / 16 * tail1)
    assert frequency_function_c(k, D) == pytest.approx(want, rel=1e-12)
    assert frequency_function_c(0.0, D) == 0.0


def test_spectral_gap_and_coercivity_window():
    delta, dstar = spectral_gap_delta([0.2, 0.35, 0.5])
    assert dstar == pytest.approx(0.35 - 1.0 / 3.0)
    assert delta == 1 + int(np.floor(1.0 / (12.0 * dstar)))
    lo, hi, ok = coercivity_window(0.0, 2.0, 4 * np.pi / 3, delta)
    assert lo == pytest.approx(2 * delta * PI3)
    assert hi == np.inf and ok
    lo2, hi2, ok2 = coercivity_window(0.5, 2.0, 4 * np.pi / 3, 1)
    assert hi2 == pytest.approx(np.pi ** 4 / (12 * (4 * np.pi / 3)
                                              * frequency_function_c(0.5, 2.0)))
