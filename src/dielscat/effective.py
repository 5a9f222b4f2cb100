# Closed-form effective-medium algebra: coupling constant, polarization
# tensor, the tensor T, effective permeability with its sign regimes,
# dispersion roots and detuning, plasmonic frequencies, and the
# coercivity/frequency bounds for the volume integral equation.

import numpy as np

from .geometry import parse_sign

PI3 = np.pi ** 3

# relative smallness of a denominator that flags a degenerate pole
POLE_TOL = 1e-10


def coupling_xi(eta0, k, c0, c_r):
    """Dimensionless coupling xi = eta0 k^2 / (c0 c_r^3)."""
    return eta0 * k ** 2 / (c0 * c_r ** 3)


def p0_from_moments(moments):
    """Polarization tensor sum_l v_l (conj v_l)^T from moment vectors."""
    moments = [np.asarray(v, dtype=complex) for v in moments]
    if not moments:
        raise ValueError("need at least one moment vector")
    out = np.zeros((3, 3), dtype=complex)
    for v in moments:
        out += np.outer(v, np.conj(v))
    return out


def ball_moment_vectors():
    """The three resonant moment vectors of the unit ball."""
    c1 = np.sqrt(6.0 / np.pi) / np.pi
    c2 = 2.0 * np.sqrt(3.0 / np.pi) / np.pi
    return [np.array([c1, -1j * c1, 0.0]),
            np.array([0.0, 0.0, c2], dtype=complex),
            np.array([-c1, -1j * c1, 0.0])]


def p0_ball():
    """Ball polarization tensor (12/pi^3) I."""
    return (12.0 / PI3) * np.eye(3, dtype=complex)


def tensor_T(xi, p0, sign):
    """T = (I - (xi / (3 sign)) P0)^-1 P0.

    For the ball this reduces to (1 - sign * 4 xi / pi^3)^-1 (12/pi^3) I.
    """
    s = parse_sign(sign)
    factor = np.eye(3, dtype=complex) - (xi / (3.0 * s)) * p0
    if np.abs(np.linalg.det(factor)) < POLE_TOL:
        raise ZeroDivisionError("degenerate xi: singular tensor-T factor")
    return np.linalg.solve(factor, p0.astype(complex))


def effective_mu(xi, p0, sign):
    """Relative effective permeability I + sign * xi * T."""
    s = parse_sign(sign)
    return np.eye(3, dtype=complex) + s * xi * tensor_T(xi, p0, sign)


def effective_mu_ball(xi, sign):
    """Ball closed form (pi^3 + sign 8 xi) / (pi^3 - sign 4 xi) I."""
    s = parse_sign(sign)
    denom = PI3 - s * 4.0 * xi
    if abs(denom) < POLE_TOL * PI3:
        raise ZeroDivisionError("degenerate xi: permeability pole")
    return (PI3 + s * 8.0 * xi) / denom * np.eye(3, dtype=complex)


def effective_eps():
    """Relative effective permittivity: always the identity."""
    return np.eye(3, dtype=complex)


def classify_regime(xi, sign):
    """Sign regime of the ball permeability for the given branch.

    Lower branch: positive for 0 < xi < pi^3/8, negative beyond; upper
    branch: positive for 0 < xi < pi^3/4 (below the pole), negative beyond.
    Zeros and poles classify as degenerate.
    """
    s = parse_sign(sign)
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    zero = PI3 / 8.0  # numerator root when s = -1
    pole = PI3 / 4.0  # denominator root when s = +1
    tol = POLE_TOL * PI3
    if s < 0:
        if abs(xi - zero) < tol:
            return "degenerate"
        return "dielectric-positive" if xi < zero else "plasmonic-negative"
    if abs(xi - pole) < tol:
        return "degenerate"
    return "dielectric-positive" if xi < pole else "plasmonic-negative"


def dispersion_xi(lam):
    """Dispersion root xi_n = pi^3 / (4 (3 lam - 1)), needs lam > 1/3."""
    if lam <= 1.0 / 3.0:
        raise ValueError("dispersion root requires an eigenvalue > 1/3")
    return PI3 / (4.0 * (3.0 * lam - 1.0))


def detuned_xi(lam, beta):
    """Coupling detuned off the dispersion root: (pi^3/4)(1/(3lam-1) + beta)."""
    if lam <= 1.0 / 3.0:
        raise ValueError("detuning requires an eigenvalue > 1/3")
    return (PI3 / 4.0) * (1.0 / (3.0 * lam - 1.0) + beta)


def amplification_f(lam, beta):
    """Resonant denominator f = |beta| (3 lam - 1)^2 / (3 lam)."""
    return abs(beta) * (3.0 * lam - 1.0) ** 2 / (3.0 * lam)


def correction_g(lam, beta, vol_omega):
    """First-order effective-permeability correction g(beta) = O(|beta|)."""
    num = beta * (2.0 - 3.0 * lam - 1.0 / (3.0 * lam))
    den = 1.0 + beta * (3.0 * lam - 1.0)
    return np.pi * lam / vol_omega * num / den


def plasmonic_frequency(eta0, lambda_b, lambda_omega, beta):
    """Incident k^2 exciting the detuned dispersion root.

    Returns (k^2, c0 c_r^3) with
        k^2 = (1 + beta (3 lambda_omega - 1)) / (eta0 lambda_b)
        c0 c_r^3 = (4/pi^3) (3 lambda_omega - 1) / lambda_b   (leading order).
    """
    if lambda_omega <= 1.0 / 3.0:
        raise ValueError("plasmonic frequency requires lambda_omega > 1/3")
    ksq = (1.0 + beta * (3.0 * lambda_omega - 1.0)) / (eta0 * lambda_b)
    if ksq <= 0:
        raise ValueError("infeasible detuning: k^2 <= 0")
    c0cr3 = (4.0 / PI3) * (3.0 * lambda_omega - 1.0) / lambda_b
    return ksq, c0cr3


def ball_resonance_k4(c0, c_r, eta0, inner):
    """Resonant k^4 = pi^3 c0 c_r^3 / (6 eta0 inner) for the ball.

    inner is the quadratic form of N + N' on the lowest ball eigenfunction,
    supplied by the volume-operator diagnostics; it must be positive.
    """
    if inner <= 0:
        raise ValueError("inner product <(N+N')e1; e1> must be positive")
    return PI3 * c0 * c_r ** 3 / (6.0 * eta0 * inner)


def frequency_function_c(k, diam_omega):
    """Frequency function c(k) controlling the coercivity upper bound.

    c(k) = k^2 + k^3/6 + (k^2/(4 D)) sum_{n>=2} (kD)^n/n!
         + (k^3/16) sum_{n>=1} (kD)^n/n!,  D = diam(Omega),
    with the series summed in closed form via exponential remainders.
    """
    if k < 0 or diam_omega <= 0:
        raise ValueError("need k >= 0 and a positive diameter")
    x = k * diam_omega
    tail2 = np.expm1(x) - x          # sum_{n>=2} x^n / n!
    tail1 = np.expm1(x)              # sum_{n>=1} x^n / n!
    return (k ** 2 + k ** 3 / 6.0
            + k ** 2 / (4.0 * diam_omega) * tail2
            + k ** 3 / 16.0 * tail1)


def spectral_gap_delta(eigenvalues):
    """delta = 1 + floor(1 / (12 delta_star)), delta_star = min |lam - 1/3|."""
    gaps = [abs(lam - 1.0 / 3.0) for lam in eigenvalues]
    delta_star = min(g for g in gaps if g > 0)
    return 1 + int(np.floor(1.0 / (12.0 * delta_star))), delta_star


def coercivity_window(k, diam_omega, vol_omega, delta):
    """Admissible coupling interval (2 delta pi^3, pi^4 / (12 |Omega| c(k))).

    Returns (xi_min, xi_max, nonempty); k = 0 yields an unbounded window.
    """
    xi_min = 2.0 * delta * PI3
    ck = frequency_function_c(k, diam_omega)
    if ck <= 0:
        return xi_min, np.inf, True
    xi_max = np.pi ** 4 / (12.0 * vol_omega * ck)
    return xi_min, xi_max, xi_min < xi_max
