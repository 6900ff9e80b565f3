"""Independent reference for the benchmark's output checks.

Everything here is written from the formulas stated in the package's module
docstrings (transfer, neutral, dispersion, closed_forms) and from the
classical anchors they rest on: the subsonic/intersonic branch structure and
the identical-media closed form of Ranjith & Rice 2001 (JMPS 49, 341), and
the spring-block threshold of Rice & Ruina 1983 (J. Appl. Mech. 50, 343).
Nothing in this module imports slipstab, so a fault in a solver cannot hide
behind the same fault in its check.

Notation: x = c/c1 (phase velocity over the slow wave speed), m = mu'/mu,
r = c1'/c1 >= 1, W = b/a - 1, F0 = F(0) = 2m/(1+m).
"""

from __future__ import annotations

import cmath
import math

import mpmath

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------- transfer


def transfer(z: complex, m: float, r: float) -> complex:
    """F(z) = 2*m*w'*w / (w + m*w'), w = sqrt(1+z^2), w' = sqrt(1+(z/r)^2).

    Principal square roots; z = p/(|k|*c1).  On the imaginary axis, pass a
    z with real part +0.0 to get the limit from Re(p) > 0.
    """
    w = cmath.sqrt(1.0 + z * z)
    wf = cmath.sqrt(1.0 + (z / r) * (z / r))
    return 2.0 * m * wf * w / (w + m * wf)


def subsonic_f(x: float, m: float, r: float) -> float:
    """Real F on 0 <= x < 1, with the square roots factored against
    cancellation as x -> 1."""
    beta = math.sqrt((1.0 - x) * (1.0 + x))
    beta_f = math.sqrt((r - x) * (r + x)) / r
    return 2.0 * m * beta_f * beta / (beta + m * beta_f)


def intersonic_f(x: float, m: float, r: float) -> tuple[float, float]:
    """(F1, F2) on 1 < x < r: F1 = 2m*b'*s^2/D, F2 = 2(m*b')^2*s/D,
    D = (m*b')^2 + s^2, with s = sqrt(x^2-1), b' = sqrt(1-x^2/r^2)."""
    s2 = (x - 1.0) * (x + 1.0)
    s = math.sqrt(s2)
    beta_f = math.sqrt((r - x) * (r + x)) / r
    mb2 = (m * beta_f) ** 2
    d = mb2 + s2
    return 2.0 * m * beta_f * s2 / d, 2.0 * mb2 * s / d


def static_f(m: float) -> float:
    return 2.0 * m / (1.0 + m)


# ---------------------------------------------------------- neutral modes


def subsonic_q(x: float, m: float, r: float) -> float:
    """Left side of the subsonic phase equation (c/c1)/F(c) = q."""
    return x / subsonic_f(x, m, r)


def intersonic_terms(x: float, m: float, r: float, b_over_a: float):
    """(Q(x), omega*L/v_o) on the intersonic branch.

    Q(x) = sqrt(W)*x / [sqrt((F2*b/2a)^2 + W*F1^2) - F2*b/2a + F2] is the
    left side of the phase equation, and
    omega*L/v_o = sqrt((b/a)^2*F2^2/(4*F1^2) + W) - (b/a)*F2/(2*F1).
    Both root differences are rationalized: sqrt(A^2+B) - A = B/(sqrt(A^2+B)+A).
    """
    w = b_over_a - 1.0
    f1, f2 = intersonic_f(x, m, r)
    half = 0.5 * b_over_a * f2
    big = w * f1 * f1
    q_val = math.sqrt(w) * x / (big / (math.sqrt(half * half + big) + half) + f2)
    ratio = half / f1
    omega_hat = w / (math.sqrt(ratio * ratio + w) + ratio)
    return q_val, omega_hat


def intersonic_q(x: float, m: float, r: float, b_over_a: float) -> float:
    return intersonic_terms(x, m, r, b_over_a)[0]


def intersonic_k_hat(x: float, q: float, m: float, r: float,
                     b_over_a: float) -> float:
    """k_hat = |k|*L*mu*mu'/((b-a)*sigma_o*(mu+mu')) at an intersonic root.

    With |k| = omega/(x*c1) and v_o = q*2*sqrt(a(b-a))*sigma_o*c1/mu (the
    definition of q), k_hat = q*F0*(omega*L/v_o)/(x*sqrt(W)).
    """
    omega_hat = intersonic_terms(x, m, r, b_over_a)[1]
    return q * static_f(m) * omega_hat / (x * math.sqrt(b_over_a - 1.0))


def identical_closed_form(q: float) -> tuple[float, float]:
    """Identical media: x = q/sqrt(1+q^2) and k_hat = sqrt(1+q^2)."""
    root = math.sqrt(1.0 + q * q)
    return q / root, root


def intersonic_window(m: float, r: float, b_over_a: float,
                      tol: float = 1e-13) -> float:
    """q_w = min of Q(x) over 1 < x < r: the onset of the intersonic window.

    Q diverges at both ends and is unimodal in between, so a golden-section
    search finds its minimum.  The search runs in u = ln((x-1)/(r-x)), which
    resolves minima that sit close to either end.  Q is flat at the minimum,
    so q_w is accurate to rounding even though x* is only known to about
    sqrt(tol).
    """
    def q_of(u: float) -> float:
        e = math.exp(-abs(u))
        # x = (1 + r*exp(u)) / (1 + exp(u)), evaluated without overflow
        x = (r + e) / (1.0 + e) if u > 0.0 else (1.0 + r * e) / (1.0 + e)
        return intersonic_q(x, m, r, b_over_a)

    lo, hi = -40.0, 40.0
    u1 = hi - GOLDEN * (hi - lo)
    u2 = lo + GOLDEN * (hi - lo)
    q1, q2 = q_of(u1), q_of(u2)
    while hi - lo > tol * max(1.0, abs(lo) + abs(hi)):
        if q1 <= q2:
            hi, u2, q2 = u2, u1, q1
            u1 = hi - GOLDEN * (hi - lo)
            q1 = q_of(u1)
        else:
            lo, u1, q1 = u1, u2, q2
            u2 = lo + GOLDEN * (hi - lo)
            q2 = q_of(u2)
    return min(q1, q2)


def subsonic_mp(q: float, m: float, r: float, x_start: float,
                dps: int = 30) -> tuple[float, float]:
    """(x, k_hat) of the subsonic neutral mode, re-solved at `dps` digits.

    x/F(x) is strictly increasing on [0, 1), so bisection on a bracket of
    relative width 1e-6 around x_start converges to the unique root; k_hat =
    F0/F(x).  A start too far from the root to bracket it gives NaNs.
    """
    with mpmath.workdps(dps):
        mm, rr, qq = mpmath.mpf(m), mpmath.mpf(r), mpmath.mpf(q)

        def excess(x):
            beta = mpmath.sqrt((1 - x) * (1 + x))
            beta_f = mpmath.sqrt((rr - x) * (rr + x)) / rr
            f_sub = 2 * mm * beta_f * beta / (beta + mm * beta_f)
            return x / f_sub - qq, f_sub

        x0 = mpmath.mpf(x_start)
        lo, hi = x0 * (1 - mpmath.mpf(1e-6)), min(x0 * (1 + mpmath.mpf(1e-6)), (1 + x0) / 2)
        if not (excess(lo)[0] < 0 < excess(hi)[0]):
            return math.nan, math.nan
        for _ in range(4 * dps):
            mid = (lo + hi) / 2
            if excess(mid)[0] < 0:
                lo = mid
            else:
                hi = mid
        x = (lo + hi) / 2
        return float(x), float(2 * mm / (1 + mm) / excess(x)[1])


# ------------------------------------------------- characteristic equation


def characteristic(p_hat: complex, kappa: float, nu: float, w: float,
                   m: float, r: float) -> tuple[complex, float]:
    """(residual, magnitude scale) of the nondimensional characteristic
    equation kappa*(p_hat + 1)*F(nu*p_hat) + p_hat*(p_hat - W) = 0.

    p_hat = p*L/v_o, kappa = mu*|k|*L/(2*a*sigma_o), nu = v_o/(L*|k|*c1).
    """
    elastic = kappa * (p_hat + 1.0) * transfer(nu * p_hat, m, r)
    frictional = p_hat * (p_hat - w)
    return elastic + frictional, abs(elastic) + abs(p_hat) * (abs(p_hat) + w)


def hat_params(k: float, a: float, b: float, L: float, sigma_o: float,
               v_o: float, mu: float, c1: float) -> tuple[float, float, float]:
    """(kappa, nu, W) for wavenumber k and dimensional parameters."""
    kappa = mu * abs(k) * L / (2.0 * a * sigma_o)
    nu = v_o / (L * abs(k) * c1)
    return kappa, nu, (b - a) / a


def unstable_witness(x_seed: float, kappa: float, nu: float, w: float,
                     m: float, r: float, steps: int = 50) -> tuple[complex, float]:
    """A root of the characteristic equation near p_hat = i*x_seed/nu.

    Returns (p_hat, |residual|/scale at p_hat), or NaN and inf when Newton
    lands off the principal branch.  Roots of weakly growing modes sit close
    to the slow-wave branch point z = i, where F has a square-root
    singularity and Newton in p stalls.  The complex Newton iteration
    therefore runs in s = sqrt(1 + z^2), which uniformizes that branch
    point: z = i*sqrt(1 - s^2), w' = sqrt(r^2 - 1 + s^2)/r, and the equation
    is analytic in s (so a central difference along real s is its
    derivative).  It starts from the neutral point s = sqrt(1 - x_seed^2),
    i.e. p = i*omega.  Re(p_hat) > 0 together with Re(s) > 0 (the principal
    branch) marks an unstable root.
    """
    def residual(s: complex) -> complex:
        p_hat = 1j * cmath.sqrt(1.0 - s * s) / nu
        s_fast = cmath.sqrt(r * r - 1.0 + s * s) / r
        return (kappa * (p_hat + 1.0) * 2.0 * m * s_fast * s / (s + m * s_fast)
                + p_hat * (p_hat - w))

    s = complex(math.sqrt((1.0 - x_seed) * (1.0 + x_seed)), 0.0)
    for _ in range(steps):
        h = 1e-7 * abs(s)
        step = residual(s) * 2.0 * h / (residual(s + h) - residual(s - h))
        s -= step
        if abs(step) <= 1e-15 * abs(s):
            break
    if not s.real > 0.0:
        return complex(math.nan, math.nan), math.inf
    p_hat = 1j * cmath.sqrt(1.0 - s * s) / nu
    res, scale = characteristic(p_hat, kappa, nu, w, m, r)
    return p_hat, abs(res) / scale


# ------------------------------------------------------------ spring block


def spring_block(a: float, b: float, L: float, sigma_o: float, v_o: float,
                 mass: float = 0.0) -> tuple[float, float]:
    """(K_cr, omega): K_cr = sigma_o*(b-a)/L*[1 + m*v_o^2/(a*sigma_o*L)],
    omega = sqrt((b-a)/a)*v_o/L (Rice & Ruina 1983)."""
    k_cr = sigma_o * (b - a) / L * (1.0 + mass * v_o * v_o / (a * sigma_o * L))
    return k_cr, math.sqrt((b - a) / a) * v_o / L
