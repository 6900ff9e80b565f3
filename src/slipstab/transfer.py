"""Elastodynamic transfer function of the bonded pair of half-spaces.

F relates a slip perturbation of wavenumber k on the interface to the shear
traction it induces, in the Laplace domain: the traction transform is
-(mu/2)*|k|*F(k, p) times the slip transform, with mu the slow-side modulus.
F depends on its arguments only through z = p/(|k|*c1) and the two material
ratios, so everything here is computed in that normalized form.

Three entry points cover the three regimes used by the stability analysis:

* f_laplace   -- complex p with Re(p) >= 0 (imaginary axis taken as the
                 limit from Re(p) > 0, which IEEE signed zeros select
                 automatically),
* f_subsonic  -- real positive F on phase velocities 0 <= c < c1,
* f_intersonic -- the complex limit F1 + i*F2 on c1 < c < c1', where waves
                 radiate into the slow side but remain trapped in the fast one.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchPole, DomainError
from .materials import BiMaterial

__all__ = ["f_laplace", "f_normalized", "f_subsonic", "f_intersonic"]


def f_normalized(z, mu_ratio: float, speed_ratio: float):
    """Scale-invariant transfer function of z = p/(|k|*c1).

    F = 2*m*w'*w / (w + m*w') with w = sqrt(1 + z^2), w' = sqrt(1 + (z/r)^2),
    m = mu'/mu and r = c1'/c1, principal square roots throughout.  Accepts a
    complex scalar or any ndarray of them; returns the matching shape.
    Identical media (m = 1, r = 1) reduce F to sqrt(1 + z^2), and z = 0 gives
    the static value 2*mu'/(mu + mu').
    """
    z = np.asarray(z, dtype=complex)
    z2 = z * z
    # add 1 to the real part only and scale by 1/r^2: a real 1.0 or a complex
    # division turns the -0.0 of Im z^2 on the lower imaginary axis into +0.0
    one = complex(1.0, -0.0)
    w_slow = np.sqrt(z2 + one)
    # in place, each product's operand order kept (see dispersion._residual)
    z2 *= 1.0 / (speed_ratio * speed_ratio)
    z2 += one
    w_fast = np.sqrt(z2)
    denom = mu_ratio * w_fast
    denom += w_slow
    if (denom == 0.0).any():
        raise BranchPole("transfer-function denominator vanished")
    out = 2.0 * mu_ratio * w_fast * w_slow
    out /= denom
    if out.ndim == 0:
        return complex(out)
    return out


def f_laplace(k: float, p: complex, bm: BiMaterial) -> complex:
    """Transfer function at wavenumber k and Laplace variable p.

    Defined on the closed right half-plane; points with Re(p) = 0 are
    evaluated as the limit from Re(p) > 0 (conjugate symmetric: the sign of
    Im(p) picks the side).  k = 0 has no length scale and is rejected.
    """
    if k == 0.0:
        raise DomainError("k = 0 carries no wavelength; transfer function undefined")
    z = closed_half_plane(p) / (abs(k) * bm.slow.c1)
    return f_normalized(z, bm.mu_ratio, bm.speed_ratio)


def closed_half_plane(p: complex) -> complex:
    """p as a complex number of the closed right half-plane.

    Re(p) < 0 raises DomainError; Re(p) = -0.0 becomes +0.0, so that points
    on the imaginary axis are the limit from Re(p) > 0.
    """
    p = complex(p)
    if p.real < 0.0:
        raise DomainError(f"Re(p) must be >= 0, got p = {p}")
    return complex(0.0, p.imag) if p.real == 0.0 else p


def f_subsonic(c_over_c1: float, bm: BiMaterial) -> float:
    """Real transfer function on the subsonic branch p = i*|k|*c, 0 <= c < c1.

    F = 2*mu'*beta'*beta / (mu*beta + mu'*beta') with beta = sqrt(1 - c^2/c1^2)
    and beta' = sqrt(1 - c^2/c1'^2).  Strictly decreasing in c, from
    2*mu'/(mu + mu') at c = 0 to 0 at c = c1.

    Nothing in slipstab calls it: the solvers work with
    `f_subsonic_denominator` directly.  It is kept as the public form of
    the paper's subsonic transfer function.
    """
    x = c_over_c1
    if not 0.0 <= x < 1.0:
        raise DomainError(f"subsonic branch needs 0 <= c/c1 < 1, got {x}")
    # (1-x) is exact for x in [0.5, 1): no cancellation as c -> c1
    t = x * x / ((1.0 - x) * (1.0 + x))
    # F = 2m*beta/(h + m) with beta = 1/sqrt(1 + t)
    return float(2.0 * bm.mu_ratio
                 / (f_subsonic_denominator(t, bm.mu_ratio, bm.speed_ratio)
                    * np.sqrt(1.0 + t)))


def f_subsonic_denominator(t, mu_ratio: float, speed_ratio: float):
    """h + m, the denominator of F/beta = 2m/(h + m) of f_subsonic, at
    t = x^2/(1 - x^2), x = c/c1, floats or ndarrays; beta = 1/sqrt(1 + t).

    h = beta/beta' = r/sqrt(r^2 + t*(r - 1)*(r + 1)) falls from 1 at c = 0
    to 0 as c -> c1 (stays 1 for r = 1); t keeps x and beta accurate as
    c -> c1, for every float t.
    """
    r = speed_ratio
    return r / np.sqrt(r * r + t * ((r - 1.0) * (r + 1.0))) + mu_ratio


def f_intersonic(c_over_c1: float, bm: BiMaterial) -> complex:
    """Complex limit F1 + i*F2 on the intersonic branch c1 < c < c1'.

    Approaching p = i*|k|*c from Re(p) > 0 turns the slow-side root into
    i*s with s = sqrt(c^2/c1^2 - 1) while the fast-side root stays real,
    beta' = sqrt(1 - c^2/c1'^2).  Rationalizing,

        F1 = 2*mu*mu'*beta'*s^2 / D,   F2 = 2*(mu'*beta')^2*s / D,
        D  = (mu'*beta')^2 + (mu*s)^2,

    both strictly positive on the open interval.  Equal wave speeds leave no
    interval, so every c/c1 raises DomainError.
    """
    r = bm.speed_ratio
    if not 1.0 < c_over_c1 < r:
        raise DomainError(f"intersonic branch needs 1 < c/c1 < {r}, got {c_over_c1}")
    return complex(*f_intersonic_parts(c_over_c1 - 1.0, r - c_over_c1, bm.mu_ratio, r))


def f_intersonic_parts(u, v, mu_ratio: float, speed_ratio: float):
    """(F1, F2) of f_intersonic at c/c1 = 1 + u = r - v, floats or ndarrays.

    The distances u, v > 0 to the two wave speeds keep F1 and F2 accurate
    as c approaches c1 or c1': s^2 = u*(2 + u), beta'^2 = v*(r + c/c1)/r^2.
    """
    m, r = mu_ratio, speed_ratio
    s2 = u * (2.0 + u)
    s = np.sqrt(s2)
    beta_fast = np.sqrt(v * (r + 1.0 + u)) / r
    mb = m * beta_fast
    d = mb * mb + s2
    return 2.0 * m * beta_fast * s2 / d, 2.0 * mb * mb * s / d
