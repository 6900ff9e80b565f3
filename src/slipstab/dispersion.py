"""Characteristic equation of the linearized interface problem and certified
root counting in the right half-plane.

The growth rates p of slip perturbations at wavenumber k solve

    (mu/2)*(p + v_o/L)*|k|*F(k, p) + (sigma_o*p/v_o)*(a*p - (b-a)*v_o/L) = 0,

with F the elastodynamic transfer function.  Roots occur in complex-conjugate
pairs, and steady sliding is unstable at wavenumber k exactly when a root has
Re(p) > 0.  Rather than chase individual roots, count_unstable integrates the
argument of the left side around a rectangle hugging the imaginary axis and
reports the winding number, which certifies the count without trusting any
root-finder's convergence basin.  certify_crossing applies that counter just
above and below a candidate critical wavenumber.

All contour arithmetic runs in the nondimensional variables p_hat = p*L/v_o
and z = p/(|k|*c1); in those terms the equation reads

    kappa*(p_hat + 1)*F(z) + p_hat*(p_hat - W) = 0,

with kappa = mu*|k|*L/(2*a*sigma_o) and W = (b-a)/a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourThroughZero, DomainError, SlipStabError
from .friction import RateState
from .materials import BiMaterial
from .neutral import critical_mode
from .transfer import closed_half_plane, f_normalized

__all__ = [
    "CharParams",
    "RootCount",
    "characteristic_residual",
    "count_unstable",
    "certify_crossing",
    "polish_root",
]

CROSSING_MARGIN = 0.05   # certify_crossing and its gate count at (1 -/+ this)*k_cr


@dataclass(frozen=True)
class CharParams:
    """Wavenumber, friction parameters, and material pair of one dispersion
    problem."""

    k: float
    friction: RateState
    bimaterial: BiMaterial

    def __post_init__(self):
        if self.k == 0.0:
            raise DomainError("characteristic equation needs k != 0")


@dataclass(frozen=True)
class RootCount:
    """Certified number of unstable roots inside a rectangular contour.

    The contour is (re_min, re_max, |im|_max) in dimensional p (1/s).
    Roots off the real axis pair with their conjugates, and real unstable
    roots also arrive in pairs here (they split off a complex pair inside
    the rectangle), so the count must be even.
    """

    n_unstable: int
    contour: tuple[float, float, float]
    samples: int

    def __post_init__(self):
        if self.n_unstable < 0 or self.n_unstable % 2 != 0:
            raise SlipStabError(
                f"root count must be even and nonnegative, got {self.n_unstable}"
            )


def _residual(p_hat, kappa: float, nu: float, w: float, m: float, r: float):
    """Nondimensional left side kappa*(p_hat + 1)*F(nu*p_hat) + p_hat*(p_hat - W)
    and its term-magnitude scale, at a complex scalar or ndarray p_hat."""
    f_val = f_normalized(p_hat * nu, m, r)
    resid = kappa * (p_hat + 1.0) * f_val + p_hat * (p_hat - w)
    scale = (kappa * np.abs(p_hat + 1.0) * np.abs(f_val)
             + np.abs(p_hat) * (np.abs(p_hat) + abs(w)))
    return resid, scale


def _hat_params(cp: CharParams) -> tuple[float, float, float, float, float]:
    """(kappa, nu, W, mu_ratio, speed_ratio) of the nondimensional equation."""
    fr = cp.friction
    bm = cp.bimaterial
    kappa = bm.slow.mu * abs(cp.k) * fr.L / (2.0 * fr.a * fr.sigma_o)
    nu = fr.v_o / (fr.L * abs(cp.k) * bm.slow.c1)
    w = (fr.b - fr.a) / fr.a
    return kappa, nu, w, bm.mu_ratio, bm.speed_ratio


def characteristic_residual(cp: CharParams, p: complex) -> complex:
    """Left side of the characteristic equation at Laplace variable p.

    The nondimensional residual times a*sigma_o*lam^2/v_o, lam = v_o/L, on
    the closed right half-plane of f_laplace (see closed_half_plane).
    Conjugate symmetric: residual(conj(p)) = conj(residual(p)).  The natural
    magnitude scale near a neutral mode is sigma_o*a*|k*c|^2/v_o.
    """
    fr = cp.friction
    lam = fr.v_o / fr.L
    resid, _ = _residual(closed_half_plane(p) / lam, *_hat_params(cp))
    return complex(resid) * (fr.a * fr.sigma_o * lam * lam / fr.v_o)


class _NearContourZero(Exception):
    """Internal: a contour sample sat too close to a root."""


def _winding_on_rectangle(re_lo: float, re_hi: float, im_max: float,
                          kappa: float, nu: float, w: float,
                          m: float, r: float) -> tuple[int, int]:
    """Winding number of the nondimensional residual around the rectangle.

    Starts from a uniform counterclockwise boundary sampling and bisects
    every segment whose phase increment reaches pi/2, so a root sitting a
    few 1e-5 away from an edge (weakly growing modes hug the left edge)
    produces local refinement instead of a missed half-turn.  Once all
    increments are small the whole boundary is doubled once more and the
    integer must reproduce.  Returns (count, samples used).  Raises
    _NearContourZero if any sample's residual is smaller than 1e-12 of its
    term-magnitude scale or the refinement budget is exhausted, either of
    which means a root (or something indistinguishable from one) touches
    the path.
    """
    width = re_hi - re_lo
    height = 2.0 * im_max

    def boundary(ts: np.ndarray) -> np.ndarray:
        # piecewise-linear map of [0, 4) onto the rectangle, counterclockwise
        seg = np.floor(ts).astype(np.int64)
        frac = ts - seg
        pts = np.empty(ts.shape, dtype=complex)
        sel = seg == 0
        pts[sel] = (re_lo + width * frac[sel]) - 1j * im_max
        sel = seg == 1
        pts[sel] = re_hi + 1j * (-im_max + height * frac[sel])
        sel = seg == 2
        pts[sel] = (re_hi - width * frac[sel]) + 1j * im_max
        sel = seg == 3
        pts[sel] = re_lo + 1j * (im_max - height * frac[sel])
        return pts

    def residual_at(ts: np.ndarray) -> np.ndarray:
        resid, scale = _residual(boundary(ts), kappa, nu, w, m, r)
        if np.any(np.abs(resid) < 1e-12 * scale):
            raise _NearContourZero
        return resid

    ts = np.linspace(0.0, 4.0, 4096, endpoint=False)
    vals = residual_at(ts)
    budget = 2 ** 21
    confirmed = None
    while True:
        gaps = np.roll(ts, -1) - ts
        gaps[-1] += 4.0
        incs = np.angle(np.roll(vals, -1) / vals)
        coarse = np.abs(incs) >= 0.5 * math.pi
        if coarse.any():
            confirmed = None
            mid_ts = (ts[coarse] + 0.5 * gaps[coarse]) % 4.0
        else:
            winding = float(np.sum(incs)) / (2.0 * math.pi)
            if abs(winding - round(winding)) >= 1e-6:
                raise _NearContourZero
            count = int(round(winding))
            if confirmed == count:
                return count, ts.size
            confirmed = count
            mid_ts = (ts + 0.5 * gaps) % 4.0
        if ts.size + mid_ts.size > budget:
            raise _NearContourZero
        ts = np.concatenate([ts, mid_ts])
        vals = np.concatenate([vals, residual_at(mid_ts)])
        order = np.argsort(ts)
        ts = ts[order]
        vals = vals[order]


def count_unstable(cp: CharParams) -> RootCount:
    """Count characteristic roots with Re(p) > 0, certified by winding number.

    The rectangle in p_hat = p*L/v_o spans Re in [1e-9, 10*max(1, |k|c1'L/v_o)]
    and |Im| up to 4*|k|*c1'*L/v_o, which contains every unstable root (the
    equation is quadratic-dominated well outside the shear-wave frequency
    band).  If a root sits on the path the contour is dilated by 1% and the
    count retried, up to five times, before ContourThroughZero escapes.
    """
    kappa, nu, w, m, r = _hat_params(cp)
    fr = cp.friction
    lam = fr.v_o / fr.L
    wave_hat = abs(cp.k) * cp.bimaterial.fast.c1 / lam

    re_lo0 = 1e-9
    re_hi0 = 10.0 * max(1.0, wave_hat)
    im_max0 = 4.0 * wave_hat
    for attempt in range(6):
        grow = 1.01 ** attempt
        re_lo = re_lo0 / grow
        re_hi = re_hi0 * grow
        im_max = im_max0 * grow
        try:
            count, samples = _winding_on_rectangle(re_lo, re_hi, im_max,
                                                   kappa, nu, w, m, r)
        except _NearContourZero:
            continue
        return RootCount(
            n_unstable=count,
            contour=(re_lo * lam, re_hi * lam, im_max * lam),
            samples=samples,
        )
    raise ContourThroughZero(
        "a characteristic root stayed on the counting contour through 5 dilations"
    )


def certify_crossing(p: RateState, bm: BiMaterial) -> bool:
    """Certify the predicted critical wavenumber against the root counter.

    True when no roots are unstable at (1 + CROSSING_MARGIN)*k_cr and at
    least one conjugate pair is unstable at (1 - CROSSING_MARGIN)*k_cr.
    Velocity strengthening has nothing to certify (always stable at every k
    the counter confirms): returns True.
    """
    if not p.weakening:
        return True
    k_cr = critical_mode(p, bm).mode.k_mag
    above = count_unstable(CharParams(k=(1.0 + CROSSING_MARGIN) * k_cr,
                                      friction=p, bimaterial=bm))
    below = count_unstable(CharParams(k=(1.0 - CROSSING_MARGIN) * k_cr,
                                      friction=p, bimaterial=bm))
    return above.n_unstable == 0 and below.n_unstable >= 2


def polish_root(cp: CharParams, p_seed: complex, steps: int = 60,
                tol: float = 1e-12) -> complex:
    """Diagnostic root refinement by the secant method in the complex plane.

    Not used by the certified counter; handy for inspecting where a root
    actually sits (e.g. seeded from i*|k|*c of a neutral mode).  Converges
    when the step falls below tol relative to the root's magnitude scale.
    """
    scale = max(abs(p_seed), cp.friction.v_o / cp.friction.L)
    p0 = complex(p_seed) + 1e-7 * scale
    p1 = complex(p_seed) + 1e-7j * scale
    f0 = characteristic_residual(cp, p0)
    f1 = characteristic_residual(cp, p1)
    for _ in range(steps):
        df = f1 - f0
        if df == 0.0:
            break
        p2 = p1 - f1 * (p1 - p0) / df
        if p2.real < 0.0:
            # stay in the closed right half-plane where F is defined
            p2 = complex(0.0, p2.imag)
        p0, f0 = p1, f1
        p1 = p2
        f1 = characteristic_residual(cp, p1)
        if abs(p1 - p0) <= tol * max(abs(p1), scale):
            break
    return p1
