"""Characteristic equation of the linearized interface problem and certified
root counting in the right half-plane.

The growth rates p of slip perturbations at wavenumber k solve

    (mu/2)*(p + v_o/L)*|k|*F(k, p) + (sigma_o*p/v_o)*(a*p - (b-a)*v_o/L) = 0,

with F the elastodynamic transfer function.  Roots occur in complex-conjugate
pairs, and steady sliding is unstable at wavenumber k exactly when a root has
Re(p) > 0.  Rather than chase individual roots, count_unstable integrates the
argument of the left side around a rectangle hugging the imaginary axis and
reports the winding number, which certifies the count without trusting any
root-finder's convergence basin.  The left side is conjugate symmetric, so
the upper half of the rectangle carries half the phase change and is the
only half sampled.  certify_crossing applies that counter just above and
below a candidate critical wavenumber.

All contour arithmetic runs in the nondimensional variables p_hat = p*L/v_o
and z = p/(|k|*c1); in those terms the equation reads

    kappa*(p_hat + 1)*F(z) + p_hat*(p_hat - W) = 0,

with kappa = mu*|k|*L/(2*a*sigma_o) and W = (b-a)/a.
"""

from __future__ import annotations

import cmath
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
POLISH_STEPS = 60     # polish_root's secant steps at most
POLISH_TOL = 1e-12    # polish_root stops at a step this small, relative

# the counter's initial path parameters: 2049 points over the upper half
_PATH_START = np.linspace(0.0, 2.0, 2049)
_PATH_START.flags.writeable = False


@dataclass(frozen=True)
class CharParams:
    """Wavenumber, friction parameters, and material pair of one dispersion
    problem.  Rejects (DomainError) a k that is 0 or not finite, then the
    scales 2*a*sigma_o, L*|k|*c1 and v_o/L when they underflow to 0."""

    k: float
    friction: RateState
    bimaterial: BiMaterial

    def __post_init__(self):
        if self.k == 0.0 or not math.isfinite(self.k):
            raise DomainError(
                f"characteristic equation needs a finite k != 0, got {self.k!r}")
        fr = self.friction
        if 2.0 * fr.a * fr.sigma_o == 0.0:
            raise DomainError(f"2*a*sigma_o underflows to 0 (a = {fr.a!r}, "
                              f"sigma_o = {fr.sigma_o!r})")
        if fr.L * abs(self.k) * self.bimaterial.slow.c1 == 0.0:
            raise DomainError(f"k = {self.k!r} is too small: L*|k|*c1 underflows to 0")
        if fr.v_o / fr.L == 0.0:
            raise DomainError(f"v_o/L underflows to 0 (v_o = {fr.v_o!r}, L = {fr.L!r})")


@dataclass(frozen=True)
class RootCount:
    """Certified number of unstable roots inside a rectangular contour.

    The contour is (re_min, re_max, |im|_max) in dimensional p (1/s).
    Roots off the real axis pair with their conjugates, and real unstable
    roots arrive in pairs when both lie inside the rectangle (they split off
    a complex pair), so the count must be even.  At tiny k one real root,
    near p_hat = kappa*F(0)/W, lies left of re_min, the count is odd and
    construction fails (ROADMAP item 1).  samples is the number of
    residual evaluations on the upper half of the contour, the only half
    the counter walks (4097 when no segment needs refining).
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
    and its term-magnitude scale, at a complex scalar or ndarray p_hat.

    A Python complex p_hat runs through the same statements on Python
    numbers, with the built-in abs, and gives a Python complex and float:
    characteristic_residual's point and the counter's refinement samples
    (see _winding_on_rectangle).  An ndarray, the counter's initial path
    and confirm rounds, runs through numpy.  Every complex product keeps
    its operand order: numpy's array complex multiply is fused (FMA),
    Python's is not, so a*b and b*a can differ in the last bit, and the
    counter's samples are pinned.  In-place updates only ever put the new
    factor on the right.  A modulus that overflows leaves the scale not
    finite on both: numpy's abs returns inf where Python's raises
    OverflowError, which makes the scale inf."""
    modulus = abs if isinstance(p_hat, complex) else np.abs
    f_val = f_normalized(p_hat * nu, m, r)
    p1 = p_hat + 1.0
    resid = kappa * p1 * f_val
    resid += p_hat * (p_hat - w)
    try:
        abs_p = modulus(p_hat)
        scale = kappa * modulus(p1) * modulus(f_val)
        scale += abs_p * (abs_p + abs(w))
    except OverflowError:
        scale = math.inf
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
    magnitude scale near a neutral mode is sigma_o*a*|k*c|^2/v_o.  A k at
    which the residual overflows or is undefined (nan) raises DomainError.
    """
    fr = cp.friction
    lam = fr.v_o / fr.L
    # on Python numbers, an overflow shows as a non-finite residual,
    # reported below
    resid, _ = _residual(closed_half_plane(p) / lam, *_hat_params(cp))
    value = resid * (fr.a * fr.sigma_o * lam * lam / fr.v_o)
    if not cmath.isfinite(value):
        raise DomainError(
            f"characteristic residual is not finite at k = {cp.k!r}, p = {p!r}")
    return value


class _NearContourZero(Exception):
    """Internal: a contour sample sat too close to a root; the argument
    names the test that found it."""


def _below_scale(resid: complex, scale: float) -> bool:
    """abs(resid) < 1e-12*scale on Python numbers; a modulus that overflows,
    which Python's abs raises on, is not below (numpy's abs gives inf)."""
    try:
        return abs(resid) < 1e-12 * scale
    except OverflowError:
        return False


def _spliced(old: np.ndarray, new: np.ndarray, at: np.ndarray,
             kept: np.ndarray) -> np.ndarray:
    """old with new inserted so that new lands at the indices at; kept is
    False exactly there."""
    out = np.empty(kept.size, dtype=old.dtype)
    out[kept] = old
    out[at] = new
    return out


def _interleaved(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """even[0], odd[0], even[1], odd[1], ...; even holds as many elements as
    odd or one more."""
    out = np.empty(even.size + odd.size, dtype=even.dtype)
    out[0::2] = even
    out[1::2] = odd
    return out


def _phase_steps(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Phase increments arg(num/den) in (-pi, pi], as np.angle takes them."""
    ratio = num / den
    return np.arctan2(ratio.imag, ratio.real)


def _winding_on_rectangle(re_lo: float, re_hi: float, im_max: float, k: float,
                          params: tuple) -> tuple[int, int]:
    """Winding number of the residual at wavenumber k around the rectangle
    [re_lo, re_hi] x [-im_max, im_max], taken from the upper half of it.

    params are _hat_params's.  The residual is conjugate symmetric and real
    on the real axis, so the lower half of the boundary, traversed
    counterclockwise, mirrors the upper half traversed backwards and adds
    the same phase change.  The winding number is therefore the phase
    change along the open path up the right edge from (re_hi, 0), leftward
    along the top and down the left edge to (re_lo, 0), divided by pi.

    The path starts as 2049 uniform samples, 1/1024 of an edge apart, and
    every segment whose phase increment reaches pi/2 is bisected, round by
    round, so a root sitting a few 1e-5 away from an edge (weakly growing
    modes hug the left edge) produces local refinement instead of a missed
    half-turn.  Once all increments are small every segment is bisected
    once more and the integer must reproduce.  The initial path and the
    confirm round, which splits every segment and interleaves the midpoints
    and the halves' increments with the old arrays, are numpy arrays.  A
    refinement phase, the rounds between two of those, walks only the
    split segments on Python numbers (a round holds a few points) and
    splices its new points and increments into the arrays once, when no
    segment is left to split.  Returns (count, samples used).  Raises
    DomainError if a sample's residual is not finite, and _NearContourZero
    if one is below 1e-12 of its term scale, the phase change is not within
    1e-6 of a multiple of pi, the path would need more than 2**20 segments
    (the density of 2**21 samples on the whole boundary), or a segment to
    be split is too short to halve (its midpoint rounds onto an end), any
    of which means a root (or something indistinguishable from one)
    touches the path.  A round tests all its segments against the budget,
    then all its midpoints for being too short, then all its residuals for
    being finite, then for being small, the order sample tests an array in.
    """
    width = re_hi - re_lo
    height = 2.0 * im_max
    not_finite = ("characteristic residual is not finite on the counting "
                  f"contour at k = {k!r}")

    def sample(us: np.ndarray) -> np.ndarray:
        # the residual on the path at us ascending: [0, 0.5) right edge,
        # [0.5, 1.5) top, [1.5, 2] left; an edge with no points costs nothing
        pts = np.empty(us.shape, dtype=complex)
        i, j = np.searchsorted(us, (0.5, 1.5))
        if i:
            pts[:i] = re_hi + 1j * (-im_max + height * (us[:i] + 0.5))
        if j > i:
            pts[i:j] = (re_hi - width * (us[i:j] - 0.5)) + 1j * im_max
        if j < us.size:
            pts[j:] = re_lo + 1j * (im_max - height * (us[j:] - 1.5))
        resid, scale = _residual(pts, *params)
        if not (np.isfinite(resid).all() and np.isfinite(scale).all()):
            raise DomainError(not_finite)
        if (np.abs(resid) < 1e-12 * scale).any():
            raise _NearContourZero("a residual below 1e-12 of its scale")
        return resid

    def point(u: float) -> complex:
        # sample's point at one u, with the same bits
        if u < 0.5:
            return complex(re_hi, -im_max + height * (u + 0.5))
        if u < 1.5:
            return complex(re_hi - width * (u - 0.5), im_max)
        return complex(re_lo, im_max - height * (u - 1.5))

    def refined(us: np.ndarray, vals: np.ndarray, segments: int,
                split: np.ndarray):
        # every point the phase touches, with its u, value and the increment
        # of the segment it starts: the split segments' starts, then each
        # midpoint as it is made; the frontier holds the segments still to
        # split, in path order, as (start's index there, end's u, end's value)
        pu, pv = us[split].tolist(), vals[split].tolist()
        pinc = [0.0] * split.size
        frontier = list(zip(range(split.size), us[split + 1].tolist(),
                            vals[split + 1].tolist()))
        while frontier:
            if segments + len(frontier) > 2 ** 20:
                raise _NearContourZero("the 2**20-segment budget")
            mids = [pu[i] + 0.5 * (u_hi - pu[i]) for i, u_hi, _ in frontier]
            if any(u == pu[i] or u == u_hi
                   for u, (i, u_hi, _) in zip(mids, frontier)):
                raise _NearContourZero("a segment too short to halve")
            evals = [_residual(point(u), *params) for u in mids]
            if not all(cmath.isfinite(resid) and math.isfinite(scale)
                       for resid, scale in evals):
                raise DomainError(not_finite)
            if any(_below_scale(resid, scale) for resid, scale in evals):
                raise _NearContourZero("a residual below 1e-12 of its scale")
            segments += len(frontier)
            ahead = []
            for (i, u_hi, v_hi), u, (v, _) in zip(frontier, mids, evals):
                j = len(pu)
                pinc[i] = cmath.phase(v / pv[i])
                pu.append(u)
                pv.append(v)
                pinc.append(cmath.phase(v_hi / v))
                if abs(pinc[i]) >= 0.5 * math.pi:
                    ahead.append((i, u, v))
                if abs(pinc[j]) >= 0.5 * math.pi:
                    ahead.append((j, u_hi, v_hi))
            frontier = ahead
        # the split segments' new increments, then the new points in path
        # order: their u, values and the increments of the segments they start
        new = sorted(range(split.size, len(pu)), key=pu.__getitem__)
        return (pinc[:split.size], np.array([pu[j] for j in new]),
                np.array([pv[j] for j in new]), np.array([pinc[j] for j in new]))

    us = _PATH_START
    vals = sample(us)
    incs = _phase_steps(vals[1:], vals[:-1])
    confirmed = None
    while True:
        split = np.flatnonzero(np.abs(incs) >= 0.5 * math.pi)
        if split.size:
            confirmed = None
            first, new_us, new_vals, new_incs = refined(us, vals, incs.size, split)
            incs[split] = first
            # each new point, and the increment of the segment it starts,
            # lands after the old points below it and the new points before it
            at = np.searchsorted(us, new_us) + np.arange(new_us.size)
            kept = np.ones(us.size + new_us.size, dtype=bool)
            kept[at] = False
            us = _spliced(us, new_us, at, kept)
            vals = _spliced(vals, new_vals, at, kept)
            # one increment fewer than points; the last point is never new
            incs = _spliced(incs, new_incs, at, kept[:-1])
        turns = float(incs.sum()) / math.pi
        if abs(turns - round(turns)) >= 1e-6:
            raise _NearContourZero("a phase change off a multiple of pi")
        count = int(round(turns))
        if confirmed == count:
            return count, us.size
        confirmed = count
        # confirm round: every segment splits, so the midpoints and the two
        # halves' increments interleave with the old arrays
        if 2 * incs.size > 2 ** 20:
            raise _NearContourZero("the 2**20-segment budget")
        mid_us = us[:-1] + 0.5 * (us[1:] - us[:-1])
        mid_vals = sample(mid_us)
        incs = _interleaved(_phase_steps(mid_vals, vals[:-1]),
                            _phase_steps(vals[1:], mid_vals))
        us = _interleaved(us, mid_us)
        vals = _interleaved(vals, mid_vals)


def count_unstable(cp: CharParams) -> RootCount:
    """Count characteristic roots with Re(p) > 0, certified by winding number.

    The rectangle in p_hat = p*L/v_o spans Re in [1e-9, 10*max(1, |k|c1'L/v_o)]
    and |Im| up to 4*|k|*c1'*L/v_o, which bounds the unstable roots (the
    equation is quadratic-dominated well outside the shear-wave frequency
    band) but not from the left: at tiny k a real unstable root near
    p_hat = kappa*F(0)/W sits below 1e-9, the count comes out odd and
    RootCount raises SlipStabError (ROADMAP item 1).  Roots pair with their
    conjugates, so the count comes from the upper half of the rectangle's
    boundary (see _winding_on_rectangle).  A contour sample whose residual
    is smaller than 1e-12 of its term-magnitude scale means a root sits on
    the path: the contour is then dilated by 1% and the count retried, up
    to five times, before ContourThroughZero escapes, naming the test that
    ended the last attempt.  A k at which the residual overflows on the
    contour raises DomainError, as does a contour whose dimensional Re p
    would overflow.
    """
    params = _hat_params(cp)
    lam = cp.friction.v_o / cp.friction.L
    wave_hat = abs(cp.k) * cp.bimaterial.fast.c1 / lam
    re_lo0 = 1e-9
    re_hi0 = 10.0 * max(1.0, wave_hat)
    im_max0 = 4.0 * wave_hat
    for attempt in range(6):
        grow = 1.01 ** attempt
        re_lo = re_lo0 / grow
        re_hi = re_hi0 * grow
        im_max = im_max0 * grow
        if not re_hi * lam < math.inf:   # the largest of the three in p
            raise DomainError(f"k = {cp.k!r} with v_o/L = {lam!r} puts the "
                              f"counting contour beyond the float range")
        try:
            # an overflow shows as a non-finite residual, reported there
            with np.errstate(all="ignore"):
                count, samples = _winding_on_rectangle(re_lo, re_hi, im_max,
                                                       cp.k, params)
        except _NearContourZero as exc:
            reason = exc.args[0]
            continue
        return RootCount(
            n_unstable=count,
            contour=(re_lo * lam, re_hi * lam, im_max * lam),
            samples=samples,
        )
    raise ContourThroughZero(
        "a characteristic root stayed on the counting contour through 5 dilations; "
        f"the last attempt ended on {reason}"
    )


def _crossing_counts(p: RateState, bm: BiMaterial) -> tuple[int, int]:
    """Unstable-root counts (above, below) at (1 +/- CROSSING_MARGIN)*k_cr,
    k_cr from critical_mode; velocity weakening only."""
    k_cr = critical_mode(p, bm).mode.k_mag
    above, below = (
        count_unstable(CharParams(k=factor * k_cr, friction=p, bimaterial=bm))
        for factor in (1.0 + CROSSING_MARGIN, 1.0 - CROSSING_MARGIN))
    return above.n_unstable, below.n_unstable


def certify_crossing(p: RateState, bm: BiMaterial) -> bool:
    """Certify the predicted critical wavenumber against the root counter.

    True when no roots are unstable at (1 + CROSSING_MARGIN)*k_cr and at
    least one conjugate pair is unstable at (1 - CROSSING_MARGIN)*k_cr.
    Velocity strengthening has nothing to certify (always stable at every k
    the counter confirms): returns True.
    """
    if not p.weakening:
        return True
    above, below = _crossing_counts(p, bm)
    return above == 0 and below >= 2


def polish_root(cp: CharParams, p_seed: complex) -> complex:
    """Diagnostic root refinement by the secant method in the complex plane.

    Not used by the certified counter; handy for inspecting where a root
    actually sits (e.g. seeded from i*|k|*c of a neutral mode).  Converges
    when the step falls below POLISH_TOL relative to the root's magnitude
    scale, in at most POLISH_STEPS steps."""
    scale = max(abs(p_seed), cp.friction.v_o / cp.friction.L)
    p0 = complex(p_seed) + 1e-7 * scale
    p1 = complex(p_seed) + 1e-7j * scale
    f0 = characteristic_residual(cp, p0)
    f1 = characteristic_residual(cp, p1)
    for _ in range(POLISH_STEPS):
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
        if abs(p1 - p0) <= POLISH_TOL * max(abs(p1), scale):
            break
    return p1
