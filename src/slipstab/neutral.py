"""Neutral (Hopf) modes of steady sliding and the critical wavenumber.

At a neutral mode the characteristic equation of the linearized interface
problem has a purely imaginary root p = i*|k|*c.  Splitting that condition
into real and imaginary parts leaves, per branch of the transfer function,
one scalar equation for the phase velocity c and one for the wavenumber:

* subsonic (0 < c < c1):  (c/c1)/F(c) = q, with q the nondimensional sliding
  velocity; then |k|*c = sqrt((b-a)/a)*v_o/L, independent of elasticity.
* intersonic (c1 < c < c1'):  Q(c) = sqrt(b/a-1)*(c/c1) /
  [sqrt((F2*b/2a)^2 + (b/a-1)*F1^2) - F2*b/2a + F2] = q; then
  |k|*c = [sqrt((b/a)^2*F2^2/(4*F1^2) + (b-a)/a) - (b/a)*F2/(2*F1)]*v_o/L.

Reported wavenumbers are normalized as k_hat = |k|*L*mu*mu' /
((b-a)*sigma_o*(mu+mu')), which tends to 1 in the quasi-static limit q -> 0.
On the subsonic branch k_hat = F(0)/F(c) identically.

Q does not depend on q and has one minimum q_w on (c1, c1') (Ranjith & Rice
2001, JMPS 49, 341): no intersonic mode for q <= q_w, exactly two above it.
sweep_q solves a whole q grid in one bracketed root search, the subsonic
root of every q and the intersonic roots of every q above q_w as elements
of one array.  Every intersonic mode has k_hat < F(0)*q < subsonic k_hat
(see critical_mode_q): the critical mode is subsonic.

The solvers are nondimensional: they depend on q, b/a and the two material
ratios only.  critical_mode alone attaches |k| and omega to its mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .closed_forms import _omega
from .errors import DomainError, SlipStabError
from .friction import RateState, nondim_q
from .materials import BiMaterial
from .transfer import f_intersonic_parts, f_subsonic_denominator

__all__ = ["Branch", "NeutralMode", "StabilityVerdict", "SweepTable", "sweep_q",
           "solve_subsonic", "solve_intersonic", "critical_mode", "critical_mode_q"]

_FLOAT = np.finfo(float)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section range in tau of the window minimum (within [-13.1, 5.2] for
# m, r - 1, b/a - 1 in [1e-2, 1e2], [1e-3, 31.6], [1e-3, 10]); outer root
# brackets, where u or v is (r - 1)*e^-600 and Q about 1e130
_TAU_WINDOW = 40.0
_TAU_END = 600.0
# largest b/a of the intersonic solvers: above about 1e154 the square of
# 0.5*(b/a)*F2 in the window's phase equation overflows, and at 1e150 the
# k_hat of q near 1e100 does; up to 1e100 no tested (m, r, q) overflows
_MAX_B_OVER_A = 1e100
# step cap of the regula falsi; reaching it raises SlipStabError
_MAX_STEPS = 200
# tolerance of the intersonic root search in tau; the subsonic one runs to
# adjacent floats (0)
_INTERSONIC_RTOL = 2.0 * _FLOAT.eps


class Branch(str, Enum):
    """Which branch of the transfer function carries the neutral mode."""

    SUBSONIC = "subsonic"
    INTERSONIC = "intersonic"


@dataclass(frozen=True)
class NeutralMode:
    """One neutrally propagating perturbation of steady sliding at
    nondimensional sliding velocity q.

    q, c_over_c1 and k_hat are always set; only critical_mode fills in k_mag
    (1/m) and omega (rad/s), from the friction parameters it was given.
    """

    q: float
    branch: Branch
    c_over_c1: float
    k_hat: float
    k_mag: float | None = None
    omega: float | None = None


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the critical-mode search: the neutral mode of largest
    wavenumber, or None for b <= a, which is stable at every wavenumber."""

    mode: NeutralMode | None = None


@dataclass(frozen=True)
class SweepTable:
    """Neutral modes over a q grid as equal-length columns, one row per mode:
    Python floats and Branch members.  Rows are in grid order, each q's
    subsonic mode first, then its intersonic modes by ascending c."""

    q: tuple[float, ...]
    branch: tuple[Branch, ...]
    c_over_c1: tuple[float, ...]
    k_hat: tuple[float, ...]


def _bracketed_roots(f, a, fa, b, fb, rtol):
    """Root of f between a and b, by Anderson-Bjorck regula falsi: one root
    for float ends, one per element for arrays.

    fa = f(a) and fb = f(b) lie on opposite sides of zero in every element,
    f = 0 counting as negative.  A regula falsi point not strictly inside
    falls back to the float next to the newest end if it fell on that end,
    else to the midpoint.  rtol = 0 runs to adjacent floats, the outcome of
    bisection; rtol > 0 stops at a bracket no wider than rtol*(1 + |b|) or
    a residual within rtol of zero.  Returns the end with the smaller
    residual (the negative one on a tie).

    Float ends run as np.float64 through the statements arrays run, with a
    one-element where for np.where, so a float gets a one-element array's
    bits; arrays may also take an array rtol, one per element.  Each step
    evaluates f once; the unscaled f(a) is kept beside the scaled fa, so
    picking an end evaluates nothing.
    """
    if isinstance(a, np.ndarray):
        where = np.where
    else:
        a, fa, b, fb = map(np.float64, (a, fa, b, fb))

        def where(cond, x, y):   # one element: x or y itself, no 0-d array
            return x if cond else y
    ra = fa   # f(a) as evaluated; fa is scaled down while a stays put
    exact = rtol == 0.0   # these elements run on while fb == 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_STEPS):
            d = b - a
            mid = a + 0.5 * d
            live = (mid != a) & (mid != b) & (exact | (
                (abs(d) > rtol * (1.0 + abs(b))) & (abs(fb) > rtol)))
            if not live.any():
                break
            c = b - fb * (d / (fb - fa))
            c = where((c - a) * (c - b) < 0.0, c,
                      where(c == b, np.nextafter(b, a), mid))
            # a stopped element re-evaluates b, which changes nothing, so
            # each element's result is the one it would get alone
            c = where(live, c, b)
            fc = f(c)
            swap = (fc > 0.0) != (fb > 0.0)
            shrink = 1.0 - fc / fb
            fa = where(swap, fb, where(shrink > 0.0, shrink, 0.5) * fa)
            ra = where(swap, fb, ra)
            a = where(swap, b, a)
            b, fb = c, fc
        else:
            raise SlipStabError("neutral-mode root search did not converge")
    pick_a = (abs(ra) < abs(fb)) | ((abs(ra) == abs(fb)) & (ra <= 0.0))
    return where(pick_a, a, b)


def _subsonic_brackets(qs, m: float, r: float):
    """(residual, t_lo, r_lo, t_hi, r_hi): the root search of the subsonic
    modes at q, an np.float64 or an array, in t = x^2/(1 - x^2), x = c/c1.

    With h + m = f_subsonic_denominator(t), x/F(c) = q becomes the
    increasing g(t) = sqrt(t)*(h + m)/(2m) = q; t keeps x and 1 - x^2 (hence
    k_hat) accurate for all q.  T(t) = (2mq/(h + m))^2 increases and fixes
    the root, and h falls from 1 towards 0, so T of (2mq/(1 + m))^2 and of
    (2q)^2 bracket it; these brackets, widened by 1e-12, are clamped to the
    normal floats, and a root t cannot represent raises DomainError: it
    needs about F(0)*q = 2mq/(1 + m) >= 1e-154 and q <= 1e154.  Called,
    like _subsonic_finish, with overflow, underflow and invalid ignored.
    """
    def resid(t):
        # (g^2 - q^2)/q: the sign of g - q, nearly linear in t
        g = np.sqrt(t) * f_subsonic_denominator(t, m, r) / (2.0 * m)
        return (g - qs) * (g / qs + 1.0)

    def image(s):  # T(t), from s = h(t) + m
        root = 2.0 * m * qs / s
        return root * root

    t_lo = image(f_subsonic_denominator(image(1.0 + m), m, r)) * (1.0 - 1e-12)
    t_hi = image(f_subsonic_denominator(image(m), m, r)) * (1.0 + 1e-12)
    t_lo, t_hi = (np.minimum(np.maximum(t, _FLOAT.tiny), _FLOAT.max)
                  for t in (t_lo, t_hi))
    r_lo, r_hi = resid(t_lo), resid(t_hi)
    outside = ~((r_lo <= 0.0) & (r_hi > 0.0))
    if outside.any():
        raise DomainError(f"q = {float(np.extract(outside, qs)[0])} with mu_ratio"
                          f" = {m} lies outside the range the subsonic solve"
                          f" resolves, which needs about 2*mu_ratio*q/(1 + mu_ratio)"
                          f" >= 1e-154 and q <= 1e154")
    return resid, t_lo, r_lo, t_hi, r_hi


def _subsonic_finish(t, m: float, r: float):
    """(c/c1, k_hat) of the subsonic modes at their roots t, as lists."""
    # k_hat = F(0)/F(c) = F(0)*(h + m)/(2m*beta), from t so no accuracy is
    # lost as c -> c1
    k_hat = (2.0 * m / (1.0 + m) * f_subsonic_denominator(t, m, r)
             * np.sqrt(1.0 + t) / (2.0 * m))
    # c/c1 rounds onto 1 from q of about 7e7: the float below 1 keeps c < c1,
    # as identical_isotropic_dynamic keeps c < c_s
    x = np.minimum(np.sqrt(t / (1.0 + t)), math.nextafter(1.0, 0.0))
    return x.tolist(), k_hat.tolist()


def _subsonic_modes(qs, m: float, r: float):
    """(c/c1, k_hat) of the subsonic modes at q: Python floats for a float q,
    lists of them for an array of q.  A float q runs as an np.float64
    through the same brackets, residual, root search and k_hat, so it gets
    the bits of the matching array element."""
    qs = np.float64(qs) if isinstance(qs, float) else qs
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        resid, t_lo, r_lo, t_hi, r_hi = _subsonic_brackets(qs, m, r)
        t = _bracketed_roots(resid, t_lo, r_lo, t_hi, r_hi, 0.0)
        return _subsonic_finish(t, m, r)


def _intersonic_terms(tau, m: float, r: float, b_over_a: float):
    """(Q, u, v, F1, F2) at tau = ln(u/v), u = c/c1 - 1, v = c1'/c1 - c/c1,
    Python floats for a float tau, else ndarrays.  u and v keep Q accurate
    at both ends of (c1, c1'); the root difference is rationalized:
    sqrt(A^2 + B) - A = B/(sqrt(A^2 + B) + A)."""
    scalar = isinstance(tau, float)
    e = float(np.exp(tau)) if scalar else np.exp(tau)
    u, v = (r - 1.0) / (1.0 + 1.0 / e), (r - 1.0) / (1.0 + e)
    f1, f2 = f_intersonic_parts(u, v, m, r)
    w = b_over_a - 1.0
    half = 0.5 * b_over_a * f2
    big = w * f1 * f1
    root = (math.sqrt if scalar else np.sqrt)(half * half + big)
    q_val = math.sqrt(w) * (1.0 + u) / (big / (root + half) + f2)
    return q_val, u, v, f1, f2


def _intersonic_window(m: float, r: float, b_over_a: float) -> tuple[float, float]:
    """(tau*, q_w): the minimiser of Q in tau, by golden section, and Q there.
    Q is flat at its minimum, so a 1e-8 tau bracket gives q_w to rounding."""
    def q_at(tau: float) -> float:
        try:
            return _intersonic_terms(tau, m, r, b_over_a)[0]
        except ZeroDivisionError:   # F1 and F2 underflow: 0/0, nan in numpy
            return math.nan

    lo, hi = -_TAU_WINDOW, _TAU_WINDOW
    t1, t2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    q1, q2 = q_at(t1), q_at(t2)
    while hi - lo > 1e-8:
        if q1 <= q2:
            hi, t2, q2 = t2, t1, q1
            t1 = hi - _GOLDEN * (hi - lo)
            q1 = q_at(t1)
        else:
            lo, t1, q1 = t1, t2, q2
            t2 = lo + _GOLDEN * (hi - lo)
            q2 = q_at(t2)
    tau_w, q_w = (t1, q1) if q1 <= q2 else (t2, q2)
    if not abs(tau_w) < _TAU_WINDOW - 1.0:
        raise SlipStabError(f"window minimum at tau = {tau_w} is off the search range")
    return tau_w, q_w


def _intersonic_brackets(q2: np.ndarray, tau_w: float, m: float, r: float,
                         b_over_a: float):
    """(residual, inner, r_in, outer, r_out): the root search in tau of the
    intersonic modes at q2, each q above the window q_w twice, from the
    window minimum tau_w out to -600 for the root closer to c1, then +600."""
    def resid(tau):
        return np.log(_intersonic_terms(tau, m, r, b_over_a)[0] / q2)

    outer = np.tile([-_TAU_END, _TAU_END], q2.size // 2)
    inner = np.full(q2.size, tau_w)
    r_out = resid(outer)
    if (r_out <= 0.0).any():
        raise DomainError(f"q = {float(q2.max())} is beyond the intersonic solve's range")
    return resid, inner, resid(inner), outer, r_out


def _intersonic_finish(tau: np.ndarray, q2: np.ndarray, m: float, r: float,
                       b_over_a: float):
    """(c/c1, k_hat) of the intersonic modes at their roots tau, as lists,
    each root checked to a relative residual of 1e-10 in Q."""
    q_val, u, v, f1, f2 = _intersonic_terms(tau, m, r, b_over_a)
    x = np.where(u < v, 1.0 + u, r - v)
    bad = np.abs(q_val - q2) > 1e-10 * q2
    if bad.any():
        raise SlipStabError(f"intersonic residual above 1e-10 at c/c1 = {float(x[bad][0])}")
    w = b_over_a - 1.0
    ratio = 0.5 * b_over_a * f2 / f1
    # omega*L/v_o = sqrt(ratio^2 + w) - ratio, rationalized
    omega_hat = w / (np.sqrt(ratio * ratio + w) + ratio)
    k_hat = q2 * (2.0 * m / (1.0 + m)) * omega_hat / (x * math.sqrt(w))
    return x.tolist(), k_hat.tolist()


def _check_q(q: float) -> None:
    if not 0.0 < q < math.inf:
        raise DomainError(f"q must be positive and finite, got {q}")


def solve_subsonic(q: float, bm: BiMaterial) -> NeutralMode:
    """Locate the unique subsonic neutral mode for sliding velocity q > 0.

    Bracketed root search on the monotone form of the phase-velocity
    equation, run to adjacent floats, leaving a relative residual well under
    1e-12.  The search needs about F(0)*q = 2*m*q/(1 + m) >= 1e-154, with
    m = bm.mu_ratio, and q <= 1e154; outside that it raises DomainError.

    Returns a NeutralMode with k_hat = F(0)/F(c) >= 1 and no dimensional
    fields; critical_mode adds |k| = sqrt((b-a)/a)*(v_o/L)/c and omega = |k|*c.
    """
    _check_q(q)
    q = float(q)
    x, k_hat = _subsonic_modes(q, bm.mu_ratio, bm.speed_ratio)
    return NeutralMode(q=q, branch=Branch.SUBSONIC, c_over_c1=x, k_hat=k_hat)


def solve_intersonic(q: float, b_over_a: float, bm: BiMaterial) -> list[NeutralMode]:
    """All intersonic neutral modes at sliding velocity q, sorted by c.

    The left side Q of the phase-velocity equation has one minimum q_w on
    (c1, c1'), found by golden section in tau = ln(u/v), u = c/c1 - 1,
    v = c1'/c1 - c/c1.  q <= q_w gives no mode, q > q_w one on each side
    of the minimum, solved in tau to a relative residual under 1e-10.

    q must be positive and finite.  Equal wave speeds leave no interval and
    return [].  The intersonic equations involve b/a on their own, hence the
    extra argument; it must be > 1 (velocity weakening) and at most 1e100,
    beyond which the phase equation overflows.  A q that the search out to
    tau = -600 and +600 cannot bracket (Q there is about 6.9e129 at m = 1,
    r = 1.2, b/a = 1.2) raises DomainError naming q, although
    solve_subsonic still answers there.  The modes carry no dimensional
    fields.
    """
    _check_q(q)
    if not 1.0 < b_over_a <= _MAX_B_OVER_A:
        raise DomainError(f"intersonic modes require a finite b/a > 1 and at most "
                          f"{_MAX_B_OVER_A:g}, got {b_over_a}")
    if bm.speed_ratio == 1.0:
        return []
    q = float(q)
    m, r = bm.mu_ratio, bm.speed_ratio
    tau_w, q_w = _intersonic_window(m, r, b_over_a)
    if not q > q_w:
        return []
    q2 = np.array([q, q])
    resid, *ends = _intersonic_brackets(q2, tau_w, m, r, b_over_a)
    tau = _bracketed_roots(resid, *ends, _INTERSONIC_RTOL)
    xs, k_hats = _intersonic_finish(tau, q2, m, r, b_over_a)
    return [NeutralMode(q=q, branch=Branch.INTERSONIC, c_over_c1=x, k_hat=k_hat)
            for x, k_hat in zip(xs, k_hats)]


def critical_mode_q(q: float, b_over_a: float, bm: BiMaterial) -> StabilityVerdict:
    """Stability verdict at nondimensional sliding velocity q and ratio b/a.

    b/a <= 1 never destabilizes (no mode); q and b/a must be positive and
    finite, as for every RateState, else DomainError, whatever the verdict
    would be.  Otherwise perturbations
    of wavenumber above the critical one decay and below it grow, so the
    neutral mode of largest |k| over both branches is the critical mode.
    It is always the subsonic one: with f0 = F(0) = 2m/(1+m), w = b/a - 1
    and t = x^2/(1 - x^2) the subsonic root variable of _subsonic_modes,

        k_hat_sub = f0*q*sqrt((1+t)/t) > f0*q,
        k_hat_inter = f0*q*omega_hat/(x*sqrt(w)) < f0*q/x < f0*q,

    as omega_hat = sqrt(x_t^2 + w) - x_t < sqrt(w) (x_t = (b/a)*F2/(2*F1) > 0)
    and x = c/c1 > 1.  So only the subsonic branch is solved, without
    dimensional fields.
    """
    _check_q(q)
    if not 0.0 < b_over_a < math.inf:
        raise DomainError(f"b/a must be positive and finite, got {b_over_a}")
    if not b_over_a > 1.0:
        return StabilityVerdict()
    return StabilityVerdict(solve_subsonic(q, bm))


def critical_mode(p: RateState, bm: BiMaterial) -> StabilityVerdict:
    """Stability verdict for steady sliding: the neutral mode of largest |k|.

    critical_mode_q at q = nondim_q(p, bm.slow), with omega =
    sqrt((b-a)/a)*v_o/L from `closed_forms._omega`, the closed forms' own,
    and |k| = omega/c filled in; b <= a has no mode.  An omega or |k| that
    is not positive and finite raises DomainError.
    """
    if not p.weakening:
        return StabilityVerdict()
    mode = critical_mode_q(nondim_q(p, bm.slow), p.b / p.a, bm).mode
    omega = _omega(p)
    k_mag = omega / (mode.c_over_c1 * bm.slow.c1)
    if not (0.0 < omega < math.inf and 0.0 < k_mag < math.inf):
        raise DomainError(f"the critical mode's omega = {omega!r} rad/s and "
                          f"|k| = {k_mag!r} 1/m must be positive and finite")
    return StabilityVerdict(replace(mode, omega=omega, k_mag=k_mag))


def sweep_q(q_grid, b_over_a: float, bm: BiMaterial) -> SweepTable:
    """Neutral modes at every q of a grid, as one SweepTable without
    dimensional fields.  The grid must be positive, finite and sorted
    ascending, and b/a > 1 and at most 1e100, as for solve_intersonic.  A
    q beyond solve_intersonic's range refuses the whole grid with its
    DomainError, which names the grid's largest q.

    One _bracketed_roots call solves both branches: its elements are the
    subsonic t of every q, then the two intersonic tau of every q above the
    window, with rtol 0 and 2*eps respectively, so each mode has the bits
    of its one-q solve.  Being sorted, the q above the window are a suffix
    of the grid, and the rows are merged by slices."""
    qs = np.array([float(v) for v in q_grid])
    if qs.size == 0:
        raise DomainError("q grid is empty")
    if not np.all((qs > 0.0) & (qs < math.inf)):
        raise DomainError("q grid must be positive and finite")
    if np.any(qs[1:] < qs[:-1]):
        raise DomainError("q grid must be sorted ascending")
    if not 1.0 < b_over_a <= _MAX_B_OVER_A:
        raise DomainError(f"sweep requires a finite b/a > 1 and at most "
                          f"{_MAX_B_OVER_A:g}, got {b_over_a}")
    m, r = bm.mu_ratio, bm.speed_ratio
    n = qs.size
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        resid_sub, *ends = _subsonic_brackets(qs, m, r)
    resid, rtol = resid_sub, 0.0
    # qs is sorted, so the q above the window q_w, with two intersonic modes
    # each, are a suffix qs[j:]; equal wave speeds have none
    j = n
    if r > 1.0:
        tau_w, q_w = _intersonic_window(m, r, b_over_a)
        j = int(np.searchsorted(qs, q_w, side="right"))
    if j < n:
        q2 = np.repeat(qs[j:], 2)
        resid_int, *int_ends = _intersonic_brackets(q2, tau_w, m, r, b_over_a)
        ends = [np.concatenate(pair) for pair in zip(ends, int_ends)]
        rtol = np.repeat([0.0, _INTERSONIC_RTOL], [n, q2.size])

        def resid(c):
            return np.concatenate((resid_sub(c[:n]), resid_int(c[n:])))
    # one root search: the n subsonic t, then the intersonic tau
    roots = _bracketed_roots(resid, *ends, rtol)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        x, k_hat = _subsonic_finish(roots[:n], m, r)
    x2, k2 = _intersonic_finish(roots[n:], q2, m, r, b_over_a) if j < n else ([], [])

    def rows(sub, lo, hi):
        """A column: sub's row for each q, followed above the window by the
        lower and then the upper intersonic row."""
        col = sub[:j] + sub[j:] * 3
        col[j::3], col[j + 1::3], col[j + 2::3] = sub[j:], lo, hi
        return tuple(col)

    q_list = qs.tolist()
    branch = ((Branch.SUBSONIC,) * j
              + (Branch.SUBSONIC, Branch.INTERSONIC, Branch.INTERSONIC) * (n - j))
    return SweepTable(rows(q_list, q_list[j:], q_list[j:]), branch,
                      rows(x, x2[0::2], x2[1::2]), rows(k_hat, k2[0::2], k2[1::2]))
