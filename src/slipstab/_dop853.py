"""Hairer's DOP853 on Python floats, for the small spring-block systems.

The explicit Runge-Kutta pair of Dormand and Prince as coded by Hairer
(E. Hairer, S. P. Norsett and G. Wanner, *Solving Ordinary Differential
Equations I: Nonstiff Problems*, 2nd ed., Springer 1993, Sec. II.5 and
II.10): a 12-stage eighth-order step, a fifth-order error estimate
corrected by a third-order one, and a seventh-order interpolant from three
more stages.  The step-size control is the one of
`scipy.integrate.solve_ivp(method="DOP853")`, rule for rule, so both take
the same steps and count the same right-side evaluations.  The right side
is autonomous, `fun(y0, ..., y_{n-1})` on plain floats: no stage time
t + c*h is formed, and scipy calls it through `lambda t, y: fun(*y)`.

On two or three states the work per step is a few hundred float
operations, so per-component loops over the tableau would cost several
times the arithmetic.  The step and the dense output are therefore
straight-line Python functions, generated from the tableau once per state
count on first use: every stage value is a local, every coefficient a
literal (its `repr`), each stage state goes to `fun` as n positional float
expressions, and every weighted sum is written
`0.0 + c0*k0 + c1*k1 + ...` from left to right.  That is the order of
operations of `sum(map(operator.mul, row, k))` over the row, so the
kernels round exactly as that loop does.  Terms whose coefficient is 0.0
are left out; with finite stage values each adds a signed zero to a sum
that starts at +0.0, which changes no bit of it.

A run samples y at output times: each step that holds some builds its
dense output (loc. cit., Sec. II.6) and evaluates it there on Python
floats.  A run may instead ask for the maxima of y[0]; it then takes no
sample, builds dense output only in the steps that hold one, whose slope
y[0]' falls from above 0 to 0 or below short of the cap, and locates the
maximum on that step's interpolant by Newton's method on its derivative.
A sample and a peak height come from the same Horner form in the same
float operations.

The tableau is copied, digit for digit, from scipy's
`scipy/integrate/_ivp/dop853_coefficients.py` (scipy 1.17.1; BSD-3-Clause,
Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy Developers), which
transcribes Hairer's dop853.f.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

SAFETY = 0.9        # times the asymptotically optimal step
MIN_FACTOR = 0.2    # largest step decrease
MAX_FACTOR = 10.0   # largest step increase
EXPONENT = -1.0 / 8.0   # the controlled error is O(h^8)
MIN_RTOL = 100.0 * sys.float_info.epsilon

# A[s - 1] forms stage s from stages 0 .. s - 1: stages 1-11 complete the
# step, A[11] is the solution weight B, stage 12 is the derivative at the
# step end, and stages 13-15 serve the interpolant.
A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2,
        5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
        8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
        -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
        1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
        1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
        -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
        2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
        -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
        2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
        5.18637242884406370830023853209, 1.09143734899672957818500254654,
        -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
        -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
        -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
        -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674, -8.87285693353062954433549289258,
        1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
        4.45031289275240888144113950566, 1.89151789931450038304281599044,
        -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1,
        2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
        2.53500210216624811088794765333e-1,
        -2.46239037470802489917441475441e-1,
        -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
        8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
        -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
        2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
        -5.49237485713909884646569340306e-2, 0.0, 0.0,
        -1.08347328697249322858509316994e-4,
        3.82571090835658412954920192323e-4,
        -3.40465008687404560802977114492e-4,
        1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
        -4.69762141536116384314449447206, 7.68342119606259904184240953878,
        4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
        0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
        2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
      -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
      0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
      0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
      -0.2235530786388629525884427845e-1, 0.0)
D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
        0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
        0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
        -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
        0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
        0.18148505520854727256656404962e+2,
        -0.91946323924783554000451984436e+1,
        -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
        0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
        -0.37454675472269020279518312152e+3,
        -0.22113666853125306036270938578e+2,
        0.77334326684722638389603898808e+1,
        -0.30674084731089398182061213626e+2,
        -0.93321305264302278729567221706e+1,
        0.15697238121770843886131091075e+2,
        -0.31139403219565177677282850411e+2,
        -0.93529243588444783865713862664e+1,
        0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
        -0.38703730874935176555105901742e+3,
        -0.18917813819516756882830838328e+3,
        0.52780815920542364900561016686e+3,
        -0.11573902539959630126141871134e+2,
        0.68812326946963000169666922661e+1,
        -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
        -0.27782057523535084065932004339e+1,
        -0.60196695231264120758267380846e+2,
        0.84320405506677161018159903784e+2,
        0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
        -0.15418974869023643374053993627e+3,
        -0.23152937917604549567536039109e+3,
        0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
        -0.37458323136451633156875139351e+2,
        0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
        -0.43533456590011143754432175058e+2,
        0.96324553959188282948394950600e+2,
        -0.39177261675615439165231486172e+2,
        -0.14972683625798562581422125276e+3),
)
B = A[11]
# E5 and E3 weigh the stages into the fifth- and third-order error estimates;
# E3 is B less Hairer's third-order weights.
E3 = (B[0] - 0.244094488188976377952755905512, *B[1:8],
      B[8] - 0.733846688281611857341361741547, *B[9:11],
      B[11] - 0.220588235294117647058823529412e-1, 0.0)


@dataclass(frozen=True)
class Solution:
    """One integration: samples at a prefix of the output times or the
    maxima of y[0], and why it stopped."""

    y: np.ndarray          # (components, samples): y at t_eval[:y.shape[1]]
    y_end: list[float]     # state at the last accepted step end
    nfev: int              # right-side evaluations, scipy's count
    capped: bool           # y[0] crossed the cap upward
    failure: str | None    # why the run stopped short of t_eval[-1]
    t_end: float           # time of y_end
    maxima: np.ndarray | None   # (2, maxima): t and y[0] at each, if asked for


def _weighted(row, i: int) -> str:
    """The sum of row[j]*k_j over the stages, for component i: the terms
    and the order of `sum(map(mul, row, k))`, without the zero weights."""
    return "0.0" + "".join(f" + {c!r}*k{j}_{i}" for j, c in enumerate(row) if c)


def _names(prefix: str, n: int) -> str:
    """`p0, p1, ..., ` for n components, a target list for unpacking."""
    return "".join(f"{prefix}{i}, " for i in range(n))


def _stage(s: int, row, n: int) -> str:
    """Stage s: fun at the n floats formed from y and the stages before it."""
    state = ", ".join(f"y{i} + ({_weighted(row, i)})*h" for i in range(n))
    return f"    {_names(f'k{s}_', n)}= fun({state})\n"


def _step_source(n: int) -> str:
    """`step(fun, h, y, f, rtol, atol)`: one attempted step of length h from
    y with derivative f, for an autonomous fun.  Returns the tuple y_new,
    f_new = fun(*y_new), the squared error norms err5 and err3, and the 13
    stage values k0-k12, component-minor, for `dense`."""
    src = ("def step(fun, h, y, f, rtol, atol):\n"
           f"    {_names('y', n)}= y\n"
           f"    {_names('k0_', n)}= f\n")
    src += "".join(_stage(s, row, n) for s, row in enumerate(A[:11], 1))
    src += "".join(f"    z{i} = y{i} + h*({_weighted(B, i)})\n" for i in range(n))
    src += (f"    f_new = fun({_names('z', n)})\n"
            f"    {_names('k12_', n)}= f_new\n")
    for i in range(n):
        src += (f"    s = atol + max(abs(y{i}), abs(z{i}))*rtol\n"
                f"    e{i} = ({_weighted(E5, i)})/s\n"
                f"    d{i} = ({_weighted(E3, i)})/s\n")
    err5 = "".join(f" + e{i}*e{i}" for i in range(n))
    err3 = "".join(f" + d{i}*d{i}" for i in range(n))
    stages = "".join(_names(f"k{s}_", n) for s in range(13))
    return src + f"    return ({_names('z', n)}), f_new, 0.0{err5}, 0.0{err3}, ({stages})\n"


def _dense_source(n: int) -> str:
    """`dense(fun, h, y, y_new, k)`: the three extra stages, from the
    autonomous fun, of the step of length h from y to y_new with stages k,
    and per component the seven coefficients f0-f6 of the interpolant."""
    stages = "".join(_names(f"k{s}_", n) for s in range(13))
    src = ("def dense(fun, h, y, y_new, k):\n"
           f"    {_names('y', n)}= y\n"
           f"    {_names('z', n)}= y_new\n"
           f"    {stages}= k\n")
    src += "".join(_stage(s, row, n) for s, row in enumerate(A[12:], 13))
    src += "".join(f"    dy{i} = z{i} - y{i}\n" for i in range(n))
    rows = [", ".join([f"dy{i}", f"h*k0_{i} - dy{i}", f"2.0*dy{i} - h*(k12_{i} + k0_{i})",
                       *(f"h*({_weighted(row, i)})" for row in D)])
            for i in range(n)]
    return src + "    return (" + "".join(f"({row}), " for row in rows) + ")\n"


def _define(source: str, name: str):
    namespace: dict = {}
    exec(compile(source, f"<dop853 {name}>", "exec"), namespace)
    return namespace[name]


@functools.cache
def _kernels(n: int):
    """`step` and `dense` for n states, generated and compiled on first use."""
    return _define(_step_source(n), "step"), _define(_dense_source(n), "dense")


def _rms(values, scale) -> float:
    squares = sum((v / s) * (v / s) for v, s in zip(values, scale))
    return math.sqrt(squares) / len(scale) ** 0.5


def _initial_step(fun, y, f, span, rtol, atol) -> float:
    """Hairer's starting step (loc. cit., Sec. II.4), as scipy chooses it,
    but with its fallbacks for a vanishing state or slope measured in units
    of the span, not seconds: this departs from scipy's start unless the
    span is 1 s or neither fallback is taken."""
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = 1e-6 * span if d0 < 1e-5 or d1 * span < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(*[v + h0 * d for v, d in zip(y, f)])
    d2 = _rms([a - b for a, b in zip(f1, f)], scale) / h0
    if d1 * span <= 1e-15 and d2 * span * span <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -EXPONENT
    return min(100.0 * h0, h1, span)


def solve_ivp(fun, t_eval, y0, rtol: float, atol: float, cap: float,
              max_nfev: int, *, maxima: bool = False) -> Solution:
    """Integrate the autonomous system y' = fun(*y) from t_eval[0] to
    t_eval[-1], sampling y at every t_eval, or with `maxima` locating the
    maxima of y[0] instead, until y[0] crosses `cap` upward.

    `fun(y0, ..., y_{n-1})` takes the n state components as positional
    floats and returns a sequence of n floats; it is never given a time.
    t_eval is an increasing list of floats.  Steps and evaluation counts
    follow `scipy.integrate.solve_ivp(lambda t, y: fun(*y), (t_eval[0],
    t_eval[-1]), y0, method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol,
    events=...)` with a terminal upward event y[0] - cap, once both take
    the same first step (see `_initial_step`): 2 evaluations to start, 12
    per attempted step and 3 more for the interpolant of each step that
    holds an output time or the crossing.  Such a step evaluates its interpolant
    at its output times on Python floats, in the Horner order of
    `_interpolant`, as soon as it builds it; `Solution.y` holds the samples
    as a float64 array, one row per component.  The crossing is tested at
    each accepted step end; the samples of that step stop at the first one
    whose interpolated y[0] reaches the cap.
    The run stops short, with `failure` set and the samples of its
    completed steps, when the step size falls below 10 ulp(t) or when the
    next step could take the evaluation count past max_nfev.  rtol is
    raised to 100 machine epsilons if smaller, as scipy does.  Unlike
    scipy, a step whose squared error terms all underflow to 0 is measured
    again (`_unsquared_error`), and a trial step that raises is rejected
    (below).

    With `maxima`, the run reads only t_eval[0] and t_eval[-1], takes the
    sampled run's steps and no sample (`Solution.y` has no column), and
    only a step whose slope y[0]' falls from above 0 to 0 or below builds
    its interpolant (3 evaluations): `Solution.maxima` holds the time and
    height of its maximum of y[0] (see `_argmax`).  The step that crosses
    the cap is left out: its maximum is at or past the crossing.

    A trial step whose right side raises OverflowError or ZeroDivisionError
    (exp overflowing, say) is rejected like a step whose error is too
    large: its 12 evaluations count and the step shrinks by MIN_FACTOR.
    Such an exception anywhere else (the start, an interpolant) propagates,
    as does any other exception of fun.
    """
    rtol = max(rtol, MIN_RTOL)
    n = len(y0)
    step, dense = _kernels(n)
    t, t_end = t_eval[0], t_eval[-1]
    y = tuple(y0)
    f = fun(*y)
    h_abs = _initial_step(fun, y, f, t_end - t, rtol, atol)
    nfev = 2
    columns = [array("d") for _ in range(n)]   # the samples of each y_i
    peaks = array("d") if maxima else None   # t, y[0] of each maximum
    i_out = 0   # next output time
    ulp, sqrt = math.ulp, math.sqrt
    while True:
        min_step = 10.0 * ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:   # attempt steps until one is accepted
            if h_abs < min_step:
                return _solution(columns, t, y, nfev, False, peaks,
                                 f"step size {h_abs:.3g} below 10 ulp at t = {t!r}")
            if nfev + 15 > max_nfev:
                return _solution(columns, t, y, nfev, False, peaks,
                                 f"evaluation budget {max_nfev} spent at t = {t!r}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            nfev += 12
            try:
                y_new, f_new, err5, err3, ks = step(fun, h, y, f, rtol, atol)
            except (OverflowError, ZeroDivisionError):
                h_abs = h * MIN_FACTOR
                rejected = True
                continue
            if err5 == 0.0 and err3 == 0.0:
                error = _unsquared_error(h, y, y_new, ks, rtol, atol)
            else:
                error = h * err5 / sqrt((err5 + 0.01 * err3) * n)
            if error < 1.0:
                factor = (MAX_FACTOR if error == 0.0
                          else min(MAX_FACTOR, SAFETY * error ** EXPONENT))
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * error ** EXPONENT)
            rejected = True

        t_old, y_old, slope = t, y, f[0]
        t, y, f = t_new, y_new, f_new
        capped = y_old[0] <= cap <= y[0]
        if not maxima:
            i_end = bisect_right(t_eval, t, i_out)   # output times up to t
            if capped or i_end > i_out:
                nfev += 3
                xs = [(s - t_old) / h for s in t_eval[i_out:i_end]]
                xms = [1.0 - x for x in xs]
                samples = [[((((((f6 * x + f5) * xm + f4) * x + f3) * xm + f2) * x + f1) * xm
                             + f0) * x + old for x, xm in zip(xs, xms)]
                           for old, (f0, f1, f2, f3, f4, f5, f6)
                           in zip(y_old, dense(fun, h, y_old, y, ks))]
                if capped:   # keep the samples before the crossing
                    kept = next((j for j, v in enumerate(samples[0]) if v >= cap), len(xs))
                    samples = [column[:kept] for column in samples]
                for column, values in zip(columns, samples):
                    column.extend(values)
                i_out = i_end
        elif slope > 0.0 >= f[0] and not capped:
            nfev += 3
            row = dense(fun, h, y_old, y, ks)[0]
            x = _argmax(row, h * slope, h * f[0])
            peaks.extend((t_old + x * h, _interpolant(x, y_old[0], row)[0]))
        if capped or t == t_end:
            return _solution(columns, t, y, nfev, capped, peaks, None)


def _unsquared_error(h, y, y_new, ks, rtol, atol) -> float:
    """The error norm of a step whose squared error sums both came out 0,
    recomputed with h applied to each error term before it is squared.

    h*sum(e^2)/sqrt((sum(e^2) + 0.01*sum(d^2))*n) is sum((h*e)^2)/sqrt((sum(
    (h*e)^2) + 0.01*sum((h*d)^2))*n), but terms e and d below about 1e-154
    square to 0 in the kernel's sums: where the derivatives are that small
    against the tolerance (a time scale of 1e298 s, say), every step would
    pass with error 0 and grow tenfold.  Steps at an exact fixed point, whose
    stages are all 0, still get 0."""
    n = len(y)
    err5 = err3 = 0.0
    for i, (a, b) in enumerate(zip(y, y_new)):
        k = ks[i::n]
        s = atol + max(abs(a), abs(b)) * rtol
        e = h * sum(map(operator.mul, E5, k)) / s
        d = h * sum(map(operator.mul, E3, k)) / s
        err5 += e * e
        err3 += d * d
    return 0.0 if err5 == 0.0 else err5 / math.sqrt((err5 + 0.01 * err3) * n)


def _interpolant(x: float, y_old: float, f) -> tuple[float, float, float]:
    """P(x), P'(x) and P''(x), derivatives in x, of one component's
    interpolant on a step, P(0) = y_old, from its coefficients f0-f6.

    P(x) is the Horner form a sampled step evaluates, in its order of
    operations, so it is bit for bit the sample at x; the derivatives are
    carried through the same nest, each factor x or 1 - x adding its slope
    +1 or -1."""
    xm = 1.0 - x
    p, d1, d2 = f[6], 0.0, 0.0
    for c, m, s in ((f[5], x, 1.0), (f[4], xm, -1.0), (f[3], x, 1.0),
                    (f[2], xm, -1.0), (f[1], x, 1.0), (f[0], xm, -1.0)):
        d2 = d2 * m + 2.0 * s * d1
        d1 = d1 * m + s * p
        p = p * m + c
    return p * x + y_old, d1 * x + p, d2 * x + 2.0 * d1


def _argmax(f, slope0: float, slope1: float) -> float:
    """x in [0, 1] of the maximum of one component's interpolant, with
    coefficients f0-f6, on a step whose slope P'(x) falls from slope0 =
    h*f_old > 0 at x = 0 to slope1 = h*f_new <= 0 at x = 1.

    Newton's method on P', started at the secant root of the end slopes and
    kept inside the bracket [lo, hi] by bisection whenever its step leaves
    it or P'' is not negative.  It stops when a step moves x by at most
    4 ulp(1), or after 100 iterations (bisection alone needs 53)."""
    lo, hi = 0.0, 1.0
    x = slope0 / (slope0 - slope1)
    for _ in range(100):
        _, g, curvature = _interpolant(x, 0.0, f)
        if g > 0.0:
            lo = x
        else:
            hi = x
        x_new = x - g / curvature if curvature < 0.0 else math.nan
        if not lo <= x_new <= hi:   # nan too
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 4.0 * sys.float_info.epsilon:
            return x_new
        x = x_new
    return x


def _solution(columns, t_end, y_end, nfev, capped, peaks, failure) -> Solution:
    maxima = None if peaks is None else np.frombuffer(peaks).reshape(-1, 2).T
    return Solution(np.array([np.frombuffer(c) for c in columns]), list(y_end), nfev, capped,
                    failure, t_end, maxima)
