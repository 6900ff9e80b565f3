"""Interface transfer function: Laplace form, on-axis branches, limits.

The intersonic closed form and the Laplace form on the subsonic stretch of
the imaginary axis are checked against an independent high-precision limit
of the Laplace-domain expression approached from Re(p) > 0, which is the
defining continuation.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slipstab import (
    BiMaterial,
    DomainError,
    f_intersonic,
    f_laplace,
    f_normalized,
)

mp.mp.dps = 40


@pytest.fixture
def mild_contrast():
    return BiMaterial.from_ratios(1.0, 1.2)


def _laplace_limit_mp(x: float, m: float, r: float, eps: str = "1e-25") -> complex:
    """F at p = (eps + i*x)*|k|*c1 for tiny real eps, at 40 digits."""
    z = mp.mpc(mp.mpf(eps), x)
    w = mp.sqrt(1 + z * z)
    w_p = mp.sqrt(1 + (z / mp.mpf(r)) ** 2)
    val = 2 * m * w_p * w / (w + m * w_p)
    return complex(val)


def f_axis(x: float, bm: BiMaterial) -> float:
    """Subsonic F at c/c1 = x: the Laplace form at p = i*x (unit slow-side
    c1, as from_ratios builds), real there."""
    return f_laplace(1.0, 1j * x, bm).real


def test_static_value(mild_contrast):
    # F(0) = 2m/(1+m); equal moduli give 1
    assert f_axis(0.0, mild_contrast) == pytest.approx(1.0, rel=1e-15)
    bm = BiMaterial.from_ratios(10.0, 5.0)
    assert f_axis(0.0, bm) == pytest.approx(20.0 / 11.0, rel=1e-15)


def test_identical_media_subsonic_closed_form():
    bm = BiMaterial.from_ratios(1.0, 1.0)
    for x in (0.0, 0.3, 0.9, 0.999999):
        assert f_axis(x, bm) == pytest.approx(math.sqrt(1.0 - x * x), rel=1e-14)


def test_subsonic_frozen_value(mild_contrast):
    # independently computed with 40-digit arithmetic
    val = f_axis(0.7, mild_contrast)
    assert val == pytest.approx(0.760036055744547, rel=1e-13)
    ref = _laplace_limit_mp(0.7, 1.0, 1.2)
    assert abs(ref.imag) < 1e-24
    assert val == pytest.approx(ref.real, rel=1e-14)


def test_subsonic_monotone_decreasing(mild_contrast):
    xs = np.linspace(0.0, 0.999, 400)
    vals = [f_axis(float(x), mild_contrast) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_intersonic_frozen_value(mild_contrast):
    val = f_intersonic(1.1, mild_contrast)
    assert val == pytest.approx(0.45400057996799614 + 0.3959400487752976j,
                                rel=1e-13)
    ref = _laplace_limit_mp(1.1, 1.0, 1.2)
    assert val == pytest.approx(ref, rel=1e-14)


def test_intersonic_against_laplace_limit():
    for mu_ratio, speed_ratio in ((1.0, 1.2), (10.0, 5.0), (0.1, 5.0)):
        bm = BiMaterial.from_ratios(mu_ratio, speed_ratio)
        for x in np.linspace(1.0, speed_ratio, 21)[1:-1]:
            ref = _laplace_limit_mp(float(x), mu_ratio, speed_ratio)
            assert f_intersonic(float(x), bm) == pytest.approx(ref, rel=1e-12)


def test_intersonic_matches_on_axis_laplace(mild_contrast):
    # signed-zero arithmetic puts p = 0 + i*omega on the correct side
    for x in (1.05, 1.1, 1.15):
        direct = f_laplace(1.0, 1j * x, mild_contrast)
        assert f_intersonic(x, mild_contrast) == pytest.approx(direct, rel=1e-14)


@pytest.mark.parametrize("re_p", [0.0, -0.0])
@pytest.mark.parametrize("y", [0.5, 1.1, 3.0])
def test_negative_imaginary_axis_is_limit_from_right(mild_contrast, re_p, y):
    # below, between and beyond the two wave speeds, F on the lower axis is
    # the conjugate of F on the upper axis and the limit from Re p > 0
    lower = f_laplace(1.0, complex(re_p, -y), mild_contrast)
    assert lower == f_laplace(1.0, complex(re_p, y), mild_contrast).conjugate()
    assert abs(lower - f_laplace(1.0, complex(1e-12, -y), mild_contrast)) < 1e-10


def test_intersonic_gap_shrinks_linearly(mild_contrast):
    """f_laplace off the axis approaches the branch value at O(eps)."""
    x = 1.1
    target = f_intersonic(x, mild_contrast)
    gaps = []
    for eps in (1e-4, 1e-6, 1e-8):
        off_axis = f_laplace(1.0, complex(eps, x), mild_contrast)
        gaps.append(abs(off_axis - target))
    assert gaps[0] == pytest.approx(1e2 * gaps[1], rel=0.05)
    assert gaps[1] == pytest.approx(1e2 * gaps[2], rel=0.05)
    assert gaps[2] < 1e-7


def test_intersonic_domain(mild_contrast):
    for bad in (1.0, 1.2, 0.9, 1.3):
        with pytest.raises(DomainError):
            f_intersonic(bad, mild_contrast)
    # equal wave speeds leave no interval: every c/c1 is out of range
    for bad in (0.9, 1.0, 1.1):
        with pytest.raises(DomainError):
            f_intersonic(bad, BiMaterial.from_ratios(1.0, 1.0))


def test_laplace_rejects_left_half_plane(mild_contrast):
    with pytest.raises(DomainError):
        f_laplace(1.0, complex(-1e-3, 1.0), mild_contrast)
    with pytest.raises(DomainError):
        f_laplace(0.0, 1.0 + 0.0j, mild_contrast)


def test_laplace_static_limit(mild_contrast):
    bm = BiMaterial.from_ratios(4.0, 2.0)
    assert f_laplace(1.0, 1e-12 + 0j, bm) == pytest.approx(8.0 / 5.0, rel=1e-9)
    assert f_laplace(1.0, 0.0 + 0.0j, bm) == pytest.approx(8.0 / 5.0, rel=1e-15)


# strictly inside the right half-plane: the imaginary axis carries the
# branch points z = +-i, +-i*r and is exercised by the deterministic tests
complex_rhp = st.tuples(
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
).map(lambda t: complex(*t))


@given(complex_rhp,
       st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=1.0, max_value=8.0))
def test_laplace_conjugate_symmetry(p, mu_ratio, speed_ratio):
    bm = BiMaterial.from_ratios(mu_ratio, speed_ratio)
    lhs = f_laplace(1.0, p.conjugate(), bm)
    rhs = f_laplace(1.0, p, bm).conjugate()
    assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


@given(complex_rhp,
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=1.0, max_value=8.0))
@settings(max_examples=200)
def test_laplace_scale_invariance(p, scale, mu_ratio, speed_ratio):
    """F depends on (k, p) only through p/(|k| c1)."""
    bm = BiMaterial.from_ratios(mu_ratio, speed_ratio)
    base = f_laplace(1.0, p, bm)
    scaled = f_laplace(scale, scale * p, bm)
    assert cmath.isclose(base, scaled, rel_tol=1e-12, abs_tol=1e-300)


@given(complex_rhp, st.floats(min_value=1e-2, max_value=1e2))
def test_laplace_wavenumber_sign_irrelevant(p, k):
    bm = BiMaterial.from_ratios(2.0, 1.5)
    assert f_laplace(-k, p, bm) == f_laplace(k, p, bm)


def test_normalized_vectorizes(mild_contrast):
    z = np.array([0.0 + 0.0j, 0.5j, 2.0 + 1.0j])
    out = f_normalized(z, 1.0, 1.2)
    assert out.shape == z.shape
    assert out[0] == pytest.approx(1.0)
    scalar = f_normalized(np.asarray(2.0 + 1.0j), 1.0, 1.2)
    assert complex(out[2]) == pytest.approx(complex(scalar))


def test_normalized_takes_real_arrays():
    x = np.array([0.0, 0.5, 2.0, 1e3])
    out = f_normalized(x, 2.0, 1.5)
    assert out.dtype == np.complex128
    assert np.array_equal(out, f_normalized(x.astype(complex), 2.0, 1.5))


def test_real_axis_values_are_real(mild_contrast):
    # positive real p keeps every square root real: F real and above F(0)
    for y in (0.1, 1.0, 10.0):
        val = f_laplace(1.0, complex(y, 0.0), mild_contrast)
        assert val.imag == 0.0
        assert val.real > f_axis(0.0, mild_contrast)
