"""Lambert-W and characteristic-root checks against frozen anchors."""

import cmath
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from semicycles import DomainError, NotApplicableError
from semicycles.spectral import CharRoot, char_roots, eigen_semicycle, lambert_w

SQRT2 = math.sqrt(2.0)

# c = 4, sign +, branches 0..2 after conjugate dedup (Im ≥ 0), polished on
# the characteristic function; values frozen from an independent run
FROZEN_C4 = [
    (0, 0.341704008163 + 0.371693002371j, 8.452117),
    (1, -0.208136219080 + 1.501945970951j, 2.091682),
    (1, -0.566010724243 + 3.049843093094j, 1.030083),
    (2, -0.773117482949 + 4.629656176054j, 0.678580),
    (2, -0.918471633299 + 6.209763795141j, 0.505912),
]


def test_lambert_specials():
    assert lambert_w(0, 0) == 0
    assert abs(lambert_w(0, math.e) - 1.0) < 1e-13
    half = lambert_w(0, 2j) / 2
    assert abs(half.real - 0.34) < 5e-3
    assert abs(half.imag - 0.37) < 5e-3


@settings(max_examples=150, deadline=None)
@given(
    branch=st.integers(min_value=-3, max_value=3),
    mag=st.floats(min_value=0.05, max_value=30.0),
    arg=st.floats(min_value=-3.0, max_value=3.0),
)
def test_lambert_defining_identity(branch, mag, arg):
    z = cmath.rect(mag, arg)
    w = lambert_w(branch, z)
    assert abs(w * cmath.exp(w) - z) < 1e-12 * max(1.0, abs(z))


@settings(max_examples=80, deadline=None)
@given(
    branch=st.integers(min_value=-2, max_value=2),
    mag=st.floats(min_value=0.1, max_value=20.0),
    arg=st.floats(min_value=-3.0, max_value=3.0),
)
@example(branch=0, mag=0.3125, arg=0.0)
def test_lambert_matches_scipy(branch, mag, arg):
    scipy_special = pytest.importorskip("scipy.special")
    z = cmath.rect(mag, arg)
    ours = lambert_w(branch, z)
    ref = complex(scipy_special.lambertw(z, k=branch))
    assert abs(ours - ref) < 1e-10 * max(1.0, abs(ref))


def test_lambert_branch0_inside_unit_circle():
    # Re log z < 0 here: the log-asymptote start used to converge to another
    # branch (±ic/2 for c ∈ [0.6, 1.375], and the real z = 0.3125); near
    # the branch point −1/e the branch-point series is the start.  Reference
    # values from scipy.special.lambertw.
    cases = (
        (0.7j, 0.2521656879315281 + 0.48200413682751514j),
        (-0.7j, 0.2521656879315281 - 0.48200413682751514j),
        (0.3125, 0.244674738525522 + 0j),
        (-0.33 + 1e-9j, -0.6032666497551331 + 4.607832327948812e-09j),
    )
    for z, ref in cases:
        assert abs(lambert_w(0, z) - ref) < 1e-12


def test_c4_frozen_spectrum():
    roots = char_roots(4.0, 1, range(0, 3))
    assert len(roots) == len(FROZEN_C4)
    for root, (branch, lam, semi) in zip(roots, FROZEN_C4):
        assert root.branch == branch
        assert abs(root.value - lam) < 1e-11
        assert root.residual < 1e-10
        assert abs(eigen_semicycle(root) - semi) < 1e-6
        assert root.value.imag >= 0.0


def test_c4_growth_dichotomy():
    # growing eigensolutions have semicycles above 2√2, and every root with
    # a short semicycle decays
    for root in char_roots(4.0, 1, range(0, 3)):
        if root.value.real > 0.0:
            assert eigen_semicycle(root) > 2 * SQRT2
        if eigen_semicycle(root) < 2 * SQRT2:
            assert root.value.real < 0.0


def test_sine_anchor():
    roots = char_roots(math.pi, -1, range(0, 1))
    hits = [r for r in roots if abs(r.value - 1j) < 1e-12]
    assert len(hits) == 1
    assert hits[0].residual < 1e-12
    assert abs(eigen_semicycle(hits[0]) - math.pi) < 1e-12


def test_real_root_not_applicable():
    roots = char_roots(math.pi, -1, range(0, 1))
    real = [r for r in roots if abs(r.value.imag) < 1e-12]
    assert real, "the minus-sign equation has a real growth root"
    with pytest.raises(NotApplicableError):
        eigen_semicycle(real[0])
    with pytest.raises(NotApplicableError):
        CharRoot(0, 0.7 + 0j, -1, 0.0).semicycle


def test_validation():
    with pytest.raises(DomainError):
        char_roots(0.0, 1, range(0, 2))
    with pytest.raises(DomainError):
        char_roots(4.0, 2, range(0, 2))
    # an infinite delay used to end in a stalled Halley iteration at NaN
    with pytest.raises(DomainError, match="finite and positive"):
        char_roots(math.inf, 1, (0,))
    with pytest.raises(DomainError):
        lambert_w(1, 0)
