"""Characteristic roots of the autonomous cases x″(t) ± x(t−c) = 0.

Exponential candidates e^{λt} reduce the equation to λ² ± e^{−cλ} = 0.
The substitution u = cλ/2 turns each sign choice into u·e^u = z with
z = ±ic/2 (plus sign) or z = ±c/2 (minus sign), so every root is
λ = (2/c)·W_n(z) for a complex Lambert-W branch n. Each root is then
Newton-polished on the characteristic function itself, so the certified
residual is in the quantity that matters.

An oscillatory eigensolution Re(e^{λt}) has zeros spaced π/|Im λ| apart —
its semicycle length — which is how the spectrum links to the threshold
bounds: growth (Re λ > 0) forces semicycles longer than 2√2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, IterationLimitError, NotApplicableError

__all__ = ["CharRoot", "lambert_w", "char_roots", "eigen_semicycle"]

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class CharRoot:
    """One characteristic root λ of λ² + sign·e^{−cλ} = 0.

    branch is the Lambert-W index the root came from (the Im λ ≥ 0
    representative of its conjugate pair); value is λ itself — "lambda"
    being reserved in Python; residual is |λ² + sign·e^{−cλ}|.
    """

    branch: int
    value: complex
    sign: int
    residual: float

    @property
    def semicycle(self) -> float:
        return eigen_semicycle(self)


def _halley(w: complex, z: complex, max_iter: int = 60) -> complex:
    tol = 1e-13 * max(1.0, abs(z))
    for _ in range(max_iter):
        ew = cmath.exp(w)
        f = w * ew - z
        if abs(f) < tol:
            return w
        fp = ew * (w + 1.0)
        fpp = ew * (w + 2.0)
        denom = fp - f * fpp / (2.0 * fp)
        w = w - f / denom
    ew = cmath.exp(w)
    if abs(w * ew - z) < tol:
        return w
    raise IterationLimitError(
        f"Lambert-W Halley iteration stalled at z = {z}")


def lambert_w(branch: int, z: complex) -> complex:
    """Branch-n solution of w·e^w = z, Halley-polished to |w·e^w − z| < 1e−13.

    Initial guesses: the defining series near the origin for branch 0, the
    branch-point series −1 + p − p²/3 (p = √(2(ez + 1))) near z = −1/e, the
    log-asymptote log z + 2πin − log(log z + 2πin) otherwise.
    """
    z = complex(z)
    if z == 0:
        if branch == 0:
            return 0.0 + 0.0j
        raise DomainError(f"branch {branch} has no value at z = 0")
    if branch == 0:
        if abs(z) < 0.3:
            w0 = z * (1.0 - z + 1.5 * z * z)
        elif abs(z - math.e) < 1e-12:
            return 1.0 + 0.0j
        elif abs(math.e * z + 1.0) < 0.5:
            p = cmath.sqrt(2.0 * (math.e * z + 1.0))
            w0 = -1.0 + p - p * p / 3.0
        else:
            ell = cmath.log(z)
            # the log-asymptote is a branch-0 start only where Re log z > 0;
            # for |z| < 1 it converges to another branch
            if abs(ell) > 1.0 and ell.real > 0.0:
                w0 = ell - cmath.log(ell)
            else:
                w0 = 0.5671 + 0.5 * ell
    else:
        ell = cmath.log(z) + _TWO_PI_I * branch
        w0 = ell - cmath.log(ell)
    return _halley(w0, z)


def _char_residual(lam: complex, c: float, sign: int) -> complex:
    return lam * lam + sign * cmath.exp(-c * lam)


def _newton_polish(lam: complex, c: float, sign: int) -> complex:
    for _ in range(12):
        f = _char_residual(lam, c, sign)
        if abs(f) < 1e-15:
            break
        fp = 2.0 * lam - sign * c * cmath.exp(-c * lam)
        lam = lam - f / fp
    return lam


def char_roots(c: float, sign: int, branches) -> list[CharRoot]:
    """Characteristic roots over an iterable of Lambert-W branch indices.

    Roots come in conjugate pairs; one representative with Im λ ≥ 0 is
    emitted per pair. Both terms of λ² ± e^{−cλ} have size |λ|² at a root,
    so a root is accepted when its residual and its conjugate's are at most
    1e−10·max(1, |λ|²); anything else, NaN or an overflow included, raises
    IterationLimitError naming the branch and c. Output is sorted by |Im λ|
    then branch, deterministically.
    """
    if not 0.0 < c < math.inf:
        raise DomainError(f"delay must be finite and positive, got {c}")
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or −1, got {sign}")
    found: list[CharRoot] = []
    for n in branches:
        for inner in (1.0, -1.0):
            z = inner * (0.5j * c) if sign == 1 else inner * (0.5 * c)
            try:
                lam = _newton_polish(2.0 * lambert_w(n, z) / c, c, sign)
                if lam.imag < 0.0:
                    lam = lam.conjugate()
                res = abs(_char_residual(lam, c, sign))
                res_conj = abs(_char_residual(lam.conjugate(), c, sign))
                size = abs(lam)
            except OverflowError as exc:
                raise IterationLimitError(
                    f"root polish overflowed ({exc}) at branch {n}, "
                    f"c = {c}") from exc
            bound = 1e-10 * max(1.0, size * size)
            # negated so that a NaN residual fails too
            if not (res <= bound and res_conj <= bound):
                raise IterationLimitError(
                    f"root polish left residual {max(res, res_conj)} "
                    f"at branch {n}, c = {c}")
            if any(abs(lam - r.value) < 1e-8 * (1.0 + abs(lam))
                   for r in found):
                continue
            found.append(CharRoot(branch=n, value=lam, sign=sign,
                                  residual=res))
    found.sort(key=lambda r: (abs(r.value.imag), r.branch, r.value.real))
    return found


def eigen_semicycle(root: CharRoot) -> float:
    """Zero spacing π/|Im λ| of the eigensolution Re(e^{λt})."""
    im = root.value.imag
    if abs(im) <= 1e-12 * (1.0 + abs(root.value)):
        raise NotApplicableError(
            "real characteristic root: eigensolution does not oscillate")
    return math.pi / abs(im)
