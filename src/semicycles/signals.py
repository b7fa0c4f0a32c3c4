"""Piecewise-polynomial time signals.

A PiecewiseSignal carries the coefficient p(t), the delay τ(t), or an initial
history segment as polynomial pieces between explicit breakpoints, with
constant extensions on both tails. Keeping breakpoints explicit is what lets
the integrator align steps to discontinuities exactly instead of smearing
them, and it makes essential-supremum queries exact (segment-wise polynomial
extrema) rather than sampled.

Conventions
-----------
* Segment i covers [breakpoints[i], breakpoints[i+1]) and stores coefficients
  (c0, c1, ...) in the local variable u = t − breakpoints[i], lowest degree
  first: value = c0 + c1·u + c2·u² + ...
* Evaluation is right-continuous at breakpoints. Below the first breakpoint
  the signal equals ``left_extension``; at and above the last breakpoint it
  equals ``right_extension``.
* ``sig(t)`` evaluates at a float t, or at every point of an array t with
  the same floats; ``signal_range`` gives the essential range over an
  interval, which ignores the single points where the right-continuity
  choice differs from a one-sided limit, so it is computed from segment
  extrema, never from breakpoint evaluations. The essential supremum of
  |signal| is the larger magnitude of the two ends of that range.
* ``signal_from_dict`` reads the JSON problem-file schema and raises
  DomainError for anything that does not describe a signal.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SemicycleError

__all__ = [
    "PiecewiseSignal",
    "signal_range",
    "signal_from_dict",
    "signal_to_dict",
]


def _poly_eval(coeffs, u: float) -> float:
    """Horner evaluation of (c0, c1, ...) at local coordinate u, a float or
    an array (elementwise, with the same floats)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


_LOG_EPS = math.log(np.finfo(float).eps)


def _trim_for_roots(coeffs, span: float) -> list:
    """Drop leading coefficients that np.roots must not see: zeros; leads so
    small relative to the rest that the companion-matrix ratios would
    overflow (a subnormal lead puts its root at ~1e300, outside any finite
    window anyway); and leads whose term stays below float precision of the
    largest other term on the window |u| ≤ span, which only add huge
    spurious roots and can cost np.roots the real ones inside the window.
    Term sizes are compared as logarithms, so a wide window cannot overflow
    them."""
    out = list(coeffs)
    log_span = math.log(span)
    while len(out) > 1:
        lead = abs(out[-1])
        rest = max(abs(c) for c in out[:-1])
        if lead == 0.0 or rest > lead * 1e306:
            out.pop()
            continue
        if rest == 0.0:
            break
        largest = max(math.log(abs(c)) + k * log_span
                      for k, c in enumerate(out[:-1]) if c != 0.0)
        if math.log(lead) + (len(out) - 1) * log_span >= largest + _LOG_EPS:
            break
        out.pop()
    return out


def _real_roots(coeffs, span: float, scale: float) -> list:
    """Real roots of c0 + c1·u + ... whose term sizes are judged on |u| ≤
    span (``_trim_for_roots``): by division for a linear polynomial, by
    np.roots otherwise, keeping roots whose imaginary part is below
    1e-9·scale."""
    trimmed = _trim_for_roots(coeffs, span)
    if len(trimmed) == 1:
        return []
    if len(trimmed) == 2:
        return [-trimmed[0] / trimmed[1]]
    # numpy wants highest degree first and nonzero leading coefficient
    return [r.real for r in np.roots(trimmed[::-1])
            if abs(r.imag) < 1e-9 * scale]


def _poly_extrema_values(coeffs, u_lo: float, u_hi: float) -> list[float]:
    """Values of the polynomial at the endpoints and interior critical points
    of [u_lo, u_hi], 0 ≤ u_lo < u_hi (local coordinates)."""
    vals = [_poly_eval(coeffs, u_lo), _poly_eval(coeffs, u_hi)]
    if len(coeffs) >= 3:  # degree ≥ 2 ⇒ nontrivial critical points
        deriv = [j * c for j, c in enumerate(coeffs)][1:]
        for r in _real_roots(deriv, u_hi, max(1.0, u_hi)):
            if u_lo < r < u_hi:
                vals.append(_poly_eval(coeffs, float(r)))
    return vals


@dataclass(frozen=True)
class PiecewiseSignal:
    """A real function of time: polynomial segments + constant tails.

    Parameters
    ----------
    breakpoints : tuple of float, strictly increasing, at least one entry
    segments : tuple of coefficient tuples, one per interior interval
        (``len(segments) == len(breakpoints) - 1``)
    left_extension : value for t < breakpoints[0]
    right_extension : value for t ≥ breakpoints[-1]
    """

    breakpoints: tuple
    segments: tuple
    left_extension: float
    right_extension: float

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        segs = tuple(tuple(float(c) for c in seg) for seg in self.segments)
        left, right = float(self.left_extension), float(self.right_extension)
        if len(bps) < 1:
            raise DomainError("signal needs at least one breakpoint")
        if not all(map(math.isfinite, bps)):
            raise DomainError(f"breakpoints must be finite, got {bps}")
        if not all(math.isfinite(c) for seg in segs for c in seg):
            raise DomainError("segment coefficients must be finite")
        if not (math.isfinite(left) and math.isfinite(right)):
            raise DomainError(
                f"extensions must be finite, got {left} and {right}")
        if any(b1 <= b0 for b0, b1 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if len(segs) != len(bps) - 1:
            raise DomainError(
                f"expected {len(bps) - 1} segments for {len(bps)} "
                f"breakpoints, got {len(segs)}")
        if any(len(seg) == 0 for seg in segs):
            raise DomainError("empty coefficient list in segment")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "left_extension", left)
        object.__setattr__(self, "right_extension", right)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(value: float) -> "PiecewiseSignal":
        return PiecewiseSignal((0.0,), (), value, value)

    # -- evaluation -----------------------------------------------------

    def segment_index(self, t):
        """Index of the segment whose half-open interval contains t.

        Returns −1 below the first breakpoint and ``len(segments)`` at or
        above the last (the extension zones); an array for an array t.
        """
        if isinstance(t, np.ndarray):
            return np.searchsorted(self._breakpoints, t, side="right") - 1
        # rightmost breakpoint ≤ t (a NaN t sorts above every breakpoint)
        return bisect.bisect_right(self.breakpoints, t) - 1

    def eval_in_segment(self, index, t):
        """Evaluate using a specific segment's polynomial (or an extension),
        regardless of which interval t falls in.

        The integrator uses this to take one-sided limits: a step that ends
        exactly on a breakpoint must read its right endpoint from the segment
        the step lives in, not from the next one. For an array t, index is an
        array broadcast against it (or an int), and each value is the float
        the scalar call returns (see ``_eval_runs``).
        """
        if isinstance(t, np.ndarray):
            return self._eval_runs(np.asarray(index), t)
        if index < 0:
            return self.left_extension
        if index >= len(self.segments):
            return self.right_extension
        return _poly_eval(self.segments[index], t - self.breakpoints[index])

    def _eval_runs(self, index: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``eval_in_segment`` at an array t, one ``_poly_eval`` per run of
        equal indices with that segment's coefficients as floats.

        An index of t's last-axis length runs along that axis, so a chunk
        plan's (m,) segment row serves its (3, m) stage times in one pass per
        run; any other index is broadcast and runs over the flattened
        points. Many short runs (a delayed argument pinned on a breakpoint,
        rounding to either side) go as one masked pass per segment instead,
        which costs about as much as four runs.
        """
        if index.shape != t.shape[-1:] or not index.ndim:
            index, t = np.broadcast_arrays(index, t)
            index = index.ravel()
        if not index.size:
            return np.zeros(t.shape)
        tt = t.reshape(-1, index.size)
        starts = [0, *(np.flatnonzero(index[1:] != index[:-1]) + 1).tolist()]
        segs = index[starts].tolist()
        if len(starts) > 4 * len(set(segs)):
            runs = [(i, index == i) for i in set(segs)]
        else:
            runs = zip(segs, map(slice, starts, starts[1:] + [index.size]))
        out = np.empty(tt.shape)
        # like float arithmetic, Horner overflows to inf and NaN silently
        with np.errstate(over="ignore", invalid="ignore"):
            for i, run in runs:
                if i < 0:
                    out[:, run] = self.left_extension
                elif i >= len(self.segments):
                    out[:, run] = self.right_extension
                else:
                    out[:, run] = _poly_eval(self.segments[i],
                                             tt[:, run] - self.breakpoints[i])
        return out.reshape(t.shape)

    def __call__(self, t):
        return self.eval_in_segment(self.segment_index(t), t)

    @cached_property
    def _breakpoints(self) -> np.ndarray:
        return np.asarray(self.breakpoints)

    def eval_left(self, t: float) -> float:
        """Left-limit evaluation (used for history values at the start time)."""
        bps = self.breakpoints
        if t <= bps[0]:
            return self.left_extension
        if not t <= bps[-1]:  # above the last breakpoint, or NaN
            return self.right_extension
        return self.eval_in_segment(bisect.bisect_left(bps, t) - 1, t)

    # -- global shape queries --------------------------------------------

    def is_constant(self) -> bool:
        vals = {self.left_extension, self.right_extension}
        for seg in self.segments:
            if any(c != 0.0 for c in seg[1:]):
                return False
            vals.add(seg[0])
        return len(vals) == 1


def signal_range(sig: PiecewiseSignal, lo: float, hi: float) -> tuple:
    """(inf, sup) of the signal over [lo, hi], extensions included where the
    interval sticks out past the breakpoints; single points at breakpoints
    are ignored (essential range of a piecewise polynomial)."""
    if math.isnan(lo) or math.isnan(hi) or lo > hi:
        raise DomainError(f"empty or invalid interval [{lo}, {hi}]")
    bps = sig.breakpoints
    if lo == hi:
        v = sig(lo)
        return (v, v)
    cands: list[float] = []
    if lo < bps[0]:
        cands.append(sig.left_extension)
    if hi > bps[-1]:
        cands.append(sig.right_extension)
    for i, seg in enumerate(sig.segments):
        s_lo, s_hi = max(lo, bps[i]), min(hi, bps[i + 1])
        if s_lo < s_hi:
            cands.extend(_poly_extrema_values(seg, s_lo - bps[i],
                                              s_hi - bps[i]))
    return (min(cands), max(cands))


# ----------------------------------------------------------------------
# JSON encoding (the problem-file schema)
# ----------------------------------------------------------------------

def signal_to_dict(sig: PiecewiseSignal) -> dict:
    return {
        "breakpoints": list(sig.breakpoints),
        "segments": [list(seg) for seg in sig.segments],
        "left": sig.left_extension,
        "right": sig.right_extension,
    }


def _number(value) -> float:
    """A document's number: a real that is not a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def signal_from_dict(data: dict) -> PiecewiseSignal:
    try:
        return PiecewiseSignal(
            tuple(map(_number, _list(data["breakpoints"]))),
            tuple(tuple(map(_number, _list(seg)))
                  for seg in _list(data["segments"])),
            _number(data["left"]),
            _number(data["right"]),
        )
    except SemicycleError:
        raise
    except KeyError as exc:
        raise DomainError(f"signal object missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed signal object: {exc}") from exc

