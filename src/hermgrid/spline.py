"""Piecewise (spline) evaluation: small sliding windows of a large grid.

Instead of one global interpolant of enormous degree, pick per query
point a window of w_i nodes along each axis and evaluate the local
interpolant of the window sub-grid.  Scalar and exact queries build
that local (cached by window corner).  Binary64 batches, of values or of
one derivative order, build none: the local Lambda solve factors per
axis, so the local value (or partial) at x is the window's block of the
full condition tensor contracted with one cardinal weight vector per
axis.  `eval_many` selects windows per axis for the whole batch,
computes weights once per distinct window start, and gathers and
contracts the blocks in chunks of bounded size.

Window selection per axis:

* uniform axes: with q the fractional grid position of x, an odd window
  centers on the nearest node (ties round away from zero), start =
  round(q) - (w-1)/2; an even window takes the containing cell plus
  equal numbers of nodes outward, start = floor(q) - w/2 + 1.
* general axes: the w nodes nearest to x, resolved greedily outward from
  the containing cell, distance ties preferring the lower node.  Exact x
  on exact coordinates compares distances exactly, otherwise in float.
* the chosen range is shifted (never shrunk) back inside the axis when
  it overhangs an end; queries outside the hull get the edge window.

Adjacent windows along an axis switch at seam abscissas midway between
the nodes entering/leaving the window.  For even w on a uniform axis the
seam lies exactly on a node shared by both windows, which forces
agreement of all derivative orders prescribed at that node; continuity
beyond that is not guaranteed, and `continuity_report` measures both.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor, prod

import numpy as np

from . import interpolant
from .grid import Axis
from .interpolant import interpolate
from .polyring import is_exact

# byte budget of one gathered block of windows in `eval_many`; the query
# chunk is sized from it so memory stays flat in the batch size
_GATHER_BYTES = 1 << 22


def _round_half_away(q):
    if q >= 0:
        return floor(q + Fraction(1, 2)) if is_exact(q) else floor(q + 0.5)
    return -_round_half_away(-q)


def window_start(axis, w, x):
    """Index of the first node of the selected window on one axis."""
    n = axis.npoints
    if w > n:
        raise ValueError(f"window {w} exceeds axis size {n}")
    if axis.is_uniform() and n > 1:
        a0, h = axis.coords[0], axis.coords[1] - axis.coords[0]
        exact = is_exact(x) and is_exact(a0) and is_exact(h)
        q = Fraction(x - a0, h) if exact else (float(x) - float(a0)) / float(h)
        if w % 2:
            start = _round_half_away(q) - (w - 1) // 2
        else:
            start = floor(q) - w // 2 + 1
    else:
        exact = is_exact(x) and all(is_exact(c) for c in axis.coords)
        xf = x if exact else float(x)
        coords = list(axis.coords) if exact else [float(c) for c in axis.coords]
        # grow the nearest-node run outward from the containing cell
        hi = 0
        while hi < n and coords[hi] < xf:
            hi += 1
        lo = hi - 1
        for _ in range(w):
            if lo < 0:
                hi += 1
            elif hi >= n:
                lo -= 1
            elif xf - coords[lo] <= coords[hi] - xf:
                lo -= 1
            else:
                hi += 1
        start = lo + 1
    return min(max(start, 0), n - w)


def window_starts(axis, w, xs):
    """`window_start` of every float abscissa in xs, vectorised with the
    same float operations, so each start is the one `window_start`
    returns for that float."""
    n = axis.npoints
    if w > n:
        raise ValueError(f"window {w} exceeds axis size {n}")
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("window selection needs finite abscissas")
    if axis.is_uniform() and n > 1:
        h = axis.coords[1] - axis.coords[0]
        q = (xs - float(axis.coords[0])) / float(h)
        if w % 2:
            rounded = np.where(q >= 0, np.floor(q + 0.5), -np.floor(-q + 0.5))
            start = rounded - (w - 1) // 2
        else:
            start = np.floor(q) - w // 2 + 1
    else:
        coords = np.array([float(c) for c in axis.coords])
        hi = np.searchsorted(coords, xs, side="left")
        lo = hi - 1
        for _ in range(w):
            below = xs - coords[np.maximum(lo, 0)]
            above = coords[np.minimum(hi, n - 1)] - xs
            down = (lo >= 0) & ((hi >= n) | (below <= above))
            lo = np.where(down, lo - 1, lo)
            hi = np.where(down, hi, hi + 1)
        start = lo + 1
    return np.clip(start, 0, n - w).astype(np.intp)


def axis_seams(axis, w):
    """Abscissas where the window corner changes: midpoints of the node
    leaving and the node entering.  Even w on a uniform axis puts these
    exactly on interior nodes."""
    n = axis.npoints
    if w >= n:
        return []
    c = axis.coords
    return [(c[s] + c[s + w]) / (Fraction(2) if is_exact(c[s]) else 2.0)
            for s in range(n - w)]


class SplineInterpolant:
    """Window-local Hermite interpolation over a full grid of data."""

    def __init__(self, data, window):
        grid = data.grid
        if isinstance(window, int):
            window = (window,) * grid.n
        self.window = tuple(window)
        if len(self.window) != grid.n:
            raise ValueError("one window size per axis required")
        for w, ax in zip(self.window, grid.axes):
            if w < 1 or w > ax.npoints:
                raise ValueError(f"window {w} invalid for axis of {ax.npoints}")
        self.data = data
        self.grid = grid
        self._cache = {}
        self._windows = {}  # (axis, start) -> window sub-axis, float blocks

    def select_window(self, x):
        return tuple(
            window_start(ax, w, v)
            for ax, w, v in zip(self.grid.axes, self.window, x)
        )

    def local(self, corner):
        out = self._cache.get(corner)
        if out is None:
            out = interpolate(self.data.sub_data(corner, self.window),
                              validate=False)
            self._cache[corner] = out
        return out

    def __call__(self, x):
        return self.local(self.select_window(x))(x)

    def derivative(self, x, k):
        return self.local(self.select_window(x)).derivative(x, k)

    def _window_axis(self, i, s):
        """Sub-axis of the window starting at node s of axis i, with its
        Lambda blocks in float."""
        out = self._windows.get((i, s))
        if out is None:
            ax, w = self.grid.axes[i], self.window[i]
            sub = Axis(ax.coords[s:s + w], ax.mult[s:s + w])
            lams = [[[float(v) for v in row]
                     for row in interpolant.axis_lambda(sub, j)]
                    for j in range(w)]
            out = self._windows[(i, s)] = (sub, lams)
        return out

    def eval_many(self, pts, k=None):
        """Binary64 evaluation at an (npoints, n) array; with k, the
        mixed partial of order k instead of the value.

        Per axis: the window start of every query, then its cardinal
        weights (from the slot derivatives of order k_i), computed once
        per distinct start (zero-padded to the widest window of the
        batch).  Each query's window block of the condition tensor is
        gathered by fancy indexing and contracted with its weights, axis
        by axis, in chunks of at most `_GATHER_BYTES`."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.grid.n:
            raise ValueError("point dimension mismatch")
        if k is not None:
            interpolant.check_order(self.grid.n, k)
        orders = k or (0,) * self.grid.n
        if not len(pts):
            return np.empty(0)
        tensor = np.asarray(interpolant.condition_tensor(self.data), dtype=float)
        slots, weights = [], []
        for i, (ax, w) in enumerate(zip(self.grid.axes, self.window)):
            starts = window_starts(ax, w, pts[:, i])
            used, which = np.unique(starts, return_inverse=True)
            subs = [self._window_axis(i, int(s)) for s in used]
            counts = np.array([sub.condition_count for sub, _ in subs])
            c = np.zeros((len(pts), counts.max()))
            for u, (sub, lams) in enumerate(subs):
                rows = np.flatnonzero(which == u)
                c[rows, :counts[u]] = interpolant._cardinal_weights(
                    sub, lams, pts[rows, i], orders[i])
            weights.append(c)
            # first slot and slot count of each query's window
            slots.append((np.array(ax.slot_offsets())[starts], counts[which]))
        sizes = [c.shape[1] for c in weights]
        chunk = max(1, _GATHER_BYTES // (8 * prod(sizes)))
        out = np.empty(len(pts))
        for lo in range(0, len(pts), chunk):
            sl = slice(lo, lo + chunk)
            index = []
            for i, ((first, count), m) in enumerate(zip(slots, sizes)):
                # padded slots (zero weight) repeat the window's last slot,
                # so no value from outside the window enters the sum
                ix = first[sl, None] + np.minimum(np.arange(m), count[sl, None] - 1)
                index.append(ix.reshape([-1] + [m if j == i else 1
                                                for j in range(len(sizes))]))
            block = tensor[tuple(index)]
            for c in reversed(weights):
                block = np.matmul(block.reshape(len(block), -1, c.shape[1]),
                                  c[sl, :, None])
            out[sl] = block.reshape(-1)
        return out


def eval_spline(data, window, pts):
    return SplineInterpolant(data, window).eval_many(pts)


def abutting_windows(spline, ax_i, node_idx):
    """Window starts of the patches meeting just below/just above a
    node's hyperplane.  Raises when selection does not switch there."""
    axis = spline.grid.axes[ax_i]
    a = axis.coords[node_idx]
    if node_idx == 0 or node_idx == axis.npoints - 1:
        raise ValueError("node not shared by two patches")
    lo_gap = a - axis.coords[node_idx - 1]
    hi_gap = axis.coords[node_idx + 1] - a
    w = spline.window[ax_i]
    below = window_start(axis, w, float(a) - float(lo_gap) / 2)
    above = window_start(axis, w, float(a) + float(hi_gap) / 2)
    if below == above:
        raise ValueError("node not shared by two patches")
    return below, above


def continuity_report(spline, ax_i, node_idx, probes=8, seed=0,
                      max_order=None, points=None):
    """Largest derivative mismatch between the two patches abutting at
    the hyperplane x_i = a, per derivative order across axis i.

    Probe points lie on the hyperplane (random inside the hull, or pass
    `points` explicitly, e.g. rationals for an exact check).  At each
    probe, mismatches are taken over cross orders 0..max_order along
    axis i (default: the node's multiplicity - 1) combined with orders
    0..min mult - 1 along every other axis.  Returns a list indexed by
    the cross order.
    """
    import itertools

    grid = spline.grid
    axis = grid.axes[ax_i]
    a = axis.coords[node_idx]
    below, above = abutting_windows(spline, ax_i, node_idx)
    if max_order is None:
        max_order = axis.mult[node_idx] - 1
    if points is None:
        rng = random.Random(seed)
        hull = grid.hull()
        points = []
        for _ in range(probes):
            x = [rng.uniform(float(lo), float(hi)) for lo, hi in hull]
            x[ax_i] = float(a)
            points.append(tuple(x))
    side_orders = [
        range(1) if i == ax_i else range(min(grid.axes[i].mult))
        for i in range(grid.n)
    ]
    gaps = [0 * abs(a)] * (max_order + 1)
    for x in points:
        x = tuple(a if i == ax_i else v for i, v in enumerate(x))
        corner = list(spline.select_window(x))
        left, right = list(corner), list(corner)
        left[ax_i], right[ax_i] = below, above
        pl, pr = spline.local(tuple(left)), spline.local(tuple(right))
        for side in itertools.product(*side_orders):
            for t in range(max_order + 1):
                k = tuple(t if i == ax_i else side[i] for i in range(grid.n))
                gap = abs(pl.derivative(x, k) - pr.derivative(x, k))
                if gap > gaps[t]:
                    gaps[t] = gap
    return gaps
