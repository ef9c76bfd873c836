"""Grid model: axes with multiplicities, prescribed derivative data, I/O.

A grid is the cartesian product of per-axis node sets A_i, each node a
carrying a multiplicity nu_i(a) >= 1: the number of derivative orders
(0 .. nu-1) prescribed along that axis at that node.  Grid points are
identified by integer index vectors into the axes, never by comparing
floating-point coordinates.

HermiteData holds the prescribed values t_a^k.  Two storage layouts are
supported: a per-point mapping (exact fixtures, JSON files) and a dense
per-order tensor layout (harness-sampled data on large grids, where a
dict per grid point would be prohibitive).

File format (HGRID JSON):

    {"dims": n, "axes": [[coords...]...], "mult": [[nu...]...],
     "points": [{"index": [i1,...,in], "t": [{"k": [...], "value": v}...]}...]}

Values are JSON numbers (Binary64) or "p/q" strings (exact rationals).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite

import numpy as np

from .multiindex import order_box, enumerate_box
from .polyring import UniPoly, is_exact, parse_coefficient


def _nonfinite(v):
    return isinstance(v, float) and not isfinite(v)


@dataclass(frozen=True)
class Axis:
    """Strictly increasing node coordinates with per-node multiplicities."""

    coords: tuple
    mult: tuple

    def __init__(self, coords, mult=None):
        coords = tuple(coords)
        if mult is None:
            mult = (1,) * len(coords)
        elif isinstance(mult, int):
            mult = (mult,) * len(coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "mult", tuple(mult))

    def violations(self, label="axis"):
        out = []
        if len(self.coords) != len(self.mult):
            out.append(f"{label}: coords/mult length mismatch")
        if any(_nonfinite(c) for c in self.coords):
            out.append(f"{label}: non-finite coordinate")
        elif len(set(self.coords)) != len(self.coords):
            out.append(f"{label}: duplicate coordinate")
        elif any(a >= b for a, b in zip(self.coords, self.coords[1:])):
            out.append(f"{label}: coordinates not increasing")
        if any(m < 1 for m in self.mult):
            out.append(f"{label}: multiplicity below 1")
        return out

    @property
    def npoints(self):
        return len(self.coords)

    @property
    def condition_count(self):
        """Sum of multiplicities: the per-axis degree bound of V(A, nu)."""
        return sum(self.mult)

    def slot_offsets(self):
        """Start position of each node's derivative block in the per-axis
        slot layout (node-major, order-minor)."""
        out, off = [], 0
        for m in self.mult:
            out.append(off)
            off += m
        return out

    def is_uniform(self, rel=1e-12):
        if self.npoints < 2:
            return True
        steps = [b - a for a, b in zip(self.coords, self.coords[1:])]
        if all(is_exact(s) for s in steps):
            return len(set(steps)) == 1
        h = float(steps[0])
        return all(abs(float(s) - h) <= rel * abs(h) for s in steps)


@dataclass(frozen=True)
class GridSpec:
    """Cartesian product of axes."""

    axes: tuple

    def __init__(self, axes):
        object.__setattr__(self, "axes", tuple(axes))
        if not self.axes:
            raise ValueError("grid needs at least one axis")

    @property
    def n(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(ax.npoints for ax in self.axes)

    def condition_count(self):
        out = 1
        for ax in self.axes:
            out *= ax.condition_count
        return out

    def point_indices(self):
        return itertools.product(*[range(ax.npoints) for ax in self.axes])

    def coords(self, idx):
        return tuple(ax.coords[i] for ax, i in zip(self.axes, idx))

    def mult(self, idx):
        return tuple(ax.mult[i] for ax, i in zip(self.axes, idx))

    def order_box(self, idx):
        return order_box(tuple(m - 1 for m in self.mult(idx)))

    def hull(self):
        return [(ax.coords[0], ax.coords[-1]) for ax in self.axes]

    def contains(self, x):
        return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, self.hull()))

    def subgrid(self, corner, widths):
        return GridSpec([
            Axis(ax.coords[c:c + w], ax.mult[c:c + w])
            for ax, c, w in zip(self.axes, corner, widths)
        ])


def nodal_basis(axis, j, one=1):
    """The nodal polynomial H_a for node j: equals 1 at a = coords[j] and
    vanishes to order mult[c] at every other node c.

    The exponent is the running node's multiplicity, not the anchor's;
    with non-constant multiplicities only this choice kills all
    prescribed derivative orders at the other nodes.
    """
    a = axis.coords[j]
    num = UniPoly(0, [one])
    den = one
    for i, c in enumerate(axis.coords):
        if i == j:
            continue
        for _ in range(axis.mult[i]):
            num = num * UniPoly(0, [-c, one])
            den = den * (a - c)
    if is_exact(den):
        den = Fraction(den)
    return num.scale(1 / den)


def axis_annihilator(axis, var=0):
    """H_i(x) = prod (x - a)^{nu(a)}: monic, degree = condition count."""
    return UniPoly.from_roots(var, list(zip(axis.coords, axis.mult)))


class HermiteData:
    """Prescribed jets t_a^k over a grid.

    Storage is either `points`: {index vector: {k: value}} or `tensors`:
    {k: ndarray over the grid shape} (dense layout for sampled data).
    """

    def __init__(self, grid, points=None, tensors=None):
        if (points is None) == (tensors is None):
            raise ValueError("exactly one of points/tensors required")
        self.grid = grid
        self.points = points
        self.tensors = tensors

    @property
    def dense(self):
        return self.tensors is not None

    def value(self, idx, k):
        if self.dense:
            return self.tensors[k][idx]
        return self.points[idx][k]

    def is_exact(self):
        if self.dense:
            return False
        return all(
            is_exact(v) for vs in self.points.values() for v in vs.values()
        ) and all(is_exact(c) for ax in self.grid.axes for c in ax.coords)

    def validate(self):
        """Return a list of violation strings; empty means ok."""
        out = []
        for i, ax in enumerate(self.grid.axes):
            out.extend(ax.violations(f"axis {i + 1}"))
        if out:
            return out
        if self.dense:
            maxbox = set()
            for idx in self.grid.point_indices():
                maxbox |= set(enumerate_box(self.grid.order_box(idx)))
            missing = maxbox - set(self.tensors)
            for k in sorted(missing):
                out.append(f"dense data: missing order tensor {k}")
            for k in sorted(maxbox & set(self.tensors)):
                if not np.isfinite(self.tensors[k]).all():
                    out.append(f"dense data: non-finite value in order {k}")
            return out
        seen = set()
        for idx, entries in self.points.items():
            if not all(0 <= i < ax.npoints for i, ax in zip(idx, self.grid.axes)):
                out.append(f"point {idx}: index out of range")
                continue
            seen.add(idx)
            box = set(enumerate_box(self.grid.order_box(idx)))
            keys = set(entries)
            for k in sorted(box - keys):
                out.append(f"point {idx}: missing {k}")
            for k in sorted(keys - box):
                out.append(f"point {idx}: extra {k}")
            for k in sorted(k for k, v in entries.items() if _nonfinite(v)):
                out.append(f"point {idx}: non-finite value at {k}")
        for idx in self.grid.point_indices():
            if idx not in seen:
                out.append(f"point {idx}: absent")
        return out

    def sub_data(self, corner, widths):
        """Restriction to the window sub-grid (shared arrays, no copy of
        dense tensors beyond the slice views)."""
        sub = self.grid.subgrid(corner, widths)
        if self.dense:
            sl = tuple(slice(c, c + w) for c, w in zip(corner, widths))
            need = set()
            for idx in sub.point_indices():
                need |= set(enumerate_box(sub.order_box(idx)))
            return HermiteData(sub, tensors={k: self.tensors[k][sl] for k in need})
        pts = {}
        for idx in sub.point_indices():
            src = tuple(c + i for c, i in zip(corner, idx))
            box = enumerate_box(sub.order_box(idx))
            pts[idx] = {k: self.points[src][k] for k in box}
        return HermiteData(sub, points=pts)

    # -- HGRID JSON -------------------------------------------------

    def to_json_dict(self):
        if self.dense:
            raise ValueError("dense data is not serialized; use point layout")
        def enc(v):
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}"
            return v
        pts = []
        for idx in self.grid.point_indices():
            entries = self.points[idx]
            pts.append({
                "index": list(idx),
                "t": [{"k": list(k), "value": enc(entries[k])}
                      for k in enumerate_box(self.grid.order_box(idx))],
            })
        return {
            "dims": self.grid.n,
            "axes": [[enc(c) for c in ax.coords] for ax in self.grid.axes],
            "mult": [list(ax.mult) for ax in self.grid.axes],
            "points": pts,
        }

    @classmethod
    def from_json_dict(cls, d):
        n = d["dims"]
        axes = [
            Axis([parse_coefficient(c) for c in coords], mult)
            for coords, mult in zip(d["axes"], d["mult"])
        ]
        grid = GridSpec(axes)
        pts = {}
        for rec in d["points"]:
            idx = tuple(rec["index"])
            if idx in pts:
                raise ValueError(f"point {idx} appears more than once")
            pts[idx] = {tuple(e["k"]): parse_coefficient(e["value"])
                        for e in rec["t"]}
        return cls(grid, points=pts)


def load_hgrid(path):
    with open(path) as f:
        return HermiteData.from_json_dict(json.load(f))


def dump_hgrid(data, path):
    with open(path, "w") as f:
        json.dump(data.to_json_dict(), f, indent=1)
        f.write("\n")
