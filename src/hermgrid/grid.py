"""Grid model: axes with multiplicities, prescribed derivative data, I/O.

A grid is the cartesian product of per-axis node sets A_i, each node a
carrying a multiplicity nu_i(a) >= 1: the number of derivative orders
(0 .. nu-1) prescribed along that axis at that node.  Grid points are
identified by integer index vectors into the axes, never by comparing
floating-point coordinates.

HermiteData holds the prescribed values t_a^k as one condition tensor in
per-axis slot layout (node-major, order-minor), the tensor every
interpolation route reads.  Per-point mappings (fixtures, HGRID files)
are converted to it once, at construction.

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
from math import isfinite, prod
from operator import mul

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

    def slot(self, idx, k):
        """Position of condition (point idx, order k) in the per-axis slot
        layout: per axis, the node's slot offset plus k_i."""
        return tuple(sum(ax.mult[:i]) + e for ax, i, e in zip(self.axes, idx, k))

    def order_sublattices(self):
        """(k, nodes, cells) for every derivative order k the grid
        prescribes.  `nodes` lists per axis the nodes whose multiplicity
        exceeds k_i, which form a sub-lattice; `cells` is the `np.ix_`
        index of their order-k slots in the condition tensor."""
        offs = [ax.slot_offsets() for ax in self.axes]
        for k in itertools.product(*[range(max(ax.mult)) for ax in self.axes]):
            nodes = [[j for j, m in enumerate(ax.mult) if m > e]
                     for ax, e in zip(self.axes, k)]
            yield k, nodes, np.ix_(*[[o[j] + e for j in js]
                                     for o, js, e in zip(offs, nodes, k)])

    def point_slots(self):
        """(index, orders, flat positions) of every grid point: its
        derivative orders in graded order and where each sits in the
        flattened condition tensor."""
        strides = [prod(ax.condition_count for ax in self.axes[i + 1:])
                   for i in range(self.n)]
        offs = [ax.slot_offsets() for ax in self.axes]
        boxes = {}
        for idx in self.point_indices():
            m = self.mult(idx)
            if m not in boxes:
                box = enumerate_box(order_box(tuple(e - 1 for e in m)))
                boxes[m] = box, [sum(map(mul, k, strides)) for k in box]
            box, steps = boxes[m]
            first = sum(o[i] * st for o, i, st in zip(offs, idx, strides))
            yield idx, box, [first + step for step in steps]

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
    """Prescribed jets t_a^k over a grid, stored as one read-only
    condition tensor `slots`: t_a^k sits at `grid.slot(a, k)`.  It holds
    Fractions when every value is exact and float64 otherwise.  Pass it
    (`slots=`), or a per-point mapping {index vector: {k: value}}
    (`points=`), which must prescribe exactly the grid's conditions."""

    def __init__(self, grid, points=None, slots=None):
        if (points is None) == (slots is None):
            raise ValueError("exactly one of points/slots required")
        if points is not None:
            slots = _points_to_slots(grid, points)
        slots = np.asarray(slots)
        if slots.dtype != object:
            slots = slots.astype(float, copy=False)
        shape = tuple(ax.condition_count for ax in grid.axes)
        if slots.shape != shape:
            raise ValueError(f"slots of shape {slots.shape}, grid needs {shape}")
        slots.flags.writeable = False
        self.grid = grid
        self.slots = slots

    def value(self, idx, k):
        if any(e >= m for e, m in zip(k, self.grid.mult(idx))):
            raise KeyError(f"order {k} is not prescribed at point {idx}")
        return self.slots[self.grid.slot(idx, k)]

    @property
    def tensors(self):
        """Read-only per-order view {k: array}: the values of order k on
        the sub-lattice of nodes prescribing it, which is the whole grid
        when every node of an axis has the same multiplicity."""
        out = {k: self.slots[cells] for k, _, cells in self.grid.order_sublattices()}
        for view in out.values():
            view.flags.writeable = False
        return out

    def is_exact(self):
        return self.slots.dtype == object and all(
            is_exact(c) for ax in self.grid.axes for c in ax.coords)

    def validate(self):
        """Return a list of violation strings; empty means ok."""
        out = []
        for i, ax in enumerate(self.grid.axes):
            out.extend(ax.violations(f"axis {i + 1}"))
        if out or self.slots.dtype == object:
            return out
        # (node, order) of every slot, per axis
        owner = [[(j, e) for j, m in enumerate(ax.mult) for e in range(m)]
                 for ax in self.grid.axes]
        for cell in np.argwhere(~np.isfinite(self.slots)):
            idx, k = zip(*(owner[i][s] for i, s in enumerate(cell)))
            out.append(f"point {idx}: non-finite value at {k}")
        return out

    def sub_data(self, corner, widths):
        """Restriction to the window sub-grid: a view of the window's
        block of the condition tensor, no copy."""
        cells = tuple(slice(sum(ax.mult[:c]), sum(ax.mult[:c + w]))
                      for ax, c, w in zip(self.grid.axes, corner, widths))
        return HermiteData(self.grid.subgrid(corner, widths), slots=self.slots[cells])

    # -- HGRID JSON -------------------------------------------------

    def to_json_dict(self):
        def enc(v):
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}"
            return v
        flat = self.slots.ravel().tolist()
        pts = [{"index": list(idx),
                "t": [{"k": list(k), "value": enc(flat[p])}
                      for k, p in zip(box, where)]}
               for idx, box, where in self.grid.point_slots()]
        return {
            "dims": self.grid.n,
            "axes": [[enc(c) for c in ax.coords] for ax in self.grid.axes],
            "mult": [list(ax.mult) for ax in self.grid.axes],
            "points": pts,
        }

    @classmethod
    def from_json_dict(cls, d):
        if len(d["axes"]) != len(d["mult"]):
            raise ValueError(f"{len(d['axes'])} coordinate lists but "
                             f"{len(d['mult'])} multiplicity lists")
        if d["dims"] != len(d["axes"]):
            raise ValueError(f"dims {d['dims']} but {len(d['axes'])} axes")
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


def _points_to_slots(grid, points):
    """Condition tensor of a per-point mapping {index: {k: value}}.
    Raises ValueError naming the violations: axes without a slot layout
    (multiplicities that do not match the nodes), or points out of
    range, absent, or missing or adding derivative orders."""
    if any(len(ax.mult) != ax.npoints or min(ax.mult, default=1) < 1
           for ax in grid.axes):
        raise ValueError("; ".join(v for i, ax in enumerate(grid.axes)
                                   for v in ax.violations(f"axis {i + 1}")))
    inside = set(grid.point_indices())
    bad = [f"point {idx}: index out of range" for idx in points if idx not in inside]
    flat, vals = [], []
    for idx, box, where in grid.point_slots():
        entries = points.get(idx)
        if entries is None:
            bad.append(f"point {idx}: absent")
        elif entries.keys() != set(box):
            bad += [f"point {idx}: missing {k}" for k in sorted(set(box) - set(entries))]
            bad += [f"point {idx}: extra {k}" for k in sorted(set(entries) - set(box))]
        else:
            flat += where
            vals += [entries[k] for k in box]
    if bad:
        raise ValueError("; ".join(bad[:8]))
    exact = all(map(is_exact, vals))
    T = np.empty(grid.condition_count(), dtype=object if exact else float)
    # ints become Fractions, so exact data holds one type
    T[flat] = [v if isinstance(v, Fraction) else Fraction(v)
               for v in vals] if exact else vals
    return T.reshape(tuple(ax.condition_count for ax in grid.axes))


def load_hgrid(path):
    with open(path) as f:
        return HermiteData.from_json_dict(json.load(f))


def dump_hgrid(data, path):
    with open(path, "w") as f:
        json.dump(data.to_json_dict(), f, indent=1)
        f.write("\n")
