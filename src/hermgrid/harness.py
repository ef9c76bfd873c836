"""Test functions with exact mixed partials, sampling, RMSE, baselines.

Analytic reference functions are parsed from infix text (`^` or `**`
for powers, calls to exp/sin/cos, variables x1..xn) into a restricted
AST and evaluated either on plain arrays or on `TensorJet` operands.

A TensorJet carries truncated multivariate Taylor data: a mapping from
derivative multi-order k to the Taylor coefficient array c_k = d^k f/k!
over a whole lattice of base points at once.  Arithmetic is box-
truncated convolution; exp/sin/cos split the jet into constant part
plus nilpotent part and sum the finite Taylor series of the outer
function.  This yields every mixed partial the grid needs in one
vectorized pass, with no symbolic engine and no step-size error, and is
validated against central finite differences in the tests.

The module also owns the reproduction geometry: built-in functions with
their grids and sample lattices, the oblique-plane sampler, the RMSE
reducer, and the direct multilinear baseline.
"""

from __future__ import annotations

import ast
import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .grid import Axis, GridSpec, HermiteData

log = logging.getLogger(__name__)


# -- truncated Taylor arithmetic ---------------------------------------


def _conv(a, b, kmax):
    out = {}
    for j, aj in a.items():
        for l, bl in b.items():
            k = tuple(x + y for x, y in zip(j, l))
            if any(x > m for x, m in zip(k, kmax)):
                continue
            prev = out.get(k)
            out[k] = aj * bl if prev is None else prev + aj * bl
    return out


class TensorJet:
    """Taylor coefficients c_k (arrays over the sample lattice) of one
    scalar quantity, truncated to k <= kmax per axis."""

    __slots__ = ("kmax", "coef")

    def __init__(self, kmax, coef):
        self.kmax = kmax
        self.coef = coef

    @classmethod
    def variable(cls, i, values, kmax):
        zero = (0,) * len(kmax)
        coef = {zero: np.asarray(values, dtype=float)}
        if kmax[i] > 0:
            e = tuple(1 if j == i else 0 for j in range(len(kmax)))
            coef[e] = 1.0
        return cls(kmax, coef)

    def _zero_key(self):
        return (0,) * len(self.kmax)

    def _lift(self, other):
        if isinstance(other, TensorJet):
            return other
        return TensorJet(self.kmax, {self._zero_key(): other})

    def __add__(self, other):
        other = self._lift(other)
        out = dict(self.coef)
        for k, v in other.coef.items():
            out[k] = out[k] + v if k in out else v
        return TensorJet(self.kmax, out)

    __radd__ = __add__

    def __neg__(self):
        return TensorJet(self.kmax, {k: -v for k, v in self.coef.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TensorJet):
            return TensorJet(self.kmax,
                             {k: v * other for k, v in self.coef.items()})
        return TensorJet(self.kmax, _conv(self.coef, other.coef, self.kmax))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TensorJet):
            return self * (1.0 / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, e):
        if isinstance(e, float) and e.is_integer():
            e = int(e)
        if not isinstance(e, int):
            raise ValueError("only integer powers are supported")
        if e < 0:
            return self.reciprocal() ** (-e)
        out = TensorJet(self.kmax, {self._zero_key(): 1.0})
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def reciprocal(self):
        zero = self._zero_key()
        c0 = self.coef[zero]
        inv = {zero: 1.0 / c0}
        keys = sorted(
            (k for k in itertools.product(*(range(m + 1) for m in self.kmax))
             if any(k)),
            key=lambda k: (sum(k), k),
        )
        for k in keys:
            acc = None
            for j, fj in self.coef.items():
                if j == zero or any(x > y for x, y in zip(j, k)):
                    continue
                rest = tuple(y - x for x, y in zip(j, k))
                r = inv.get(rest)
                if r is None:
                    continue
                acc = fj * r if acc is None else acc + fj * r
            if acc is not None:
                inv[k] = -acc / c0
        return TensorJet(self.kmax, inv)

    def _analytic(self, nth_derivative):
        """Outer analytic function applied to the jet: finite Taylor sum
        of the outer function around the constant part."""
        zero = self._zero_key()
        c0 = self.coef.get(zero, 0.0)
        out = {zero: nth_derivative(0, c0)}
        power = {k: v for k, v in self.coef.items() if k != zero}
        total = sum(self.kmax)
        fact = 1
        current = None
        for m in range(1, total + 1):
            current = power if m == 1 else _conv(current, power, self.kmax)
            if not current:
                break
            fact *= m
            dm = nth_derivative(m, c0) / fact
            for k, v in current.items():
                out[k] = out[k] + dm * v if k in out else dm * v
        return TensorJet(self.kmax, out)

    def derivative(self, k):
        """d^k f as an array (Taylor coefficient times k!)."""
        c = self.coef.get(tuple(k), 0.0)
        scale = 1
        for e in k:
            scale *= factorial(e)
        return c * scale


_SIN_CYCLE = (np.sin, np.cos, lambda c: -np.sin(c), lambda c: -np.cos(c))


def exp(x):
    if isinstance(x, TensorJet):
        return x._analytic(lambda m, c: np.exp(c))
    return np.exp(x)


def sin(x):
    if isinstance(x, TensorJet):
        return x._analytic(lambda m, c: _SIN_CYCLE[m % 4](c))
    return np.sin(x)


def cos(x):
    if isinstance(x, TensorJet):
        return x._analytic(lambda m, c: _SIN_CYCLE[(m + 1) % 4](c))
    return np.cos(x)


_FUNCTIONS = {"exp": exp, "sin": sin, "cos": cos}


# -- expression parsing -------------------------------------------------

_ALLOWED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _check_tree(tree, names):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Constant, ast.Load)):
            if isinstance(node, ast.Constant) and not isinstance(
                    node.value, (int, float)):
                raise ValueError(f"bad constant {node.value!r}")
        elif isinstance(node, ast.BinOp):
            if not isinstance(node.op, _ALLOWED_OPS):
                raise ValueError("operator not allowed")
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.USub, ast.UAdd)):
                raise ValueError("operator not allowed")
        elif isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _FUNCTIONS
                    or len(node.args) != 1 or node.keywords):
                raise ValueError("only exp/sin/cos calls of one argument")
        elif isinstance(node, ast.Name):
            if node.id not in names and node.id not in _FUNCTIONS:
                raise ValueError(f"unknown name {node.id!r}")
        elif isinstance(node, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                               ast.USub, ast.UAdd)):
            pass
        else:
            raise ValueError(f"syntax not allowed: {type(node).__name__}")


class TestFunction:
    """Analytic scalar function of x1..xn given as infix text."""

    def __init__(self, source, n):
        self.source = source
        self.n = n
        self._names = tuple(f"x{i + 1}" for i in range(n))
        tree = ast.parse(source.replace("^", "**"), mode="eval")
        _check_tree(tree, set(self._names))
        self._code = compile(tree, "<testfunction>", "eval")

    def __call__(self, *args):
        if len(args) != self.n:
            raise ValueError(f"expected {self.n} arguments")
        env = dict(zip(self._names, args))
        env.update(_FUNCTIONS)
        return eval(self._code, {"__builtins__": {}}, env)

    def values(self, pts):
        """Binary64 values at an (npoints, n) array."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        out = self(*[pts[:, i] for i in range(self.n)])
        return np.broadcast_to(np.asarray(out, dtype=float),
                               (len(pts),)).copy()

    def derivative(self, pts, k):
        """d^k values at an (npoints, n) array, by forward-mode jets."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        kmax = tuple(k)
        jets = [
            TensorJet.variable(i, pts[:, i], kmax) for i in range(self.n)
        ]
        out = self(*jets)
        if not isinstance(out, TensorJet):
            out = TensorJet(kmax, {(0,) * self.n: out})
        return np.broadcast_to(np.asarray(out.derivative(k), dtype=float),
                               (len(pts),)).copy()

    def __repr__(self):
        return f"TestFunction({self.source!r}, n={self.n})"


def derive_data(f, grid, chunk=200_000):
    """Sample a function and all grid-required mixed partials into the
    condition tensor, slabbed along the first axis to bound peak memory.
    Every order below an axis's largest multiplicity is sampled at every
    node, into a (node, order) pair of dimensions per axis; the slot
    tensor keeps the pairs the axis prescribes, node-major, which are all
    of them when the axis's multiplicities are equal."""
    n = grid.n
    if isinstance(f, str):
        f = TestFunction(f, n)
    kmax = tuple(max(ax.mult) - 1 for ax in grid.axes)
    keys = list(itertools.product(*(range(m + 1) for m in kmax)))
    coords = [np.array([float(c) for c in ax.coords]) for ax in grid.axes]
    shape = grid.shape
    jets_at = np.empty([d for s, m in zip(shape, kmax) for d in (s, m + 1)])
    slab = max(1, chunk // max(int(np.prod(shape[1:])), 1))
    scales = {k: np.prod([factorial(e) for e in k]) for k in keys}
    for s0 in range(0, shape[0], slab):
        sl = slice(s0, min(s0 + slab, shape[0]))
        mesh = np.meshgrid(coords[0][sl], *coords[1:], indexing="ij")
        jets = [TensorJet.variable(i, mesh[i], kmax) for i in range(n)]
        out = f(*jets)
        if not isinstance(out, TensorJet):
            out = TensorJet(kmax, {(0,) * n: out})
        for k in keys:
            c = out.coef.get(k, 0.0)
            cell = (sl, k[0]) + sum(((slice(None), e) for e in k[1:]), ())
            jets_at[cell] = np.broadcast_to(
                np.asarray(c, dtype=float) * scales[k], mesh[0].shape)
    T = jets_at.reshape([s * (m + 1) for s, m in zip(shape, kmax)])
    for i, (ax, m) in enumerate(zip(grid.axes, kmax)):
        if ax.condition_count < T.shape[i]:
            T = np.take(T, [j * (m + 1) + e for j, mj in enumerate(ax.mult)
                            for e in range(mj)], axis=i)
    return HermiteData(grid, slots=T)


_FD_STENCILS = {
    0: ((0.0, 1.0),),
    1: ((-1.0, -0.5), (1.0, 0.5)),
    2: ((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0)),
}


def finite_difference(f, pts, k, step=1e-4):
    """Central finite differences for mixed orders up to 2 per axis;
    the independent check on the jet machinery."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    out = np.zeros(len(pts))
    axes = [
        _FD_STENCILS[e] if e in _FD_STENCILS else None for e in k
    ]
    if any(a is None for a in axes):
        raise ValueError("finite differences coded for orders 0..2 only")
    denom = step ** sum(k)
    for combo in itertools.product(*axes):
        shifted = pts.copy()
        w = 1.0
        for i, (off, c) in enumerate(combo):
            shifted[:, i] += off * step
            w *= c
        out += w * f.values(shifted)
    return out / denom


# -- error metrics and baselines ----------------------------------------


def rmse(a, b):
    """Root-mean-square difference; numpy's pairwise reduction keeps it
    deterministic for a fixed shape."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def multilinear_baseline(data, pts):
    """Direct n-linear blend of the surrounding cell corners, values
    only.  Cross-check for multiplicity-1 window-2 splines."""
    grid = data.grid
    if any(m != 1 for ax in grid.axes for m in ax.mult):
        raise ValueError("baseline is defined for multiplicity 1 data")
    n = grid.n
    values = np.asarray(data.tensors[(0,) * n], dtype=float)
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    cells, weights = [], []
    for i, ax in enumerate(grid.axes):
        c = np.array([float(v) for v in ax.coords])
        j = np.clip(np.searchsorted(c, pts[:, i], side="right") - 1,
                    0, len(c) - 2)
        cells.append(j)
        weights.append((pts[:, i] - c[j]) / (c[j + 1] - c[j]))
    out = np.zeros(len(pts))
    for corner in itertools.product((0, 1), repeat=n):
        w = np.ones(len(pts))
        for i, bit in enumerate(corner):
            w = w * (weights[i] if bit else 1.0 - weights[i])
        out += w * values[tuple(cells[i] + corner[i] for i in range(n))]
    return out


# -- plane sampling geometry ---------------------------------------------


@dataclass(frozen=True)
class PlaneSpec:
    """Oblique plane in 3-space, sampled as a graph over (x1, x2)."""

    point: tuple
    normal: tuple
    rect: tuple  # ((u_lo, u_hi), (v_lo, v_hi))
    step: float

    def __post_init__(self):
        norm = sum(c * c for c in self.normal) ** 0.5
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("normal must be a unit vector")
        if self.normal[2] == 0:
            raise ValueError("plane must be a graph over (x1, x2)")


def lattice(lo, hi, step):
    """Inclusive uniform 1-D lattice; the count is attained exactly."""
    cnt = int(round((float(hi) - float(lo)) / float(step))) + 1
    return float(lo) + float(step) * np.arange(cnt)


def sample_plane(plane, hull=None):
    """Lattice of 3D points on the plane over its parameter rectangle.

    Returns (points, n_excluded); points outside the hull are dropped
    and their count logged.
    """
    (ulo, uhi), (vlo, vhi) = plane.rect
    u = lattice(ulo, uhi, plane.step)
    v = lattice(vlo, vhi, plane.step)
    U, V = np.meshgrid(u, v, indexing="ij")
    p1, p2, p3 = (float(c) for c in plane.point)
    n1, n2, n3 = (float(c) for c in plane.normal)
    # ratio form keeps x3 exact when the normal has zero/equal entries
    x3 = p3 + (n1 / n3) * (p1 - U) + (n2 / n3) * (p2 - V)
    pts = np.stack([U.ravel(), V.ravel(), x3.ravel()], axis=-1)
    if hull is None:
        return pts, 0
    inside = np.ones(len(pts), dtype=bool)
    for i, (lo, hi) in enumerate(hull):
        inside &= (pts[:, i] >= float(lo)) & (pts[:, i] <= float(hi))
    excluded = int((~inside).sum())
    if excluded:
        log.warning("excluded %d plane points outside the grid hull",
                    excluded)
    return pts[inside], excluded


# -- built-in reproduction setups ----------------------------------------


@dataclass(frozen=True)
class BuiltinSetup:
    expression: str
    n: int
    axes: tuple  # per axis: (lo, hi) integer node range
    lattice: tuple  # per axis: (lo, hi, step)


BUILTINS = {
    "exp2d": BuiltinSetup(
        "exp(x1 + x2)", 2,
        ((0, 1), (0, 1)),
        ((0, 1, 0.1), (0, 1, 0.1)),
    ),
    "gauss2d": BuiltinSetup(
        "exp(-(x1-3)^2 - (x2-3)^2) + exp((-(x1-4)^2 - (x2-4)^2)/5)", 2,
        ((0, 5), (0, 5)),
        ((0, 5, 0.1), (0, 5, 0.1)),
    ),
    "gauss3d": BuiltinSetup(
        "exp((-(x1-3)^2 - (x2-1)^2 - (x3-1.5)^2)/3)"
        " - exp((-(x1-0.5)^2 - (x2-2)^2 - (x3-1)^2)/5)", 3,
        ((0, 3), (0, 4), (0, 2)),
        ((0, 3, 0.25), (0, 4, 0.25), (0, 2, 0.25)),
    ),
    "sinmix3d": BuiltinSetup(
        "x1*sin(x2) + x2*sin(x1)/10 - x1*sin(x2*x3/4)", 3,
        ((-7, 7), (-7, 7), (-7, 7)),
        ((-7, 7, 0.25), (-7, 7, 0.25), (-7, 7, 0.25)),
    ),
}

# plane resampling geometry: x1 + x3 = 21 over (x1, x2) in [1, 18]^2
OBLIQUE_PLANE = PlaneSpec(
    point=(10.5, 10.5, 10.5),
    normal=(2 ** -0.5, 0.0, 2 ** -0.5),
    rect=((1, 18), (1, 18)),
    step=0.5,
)

# the grid the oblique plane is resampled on: [0, ~20] per axis at the
# chosen step, extended past 20 when the step does not land on it
PLANE_GRID_RANGE = (0, 20)


def builtin_function(name):
    b = BUILTINS[name]
    return TestFunction(b.expression, b.n)


def builtin_grid(name, mult):
    """Integer-node grid of a built-in; mult is scalar or per-axis."""
    b = BUILTINS[name]
    if isinstance(mult, int):
        mult = (mult,) * b.n
    axes = []
    for (lo, hi), m in zip(b.axes, mult):
        coords = list(range(lo, hi + 1))
        axes.append(Axis(coords, (m,) * len(coords)))
    return GridSpec(axes)


def builtin_lattice(name):
    b = BUILTINS[name]
    return [lattice(lo, hi, s) for lo, hi, s in b.lattice]


def stepped_axis(lo, hi, step, mult):
    """Uniform axis from lo in increments of step up to the first node
    at or beyond hi (exact arithmetic on the count)."""
    span = Fraction(str(hi)) - Fraction(str(lo))
    st = Fraction(str(step))
    count = span / st
    npts = int(count) + 1 if count == int(count) else int(count) + 2
    coords = [float(lo) + float(step) * i for i in range(npts)]
    return Axis(coords, (mult,) * npts)


def plane_grid(step, mult, n=3):
    lo, hi = PLANE_GRID_RANGE
    return GridSpec([stepped_axis(lo, hi, step, mult) for _ in range(n)])
