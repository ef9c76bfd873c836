"""Hermite coordinate interpolation on rectilinear grids.

Given values and mixed partial derivatives t_a^k prescribed at the points
of a grid (orders k_i = 0 .. nu_i(a_i)-1 per axis), there is exactly one
polynomial with per-axis degree below the axis condition count matching
all of them.  This module builds it three independent ways:

* `interpolate`: the production route.  Per grid point the interaction
  between slot functions is captured by a unit lower triangular matrix
  Lambda that factors into a Kronecker product of per-axis blocks, so the
  full coefficient tensor Xi is obtained by n sweeps of block forward
  substitution over the condition tensor, one axis at a time.  Cost is
  linear in the data per sweep; no global linear system is ever formed.
* `spitzbart_interpolate`: closed-form univariate cardinal polynomials
  via truncated power-series inversion of the nodal polynomial.  Their
  coefficients form one matrix per axis, and the condition tensor taken
  through those matrices is the tensor-product sum over conditions.
* `vandermonde_interpolate`: exact solve against the monomial basis.  The
  confluent Vandermonde matrix of a rectilinear grid is the Kronecker
  product of per-axis factors, so each factor is inverted exactly and
  the condition tensor is taken through the inverses.

All three agree exactly in rational arithmetic; tests rely on that.  The
two references share only the condition tensor with `interpolate`: they
use neither Lambda nor the slot functions.

Evaluation keeps the factored form: the interpolant is a contraction of
Xi with one matrix of slot function values per axis, which is
numerically benign even at degree 29 where the expanded monomial form is
unusable.  Derivatives are the same contraction over differentiated slot
functions.  One batched per-axis kernel, `_slot_jets`, gives the Taylor
coefficients of every slot function at a vector of abscissas, in float64
or exactly.  It serves every value and derivative of `eval_many` and
`eval_lattice`, the spline's cardinal weights, the scalar `__call__` and
`derivative` (a lattice of one point), and, at x = 0, the coefficient
matrices of `expanded()`.  Expansion to a plain polynomial is available
(and lazy) for low degrees and for the division algorithms; exact scalar
queries up to `EXPAND_DEGREE_LIMIT` evaluate it, differentiated once per
order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

import numpy as np

from .grid import nodal_basis
from .multiindex import enumerate_box
from .polyring import (
    MultiPoly,
    UniPoly,
    is_exact,
    jet_derivatives,
    jet_mul,
    series_inverse_at,
)

EXPAND_DEGREE_LIMIT = 15


def _axis_exact(axis):
    return all(is_exact(c) for c in axis.coords)


def axis_lambda(axis, j):
    """Lower triangular interaction block for node j of one axis.

    Entry (r, c) is C(r,c) * H^{(r-c)}(a) where H is the nodal polynomial
    of node j and a its coordinate: the r-th derivative at a of the slot
    function (x-a)^c H(x) / c!.  Unit diagonal since H(a) = 1.
    """
    m = axis.mult[j]
    a = axis.coords[j]
    exact = _axis_exact(axis)
    one = Fraction(1) if exact else 1.0
    jet = [one] + [0 * one] * (m - 1)
    for i, c in enumerate(axis.coords):
        if i == j:
            continue
        # ((x-c)/(a-c))^mult expanded at a: (1 + (x-a)/(a-c))^mult
        inv = Fraction(1, 1) / (a - c) if exact else 1.0 / (a - c)
        fac = [one]
        for _ in range(axis.mult[i]):
            fac = jet_mul(fac, [one, inv], m)
        jet = jet_mul(jet, fac, m)
    dv = jet_derivatives(jet)
    return [
        [comb(r, c) * dv[r - c] if r >= c else 0 * one for c in range(m)]
        for r in range(m)
    ]


def build_lambda(grid, idx):
    """Full interaction matrix at grid point idx: Kronecker product of the
    per-axis blocks, rows and columns in graded-order enumeration of the
    point's derivative box."""
    lams = [axis_lambda(ax, i) for ax, i in zip(grid.axes, idx)]
    box = enumerate_box(grid.order_box(idx))
    out = []
    for r in box:
        row = []
        for c in box:
            v = 1
            for lam, ri, ci in zip(lams, r, c):
                if ri < ci:
                    v = 0
                    break
                v = v * lam[ri][ci]
            row.append(v)
        out.append(row)
    return out


def lambda_inverse(grid, idx):
    """Inverse of the interaction matrix, by forward substitution on each
    unit column.  Unit lower triangular again."""
    lam = build_lambda(grid, idx)
    size = len(lam)
    cols = []
    for e in range(size):
        x = []
        for r in range(size):
            acc = 1 if r == e else 0
            for c in range(r):
                acc = acc - lam[r][c] * x[c]
            x.append(acc)
        cols.append(x)
    return [[cols[c][r] for c in range(size)] for r in range(size)]


def solve_coefficients(lam, t, method="forward"):
    """xi with Lambda xi = t, for one grid point's interaction matrix.

    t is ordered like the matrix rows (graded box enumeration).
    method="forward" is substitution; "neumann" sums (I - Lambda)^i t,
    which terminates because I - Lambda is nilpotent.  Both must agree
    exactly.
    """
    size = len(t)
    if method == "forward":
        xi = []
        for r in range(size):
            acc = t[r]
            for c in range(r):
                acc = acc - lam[r][c] * xi[c]
            xi.append(acc)
    elif method == "neumann":
        xi = list(t)
        term = list(t)
        for _ in range(1, size):
            # term <- (I - Lambda) term
            term = [
                term[r] - sum(lam[r][c] * term[c] for c in range(r + 1))
                for r in range(size)
            ]
            xi = [a + b for a, b in zip(xi, term)]
    else:
        raise ValueError(f"unknown method {method!r}")
    return xi


def build_basis(grid, idx, k):
    """Basis polynomial for condition (point idx, order k) in factored
    form: product over axes of (x_i - a_i)^{k_i} H_{a_i}(x_i) / k_i!."""
    from .polyring import FactoredTerm

    exact = all(_axis_exact(ax) for ax in grid.axes)
    one = Fraction(1) if exact else 1.0
    factors = {}
    scalar = one
    for i, (ax, j) in enumerate(zip(grid.axes, idx)):
        h = nodal_basis(ax, j, one)
        h.axis = i
        a = ax.coords[j]
        shift = UniPoly(i, [-a * one, one])
        for _ in range(k[i]):
            h = h * shift
        scalar = scalar / factorial(k[i])
        factors[i] = h
    return FactoredTerm(grid.n, scalar, factors)


# -- tensor route -----------------------------------------------------


def condition_tensor(data):
    """The data's stored condition tensor (per-axis slot layout,
    node-major, order-minor; every cell is exactly one condition), as
    float64 unless the data is exact."""
    return data.slots.astype(object if data.is_exact() else float, copy=False)


def _solve_along_axis(T, axis_obj, lams, ax_i):
    m = T.shape[ax_i]
    moved = np.moveaxis(T, ax_i, 0)
    shp = moved.shape
    work = moved.reshape(m, -1).copy()
    offs = axis_obj.slot_offsets()
    for j, mj in enumerate(axis_obj.mult):
        off = offs[j]
        lam = lams[j]
        for r in range(1, mj):
            row = work[off + r]
            for c in range(r):
                row = row - lam[r][c] * work[off + c]
            work[off + r] = row
    return np.moveaxis(work.reshape(shp), 0, ax_i)


def _slot_jets(axis, xs, K):
    """Taylor coefficients e^0 .. e^K, in the offset e of x + e, of every
    slot function (x - a)^t / t! H_a(x) of one axis at a vector of
    abscissas: (K+1, len(xs), m), slots in slot order.  Coefficient k
    times k! is the k-th derivative; at x = 0 the coefficients are the
    monomial ones.  A float64 xs gives float64; an object xs of Fractions
    stays exact, float coordinates taken as their exact Fractions."""
    exact = xs.dtype == object
    one = Fraction(1) if exact else 1.0
    coords = np.array([Fraction(c) if exact else float(c) for c in axis.coords],
                      dtype=xs.dtype)[:, None]
    # row j of h[d]: coefficient d of the nodal polynomial of node j, its
    # factors ((x + e - c)/(a_j - c))^mult multiplied in node by node as
    # jets truncated after e^K, by repeated products; values (K = 0) by
    # powers.  A node's own factor is 1.
    h = [np.full((len(coords), len(xs)), one)]
    h += [np.full((len(coords), len(xs)), 0 * one)] * K
    for i, (c, mult) in enumerate(zip(coords[:, 0], axis.mult)):
        gap = coords - c
        gap[i] = one
        u, v = (xs - c) / gap, one / gap
        u[i], v[i] = one, 0 * one
        if K == 0:
            h[0] = h[0] * u ** mult
            continue
        for _ in range(mult):
            for d in range(K, 0, -1):
                h[d] = h[d] * u + h[d - 1] * v
            h[0] = h[0] * u
    # slot (j, t) is h_j (x + e - a_j)^t / t! = h_j sum_q p_{t-q} e^q / q!
    # with p_t = (x - a_j)^t / t!; the q = 0 term first keeps a -0.0
    top = max(axis.mult)
    out = np.empty((K + 1, len(coords), top, len(xs)), dtype=xs.dtype)
    p = [np.full((len(coords), len(xs)), one)]
    for t in range(top):
        for k in range(K + 1):
            col = h[k] * p[t]
            for q in range(1, min(t, k) + 1):
                col = col + h[k - q] * p[t - q] / factorial(q)
            out[k, :, t] = col
        p.append(p[t] * (xs - coords) / (t + 1))
    # keep t < mult_j (node-major, order-minor is the slot order), in C
    # order, since the contraction's summation order follows the layout
    keep = np.arange(top) < np.array(axis.mult)[:, None]
    return np.ascontiguousarray(out[:, keep].transpose(0, 2, 1))


def _cardinal_weights(axis, lams, xs, order=0):
    """Per-axis cardinal weights at a float vector of abscissas:
    (len(xs), m), row c = L^-T s(x) with L the block diagonal of `lams`
    (float `axis_lambda` blocks) and s the slot values, or with `order`
    their derivatives of that order.  The interpolant at x (its partial)
    is the condition tensor contracted with one such row per axis, since
    Xi = (L_1^-1 x ... x L_n^-1) T.  Back substitution block by block,
    the transpose of `_solve_along_axis`, so at a node the value row is
    exactly one-hot."""
    c = factorial(order) * _slot_jets(axis, np.asarray(xs, dtype=float), order)[order]
    for off, mj, lam in zip(axis.slot_offsets(), axis.mult, lams):
        for r in range(mj - 2, -1, -1):
            col = c[:, off + r]
            for q in range(r + 1, mj):
                col = col - lam[q][r] * c[:, off + q]
            c[:, off + r] = col
    return c


def check_order(n, k):
    """Raise ValueError unless k is n non-negative derivative orders."""
    if len(k) != n:
        raise ValueError(f"derivative order {tuple(k)} needs {n} entries")
    if any(e < 0 for e in k):
        raise ValueError(f"negative derivative order in {tuple(k)}")


def _mode_products(T, mats):
    """T taken through one matrix (or vector) per axis, leading axis
    first: out[e] = sum_s T[s] prod_i mats[i][s_i, e_i]."""
    for M in mats:
        T = np.tensordot(T, M, axes=([0], [0]))
    return T


def _coefficient_matrix(polys, width, one):
    """Row r holds the monomial coefficients of polys[r], padded to width."""
    M = np.full((len(polys), width), 0 * one,
                dtype=object if is_exact(one) else float)
    for r, p in enumerate(polys):
        M[r, :len(p.coeffs)] = p.coeffs
    return M


def _to_multipoly(C):
    """The polynomial with coefficient C[e] at exponent e; zeros dropped."""
    return MultiPoly(C.ndim, {tuple(int(v) for v in e): C[e]
                              for e in np.ndindex(C.shape) if C[e] != 0})


class HermiteInterpolant:
    """The unique matching polynomial, held in factored form.

    `xi` is the coefficient tensor over per-axis slots; evaluation
    contracts it with one matrix of slot function values (or derivatives)
    per axis, all from `_slot_jets`.  `expanded()` converts to a plain
    polynomial (cached); automatic only below the degree limit.

    The reference constructions return the same object backed by an
    already-expanded polynomial instead of a slot tensor (xi is None
    then); evaluation falls through to the polynomial.
    """

    def __init__(self, grid, xi, exact, expanded=None):
        self.grid = grid
        self.xi = xi
        self.exact = exact
        self._expanded = expanded
        self._xi_float = None
        self._derivs = {}  # order -> differentiated expanded polynomial

    @classmethod
    def from_polynomial(cls, grid, poly, exact=None):
        if exact is None:
            exact = all(is_exact(c) for c in poly.terms.values())
        return cls(grid, None, exact, expanded=poly)

    @property
    def max_degree(self):
        return max(ax.condition_count - 1 for ax in self.grid.axes)

    def _float_xi(self):
        if self.xi.dtype != object:
            return self.xi
        if self._xi_float is None:
            self._xi_float = self.xi.astype(float)
        return self._xi_float

    def __call__(self, x):
        return self.derivative(x, (0,) * self.grid.n)

    def eval_many(self, pts, k=None):
        """Binary64 evaluation at an (npoints, n) array; with k, the
        mixed partial of order k instead of the value."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        n = self.grid.n
        if pts.shape[1] != n:
            raise ValueError("point dimension mismatch")
        if k is not None:
            check_order(n, k)
        if self.xi is None:
            p = self._expanded if k is None else self._differentiated(k)
            return np.array([float(p(tuple(row))) for row in pts])
        orders = k or (0,) * n
        ops = [self._float_xi(), list(range(n))]
        for i, (ax, e) in enumerate(zip(self.grid.axes, orders)):
            ops += [factorial(e) * _slot_jets(ax, pts[:, i], e)[e], [n, i]]
        ops.append([n])
        return np.einsum(*ops, optimize=True)

    def eval_lattice(self, axes_vals, k=None):
        """Evaluation on a product lattice, the value or with k the mixed
        partial of order k; returns an array of the lattice shape.
        Binary64, or exact when the interpolant and every lattice
        coordinate are exact."""
        if k is not None:
            check_order(self.grid.n, k)
        if self.xi is None:
            mesh = np.meshgrid(*axes_vals, indexing="ij")
            flat = np.stack([m.ravel() for m in mesh], axis=-1)
            return self.eval_many(flat, k).reshape(mesh[0].shape)
        orders = k or (0,) * self.grid.n
        if self.exact and all(is_exact(v) for xs in axes_vals for v in xs):
            out = self.xi
            axes_vals = [np.array([Fraction(v) for v in xs], dtype=object)
                         for xs in axes_vals]
        else:
            out = self._float_xi()
            axes_vals = [np.asarray(xs, dtype=float) for xs in axes_vals]
        for ax, xs, e in zip(self.grid.axes, axes_vals, orders):
            out = np.tensordot(out, factorial(e) * _slot_jets(ax, xs, e)[e],
                               axes=([0], [1]))
        return out

    def derivative(self, x, k):
        """Mixed partial of order k at point x (the value when k is zero;
        `__call__` is this with k = 0).

        Exact queries up to `EXPAND_DEGREE_LIMIT` go through the expanded
        polynomial, differentiated once per order; polynomial-backed
        interpolants always use their polynomial.  Every other query is
        `eval_lattice` on one-point axes: Binary64 at any degree, which
        never leaves the well-scaled factored form, and exact above the
        limit.
        """
        if len(x) != self.grid.n:
            raise ValueError("point dimension mismatch")
        check_order(self.grid.n, k)
        ex = self.exact and all(is_exact(v) for v in x)
        if self.xi is None or (ex and self.max_degree <= EXPAND_DEGREE_LIMIT):
            p = self._differentiated(k)
            return p(tuple(x)) if ex else float(p(tuple(float(v) for v in x)))
        return self.eval_lattice([[v] for v in x], k).item()

    def _differentiated(self, k):
        """The expanded polynomial differentiated to order k, cached."""
        k = tuple(k)
        if not any(k):
            return self.expanded()
        p = self._derivs.get(k)
        if p is None:
            p = self._derivs[k] = self.expanded().differentiate(k)
        return p

    def expanded(self, force=False):
        if self._expanded is not None:
            return self._expanded
        if self.max_degree > EXPAND_DEGREE_LIMIT and not force:
            raise ValueError(
                f"degree {self.max_degree} interpolant: expansion must be forced")
        # Taylor coefficients at 0: row s holds slot s's monomials
        origin = np.array([Fraction(0)], dtype=object) if self.exact else np.zeros(1)
        mats = [_slot_jets(ax, origin, ax.condition_count - 1)[:, 0, :].T
                for ax in self.grid.axes]
        self._expanded = _to_multipoly(_mode_products(self.xi, mats))
        return self._expanded

    def point_xi(self, idx):
        """Closed-form coefficients of one grid point: the slice of the
        slot tensor belonging to its derivative box, graded order."""
        if self.xi is None:
            raise ValueError("polynomial-backed interpolant has no slot tensor")
        return [self.xi[self.grid.slot(idx, k)]
                for k in enumerate_box(self.grid.order_box(idx))]

    def to_json_dict(self, form="factored"):
        """Serialize: "expanded" emits the plain polynomial record,
        "factored" the per-point coefficients with their basis orders."""
        if form == "expanded":
            return self.expanded().to_json_dict()
        if form != "factored":
            raise ValueError(f"unknown form {form!r}")
        def enc(v):
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}"
            return float(v)
        pts = [{"index": list(idx), "basis": [list(k) for k in box],
                "xi": [enc(v) for v in self.point_xi(idx)]}
               for idx, box, _ in self.grid.point_slots()]
        return {
            "form": "factored",
            "dims": self.grid.n,
            "axes": [[enc(c) for c in ax.coords] for ax in self.grid.axes],
            "mult": [list(ax.mult) for ax in self.grid.axes],
            "points": pts,
        }


def interpolate(data, validate=True):
    """Build the interpolant for prescribed Hermite data.

    Exact values on exact coordinates yield an exact (rational)
    interpolant; any Binary64 value or coordinate yields a Binary64 one.
    """
    if validate:
        bad = data.validate()
        if bad:
            raise ValueError("invalid data: " + "; ".join(bad[:5]))
    grid = data.grid
    T = condition_tensor(data)
    for i, ax in enumerate(grid.axes):
        lams = [axis_lambda(ax, j) for j in range(ax.npoints)]
        T = _solve_along_axis(T, ax, lams, i)
    return HermiteInterpolant(grid, T, exact=T.dtype == object)


# -- independent reference routes --------------------------------------


def _cardinal_poly(axis, j, k):
    """Univariate cardinal polynomial taking derivative order k at node j
    to 1 and all other prescribed orders on the axis to 0.  Closed form:
    (x-a)^k / k! * H(x) * [truncated power series of 1/H at a]."""
    a = axis.coords[j]
    exact = _axis_exact(axis)
    one = Fraction(1) if exact else 1.0
    h = nodal_basis(axis, j, one)
    inv = series_inverse_at(h, a, axis.mult[j] - 1 - k)
    trunc = UniPoly(0, [0 * one])
    shift = UniPoly(0, [-a * one, one])
    pw = UniPoly(0, [one])
    for c in inv:
        trunc = trunc + pw.scale(c)
        pw = pw * shift
    p = h * trunc
    for _ in range(k):
        p = p * shift
    return p.scale(Fraction(1, factorial(k)) if exact else 1.0 / factorial(k))


def spitzbart_interpolate(data):
    """The classical generalized-Hermite formula: the sum over conditions
    of the value times a tensor product of univariate closed-form
    cardinal polynomials.  Per axis the cardinal polynomials of every
    slot are the rows of one coefficient matrix, so the sum is the
    condition tensor taken through those matrices by mode products.
    Independent of Lambda; keeps the value type of the data."""
    grid = data.grid
    T = condition_tensor(data)
    mats = []
    for ax in grid.axes:
        polys = [_cardinal_poly(ax, j, k)
                 for j in range(ax.npoints) for k in range(ax.mult[j])]
        M = _coefficient_matrix(polys, ax.condition_count,
                                Fraction(1) if _axis_exact(ax) else 1.0)
        mats.append(M if T.dtype == object else M.astype(float))
    return HermiteInterpolant.from_polynomial(
        grid, _to_multipoly(_mode_products(T, mats)))


def _confluent_factor(axis):
    """Exact confluent Vandermonde factor of one axis: row (node j, order
    k), in slot order, holds the k-th derivatives at a_j of the monomials
    x^e, e!/(e-k)! a_j^(e-k).  The grid's matrix is the Kronecker product
    of these factors."""
    m = axis.condition_count
    return np.array([
        [Fraction(perm(e, k)) * Fraction(a) ** max(e - k, 0) for e in range(m)]
        for a, mj in zip(axis.coords, axis.mult) for k in range(mj)
    ], dtype=object)


def _exact_inverse(A):
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination
    with row pivoting."""
    m = len(A)
    W = np.hstack([A, np.array([[Fraction(int(r == c)) for c in range(m)]
                                for r in range(m)], dtype=object)])
    for c in range(m):
        p = next(r for r in range(c, m) if W[r, c] != 0)
        W[[c, p]] = W[[p, c]]
        W[c] = W[c] / W[c, c]
        for r in range(m):
            if r != c and W[r, c] != 0:
                W[r] = W[r] - W[r, c] * W[c]
    return W[:, m:]


def vandermonde_interpolate(data):
    """Exact solve against the monomial basis.  The confluent Vandermonde
    matrix is V_1 x ... x V_n, so the monomial coefficients are the
    stored condition tensor, converted to Fractions (so exact values stay
    exact on float coordinates), taken through V_i^-T by mode products;
    each factor is inverted exactly and is as small as one axis's
    condition count."""
    grid = data.grid
    T = np.vectorize(Fraction, otypes=[object])(data.slots)
    mats = [_exact_inverse(_confluent_factor(ax)).T for ax in grid.axes]
    return HermiteInterpolant.from_polynomial(
        grid, _to_multipoly(_mode_products(T, mats)))
