"""Polynomial arithmetic over Binary64 or exact rational coefficients.

Two concrete coefficient modes are supported everywhere: `float` (IEEE
Binary64) and `fractions.Fraction` (exact rationals, always in lowest
terms by construction).  Ints are accepted and treated as exact.

Representations:

* UniPoly: a univariate polynomial attached to one axis, stored as a
  dense coefficient list, lowest degree first, no trailing zeros.
* MultiPoly: an n-variate polynomial stored sparsely as a map from
  exponent tuple to coefficient; zero coefficients are never stored.
  Sparse storage matters: interpolants reach per-axis degree 29 in the
  large examples, and dense tensors of that size are wasteful.
* FactoredTerm: scalar * product of at most one UniPoly per axis, kept
  unexpanded.  High-degree interpolants must be evaluated in this form;
  expanding to monomials and evaluating at |x| ~ 7 loses every
  significant digit in Binary64 beyond degree ~15.

Division by a polynomial that is univariate in one axis (the only kind
of division the interpolation ideal needs) treats the multivariate
dividend as a polynomial in that axis with polynomial coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isfinite

from .multiindex import leq_partial

BINARY64_PRUNE = 1e-12  # relative floor for float remainder coefficients


def is_exact(c):
    return isinstance(c, (Fraction, int))


def _is_zero(c):
    return c == 0


class UniPoly:
    """Dense univariate polynomial on a single axis.

    coeffs[d] is the degree-d coefficient; the list carries no trailing
    zeros, and [] is the zero polynomial.
    """

    __slots__ = ("axis", "coeffs")

    def __init__(self, axis, coeffs):
        while coeffs and _is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.axis = axis
        self.coeffs = list(coeffs)

    @classmethod
    def constant(cls, axis, c):
        return cls(axis, [c])

    @classmethod
    def from_roots(cls, axis, roots_with_mult, one=1):
        """Monic product of (x - r)^m over (r, m) pairs."""
        p = cls(axis, [one])
        for r, m in roots_with_mult:
            for _ in range(m):
                p = p * cls(axis, [-r, one])
        return p

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.axis == other.axis
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.axis, tuple(self.coeffs)))

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return UniPoly(self.axis, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return UniPoly(self.axis, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return self.scale(other)
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly(self.axis, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(self.axis, out)

    def scale(self, c):
        return UniPoly(self.axis, [c * a for a in self.coeffs])

    def differentiate(self, k=1):
        c = self.coeffs
        for _ in range(k):
            c = [d * c[d] for d in range(1, len(c))]
        return UniPoly(self.axis, c)

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def taylor_at(self, a, order):
        """Coefficients of self(x) about a, degrees 0..order, by repeated
        synthetic division (exact in rational mode)."""
        work = list(self.coeffs)
        out = []
        for _ in range(order + 1):
            if not work:
                out.append(0)
                continue
            deg = len(work) - 1
            q = [0] * deg
            acc = work[deg]
            for d in range(deg - 1, -1, -1):
                q[d] = acc
                acc = work[d] + acc * a
            out.append(acc)  # remainder = value about a
            work = q
        return out

    def _check(self, other):
        if self.axis != other.axis:
            raise ValueError("axis mismatch")

    def __repr__(self):
        return f"UniPoly(axis={self.axis}, coeffs={self.coeffs})"


def series_inverse_at(h, a, order):
    """Taylor coefficients of 1/h about a, degrees 0..order.

    The t-th derivative of 1/h at a equals t! * c_t.  Raises
    ZeroDivisionError when h(a) = 0.
    """
    b = h.taylor_at(a, order)
    if _is_zero(b[0]):
        raise ZeroDivisionError(f"series inversion at a root: h({a}) = 0")
    b0 = Fraction(b[0]) if is_exact(b[0]) else b[0]
    c = [1 / b0]
    for t in range(1, order + 1):
        acc = 0
        for s in range(1, t + 1):
            acc += b[s] * c[t - s]
        c.append(-acc / b0)
    return c


class MultiPoly:
    """Sparse n-variate polynomial: exponent tuple -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not _is_zero(c):
                    self.terms[tuple(e)] = c

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i, one=1):
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): one})

    @classmethod
    def from_uni(cls, u, n):
        return cls(n, {
            tuple(d if j == u.axis else 0 for j in range(n)): c
            for d, c in enumerate(u.coeffs)
        })

    def is_zero(self):
        return not self.terms

    def deg(self, i):
        return max((e[i] for e in self.terms), default=-1)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.n, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if _is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.n, out)

    def __neg__(self):
        return MultiPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if _is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(self.n, out)

    def scale(self, c):
        if _is_zero(c):
            return MultiPoly(self.n)
        return MultiPoly(self.n, {e: c * v for e, v in self.terms.items()})

    def differentiate(self, k):
        """Partial derivative of mixed order k (a multi-index)."""
        if len(k) != self.n:
            raise ValueError("order/dimension mismatch")
        out = {}
        for e, c in self.terms.items():
            if not leq_partial(k, e):
                continue
            f = c
            for ki, ei in zip(k, e):
                for d in range(ei, ei - ki, -1):
                    f *= d
            out[tuple(ei - ki for ei, ki in zip(e, k))] = f
        return MultiPoly(self.n, out)

    def __call__(self, x):
        """Evaluate by per-axis Horner on the recursive dense layout."""
        if len(x) != self.n:
            raise ValueError("point dimension mismatch")
        return _horner(self._nested(), list(x))

    def _nested(self):
        # group terms into nested {e1: {e2: ... coeff}} by axis
        if self.n == 0:
            return self.terms.get((), 0)
        root = {}
        for e, c in self.terms.items():
            node = root
            for ei in e[:-1]:
                node = node.setdefault(ei, {})
            node[e[-1]] = c
        return root

    def prune(self, rel=BINARY64_PRUNE):
        """Drop float noise: coefficients below rel * max|coeff|."""
        if not self.terms:
            return self
        if any(is_exact(c) for c in self.terms.values()):
            return self
        floor = rel * max(abs(c) for c in self.terms.values())
        return MultiPoly(self.n, {
            e: c for e, c in self.terms.items() if abs(c) >= floor
        })

    def to_json_dict(self):
        terms = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if isinstance(c, Fraction):
                c = f"{c.numerator}/{c.denominator}" if c.denominator != 1 else c.numerator
            terms.append({"e": list(e), "c": c})
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json_dict(cls, d):
        terms = {}
        for t in d["terms"]:
            terms[tuple(t["e"])] = parse_coefficient(t["c"])
        return cls(d["n"], terms)

    def __repr__(self):
        return f"MultiPoly(n={self.n}, {len(self.terms)} terms)"


def parse_coefficient(c):
    """JSON coefficient: a number, or a 'p/q' / decimal string (exact).
    NaN and infinities are refused."""
    if isinstance(c, str):
        return Fraction(c)
    if isinstance(c, int):
        return c
    v = float(c)
    if not isfinite(v):
        raise ValueError(f"non-finite coefficient {v!r}")
    return v


def _horner(node, x):
    if not isinstance(node, dict):
        return node
    if not node:
        return 0
    xs = x[0]
    degs = sorted(node, reverse=True)
    out = _horner(node[degs[0]], x[1:])
    prev = degs[0]
    for e in degs[1:]:
        out = out * xs ** (prev - e) + _horner(node[e], x[1:])
        prev = e
    return out * xs ** prev if prev else out


class FactoredTerm:
    """scalar * product of at most one univariate factor per axis."""

    __slots__ = ("n", "scalar", "factors")

    def __init__(self, n, scalar, factors):
        self.n = n
        self.scalar = scalar
        self.factors = dict(factors)  # axis -> UniPoly
        for i, u in self.factors.items():
            if u.axis != i:
                raise ValueError("factor stored under wrong axis")

    def evaluate(self, x):
        out = self.scalar
        for i, u in self.factors.items():
            out = out * u(x[i])
        return out

    def expand(self):
        out = MultiPoly.constant(self.n, self.scalar)
        for u in self.factors.values():
            out = out * MultiPoly.from_uni(u, self.n)
        return out

    def __repr__(self):
        return f"FactoredTerm(scalar={self.scalar}, axes={sorted(self.factors)})"


def divide_by_axis(g, h):
    """Euclidean division of g by h, univariate in h.axis.

    Returns (q, r) with g = h*q + r and deg_axis r < deg h, exact in
    rational mode.  The other per-axis degrees of r never exceed g's.
    """
    if h.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if h.degree < 1:
        raise ValueError("divisor must have degree >= 1")
    ax, d = h.axis, h.degree
    lead = h.coeffs[-1]
    q = {}
    r = dict(g.terms)
    cur = max((e[ax] for e in r), default=-1)
    while cur >= d:
        for e in [e for e in r if e[ax] == cur]:
            c = r.pop(e)
            if is_exact(c) and is_exact(lead):
                qc = Fraction(c) / lead
            else:
                qc = c / lead
            qe = e[:ax] + (cur - d,) + e[ax + 1:]
            q[qe] = q.get(qe, 0) + qc
            # subtract qc * x^qe * h from the working remainder
            for dd, hc in enumerate(h.coeffs):
                if _is_zero(hc) or dd == d:
                    continue
                ee = e[:ax] + (cur - d + dd,) + e[ax + 1:]
                s = r.get(ee, 0) - qc * hc
                if _is_zero(s):
                    r.pop(ee, None)
                else:
                    r[ee] = s
        cur = max((e[ax] for e in r), default=-1)
    n = g.n
    qp, rp = MultiPoly(n, q), MultiPoly(n, r)
    if not all(is_exact(c) for c in g.terms.values()) or not all(is_exact(c) for c in h.coeffs):
        qp, rp = qp.prune(), rp.prune()
    return qp, rp


def jet_mul(a, b, order):
    """Truncated product of Taylor jets (coefficient lists, length order+1)."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if _is_zero(ai):
            continue
        for j in range(min(order - i, len(b) - 1) + 1):
            out[i + j] += ai * b[j]
    return out


def jet_derivatives(jet):
    """Convert Taylor coefficients to derivative values (multiply by d!)."""
    return [c * factorial(d) for d, c in enumerate(jet)]
