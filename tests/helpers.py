"""Shared fixtures: worked-example data and random instance generators.

Everything here is deterministic; random generators take an explicit
random.Random so tests stay reproducible.
"""

import hashlib
import random
from fractions import Fraction as F
from math import factorial

import numpy as np

from hermgrid.grid import Axis, GridSpec, HermiteData, nodal_basis
from hermgrid.multiindex import enumerate_box
from hermgrid.polyring import MultiPoly, UniPoly


def mpow(p, e):
    out = MultiPoly.constant(p.n, F(1))
    for _ in range(e):
        out = out * p
    return out


def mp(n, terms):
    return MultiPoly(n, {tuple(e): F(c) for e, c in terms.items()})


# -- 2x2 unit grid, nu (2,2) ---------------------------------------------

def unit_square_nu2():
    return GridSpec((Axis((0, 1), 2), Axis((0, 1), 2)))


def ones_points(grid):
    return {
        idx: {k: F(1) for k in enumerate_box(grid.order_box(idx))}
        for idx in grid.point_indices()
    }


def ones_data(grid):
    return HermiteData(grid, points=ones_points(grid))


def conditions(data):
    """(index, order, value) of every condition the data prescribes."""
    for idx in data.grid.point_indices():
        for k in enumerate_box(data.grid.order_box(idx)):
            yield idx, k, data.value(idx, k)


# Coupling matrices printed for the 2x2 grid, labeled there as inverses.
# Rows/columns ordered (0,0), (0,1), (1,0), (1,1).  The matrix printed
# under point a is the forward coupling matrix of a itself; the true
# inverse at a is the matrix printed under the opposite corner.
PRINTED_INVERSE = {
    (0, 0): [[1, 0, 0, 0], [-2, 1, 0, 0], [-2, 0, 1, 0], [4, -2, -2, 1]],
    (0, 1): [[1, 0, 0, 0], [2, 1, 0, 0], [-2, 0, 1, 0], [-4, -2, 2, 1]],
    (1, 0): [[1, 0, 0, 0], [-2, 1, 0, 0], [2, 0, 1, 0], [-4, 2, -2, 1]],
    (1, 1): [[1, 0, 0, 0], [2, 1, 0, 0], [2, 0, 1, 0], [4, 2, 2, 1]],
}


def antipode(idx):
    return tuple(1 - i for i in idx)


# -- univariate 7-node fixture (windowed continuity) ----------------------

# per node: (t^0, t^1, t^2); the data comes from the monic degree-8
# polynomial  x^8 - 16x^7 + 112x^6 - 448x^5 + 1119x^4 - 1803x^3
#             + 1724x^2 - 985x - 160
SEVEN_NODE_VALUES = {
    0: (-160, -985, 3448),
    1: (-456, -142, -158),
    2: (-714, -397, -316),
    3: (-1288, -766, -386),
    4: (-2052, -265, 2992),
    5: (2640, 15530, 40058),
    6: (59234, 128243, 228412),
}

SEVEN_NODE_SOURCE = mp(1, {
    (8,): 1, (7,): -16, (6,): 112, (5,): -448, (4,): 1119,
    (3,): -1803, (2,): 1724, (1,): -985, (0,): -160,
})


def seven_node_data(nu):
    grid = GridSpec((Axis(tuple(range(7)), nu),))
    pts = {
        (a,): {(k,): F(SEVEN_NODE_VALUES[a][k]) for k in range(nu)}
        for a in range(7)
    }
    return HermiteData(grid, points=pts)


# -- trivariate division fixture over {-1,0,1}^3, nu (2,2,2) ---------------

def division_grid_3d():
    ax = Axis((-1, 0, 1), 2)
    return GridSpec((ax, ax, ax))


def division_poly_3d():
    x = MultiPoly.variable(3, 0, F(1))
    y = MultiPoly.variable(3, 1, F(1))
    z = MultiPoly.variable(3, 2, F(1))
    return mpow(x - y.scale(2), 7) + mpow(x + z * z, 4)


Q1_PRINTED_3D = mp(3, {(1, 0, 0): 1, (0, 1, 0): -14})
Q2_PRINTED_3D = mp(3, {(1, 0, 0): 448, (0, 1, 0): -128})
Q3_PRINTED_3D = mp(3, {(0, 0, 2): 1, (1, 0, 0): 4, (0, 0, 0): 2})

# remainder the printed quotients imply (g - sum H_i q_i); it equals the
# Lambda and Spitzbart interpolants of data sampled off g
R3_CONSISTENT = mp(3, {
    (5, 2, 0): 84, (5, 0, 0): 2, (4, 3, 0): -280, (4, 1, 0): -28,
    (4, 0, 0): 1, (3, 4, 0): 560, (3, 0, 2): 4, (3, 0, 0): -1,
    (2, 5, 0): -672, (2, 1, 0): 14, (2, 0, 4): 6, (1, 4, 0): 896,
    (1, 2, 0): -448, (1, 0, 4): 8, (1, 0, 2): -4, (0, 5, 0): -256,
    (0, 3, 0): 128, (0, 0, 4): 3, (0, 0, 2): -2,
})

# remainder as printed: an erratum.  The printed quotients close the
# division identity only with R3_CONSISTENT, and this table violates 51
# of the 216 interpolation conditions.  It differs from R3_CONSISTENT in
# nine y-free monomials x^a z^b: every one of the seven in the remainder
# of (x + z^2)^4 (x^4, z^2, z^4, x z^2, x z^4, x^2 z^4, x^3 z^2), a
# spurious x^2 z^2, and x^3, whose -1 comes from (x - 2y)^7.  Every
# monomial with y in it, and x^5, agrees term for term.
R3_PRINTED = mp(3, {
    (5, 2, 0): 84, (5, 0, 0): 2, (4, 3, 0): -280, (4, 1, 0): -28,
    (3, 4, 0): 560, (2, 5, 0): -672, (2, 1, 0): 14, (2, 0, 2): 3,
    (1, 4, 0): 896, (1, 2, 0): -448, (1, 0, 4): 3, (0, 5, 0): -256,
    (0, 3, 0): 128, (0, 0, 4): 2, (0, 0, 2): -1,
})


# -- univariate division fixture on {0.7, 1.2, 1.7, 2.2}, nu 2 -------------

def division_grid_1d():
    return GridSpec((Axis((F(7, 10), F(6, 5), F(17, 10), F(11, 5)), 2),))


def division_poly_1d():
    x = MultiPoly.variable(1, 0, F(1))
    return mpow(x - MultiPoly.constant(1, F(2)), 11) + mpow(x, 4) \
        + MultiPoly.constant(1, F(9))


Q_PRINTED_1D = mp(1, {(3,): 1, (2,): F(-52, 5), (1,): F(2087, 50),
                      (0,): F(-1918, 25)})

# exact remainder, descending degree 7..0
R_EXACT_1D = [
    F(104191, 2000), F(-14825009, 25000), F(57270879, 20000),
    F(-380289139, 50000), F(6006056277, 500000), F(-17633567929, 1562500),
    F(456830293117, 78125000), F(-25035164239, 19531250),
]

# remainder as printed: fractions re-approximating the values above
R_PRINTED_1D = [
    F(9273, 178), F(-593), F(31499, 11), F(-106481, 14),
    F(108109, 9), F(-349850, 31), F(40932, 7), F(-6409, 5),
]

# printed complement H1*q1, descending degree 11..0
COMPLEMENT_PRINTED_1D = [
    F(1), F(-22), F(220), F(-1320), F(52279, 10), F(-14191),
    F(293749, 11), F(-173166, 5), F(272051, 9), F(-33749, 2),
    F(37916, 7), F(-3786, 5),
]


# -- random instances ------------------------------------------------------

def rand_fraction(rng, span=4, maxden=4):
    return F(rng.randint(-span, span), rng.randint(1, maxden))


def random_axis(rng, max_pts=3, max_nu=3):
    npts = rng.randint(1, max_pts)
    pool = [F(v, 2) for v in range(-8, 9)]
    coords = tuple(sorted(rng.sample(pool, npts)))
    mult = tuple(rng.randint(1, max_nu) for _ in range(npts))
    return Axis(coords, mult)


def random_grid(rng, max_n=3, max_pts=3, max_nu=3, max_conditions=512):
    while True:
        n = rng.randint(1, max_n)
        grid = GridSpec([random_axis(rng, max_pts, max_nu) for _ in range(n)])
        if grid.condition_count() <= max_conditions:
            return grid


def random_data(rng, grid):
    pts = {}
    for idx in grid.point_indices():
        box = enumerate_box(grid.order_box(idx))
        pts[idx] = {k: rand_fraction(rng) for k in box}
    return HermiteData(grid, points=pts)


def float_data(data):
    """Binary64 copy of exact point data: coordinates and values."""
    grid = GridSpec([Axis([float(c) for c in ax.coords], ax.mult)
                     for ax in data.grid.axes])
    return HermiteData(grid, slots=data.slots.astype(float))


def binary64_case(seed):
    """Float copy of a random instance (1-3 axes, up to 4 nodes, nu up to
    3), 9 scattered points, some outside the hull, and a 4-per-axis
    lattice."""
    rng = random.Random(seed)
    data = random_data(rng, random_grid(rng, max_n=3, max_pts=4, max_nu=3,
                                        max_conditions=300))
    hull = [(float(lo), float(hi)) for lo, hi in data.grid.hull()]
    pts = np.array([[rng.uniform(lo - 0.5, hi + 0.5) for lo, hi in hull]
                    for _ in range(9)])
    lattice = [np.linspace(lo, hi, 4) for lo, hi in hull]
    return float_data(data), pts, lattice


def digest(values):
    """Short SHA-256 of a float array's bytes: equal only if bit-identical."""
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()[:16]


def sample_poly_data(g, grid):
    """Exact Hermite data of a polynomial: t_a^k = d^k g(a)."""
    pts = {}
    for idx in grid.point_indices():
        a = grid.coords(idx)
        box = enumerate_box(grid.order_box(idx))
        pts[idx] = {k: g.differentiate(k)(a) for k in box}
    return HermiteData(grid, points=pts)


def random_mpoly(rng, n, max_deg=8, max_terms=10):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * n
        budget = rng.randint(0, max_deg)
        for i in range(n):
            e[i] = rng.randint(0, budget)
            budget -= e[i]
        terms[tuple(e)] = rand_fraction(rng)
    out = MultiPoly(n, {e: c for e, c in terms.items() if c})
    return out


def slot_polys(axis):
    """Exact expanded slot polynomials (x - a)^t / t! H_a(x) of one axis,
    in slot order (node-major, order-minor), built from `nodal_basis`."""
    out = []
    for j, (a, m) in enumerate(zip(axis.coords, axis.mult)):
        h = nodal_basis(axis, j, F(1))
        shift = UniPoly(0, [-F(a), F(1)])
        power = UniPoly(0, [F(1)])
        for t in range(m):
            out.append((h * power).scale(F(1, factorial(t))))
            power = power * shift
    return out


# -- multilinear expansions -------------------------------------------------

def bilinear_poly(c):
    """Tensor-product linear blend on the unit square; c maps (i,j) to
    the corner value."""
    return mp(2, {
        (0, 0): c[0, 0],
        (1, 0): c[1, 0] - c[0, 0],
        (0, 1): c[0, 1] - c[0, 0],
        (1, 1): c[1, 1] - c[1, 0] - c[0, 1] + c[0, 0],
    })


def trilinear_poly(c):
    """Tensor-product linear blend on the unit cube."""
    out = {}
    for e in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
              (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
        acc = F(0)
        for idx, v in c.items():
            if all(i <= ei for i, ei in zip(idx, e)):
                sign = (-1) ** (sum(e) - sum(idx))
                acc += sign * v
        if acc:
            out[e] = acc
    return MultiPoly(3, out)
