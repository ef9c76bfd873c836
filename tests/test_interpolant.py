import itertools
import random
from fractions import Fraction as F
from math import factorial

import numpy as np
import pytest

from helpers import (
    PRINTED_INVERSE,
    antipode,
    bilinear_poly,
    binary64_case,
    conditions,
    digest,
    division_grid_1d,
    division_poly_1d,
    float_data,
    mp,
    random_axis,
    random_data,
    random_grid,
    sample_poly_data,
    slot_polys,
    trilinear_poly,
    unit_square_nu2,
)
from hermgrid.grid import Axis, GridSpec, HermiteData
from hermgrid.interpolant import (
    HermiteInterpolant,
    build_basis,
    EXPAND_DEGREE_LIMIT,
    _confluent_factor,
    _slot_jets,
    build_lambda,
    interpolate,
    lambda_inverse,
    solve_coefficients,
    spitzbart_interpolate,
    vandermonde_interpolate,
)
from hermgrid.multiindex import enumerate_box, leq_partial
from hermgrid.polyring import MultiPoly, is_exact


# -- coupling matrices ---------------------------------------------------


def test_lambda_printed_matrices():
    # The four matrices printed for the 2x2 grid are labeled as inverses
    # but are the forward coupling matrices; the true inverse at a corner
    # is the matrix printed under the opposite corner.  Both statements
    # are asserted, plus plain set equality with the printed family.
    grid = unit_square_nu2()
    built = {idx: build_lambda(grid, idx) for idx in grid.point_indices()}
    for idx, lam in built.items():
        assert lam == [[F(v) for v in row] for row in PRINTED_INVERSE[idx]]
        inv = lambda_inverse(grid, idx)
        assert inv == [[F(v) for v in row]
                       for row in PRINTED_INVERSE[antipode(idx)]]
        prod = np.array(lam, dtype=object) @ np.array(inv, dtype=object)
        assert prod.tolist() == np.eye(4, dtype=int).tolist()
    printed = {tuple(map(tuple, m)) for m in PRINTED_INVERSE.values()}
    inverses = {
        tuple(tuple(int(v) for v in row) for row in lambda_inverse(grid, idx))
        for idx in grid.point_indices()
    }
    assert inverses == printed


def test_lambda_scalar_case():
    grid = GridSpec((Axis((F(3),), 1), Axis((F(-2), F(5)), 1)))
    for idx in grid.point_indices():
        assert build_lambda(grid, idx) == [[1]]


def test_lambda_unitriangular_random():
    rng = random.Random(17)
    for _ in range(10):
        grid = random_grid(rng, max_conditions=64)
        idx = tuple(rng.randrange(ax.npoints) for ax in grid.axes)
        lam = build_lambda(grid, idx)
        box = enumerate_box(grid.order_box(idx))
        for r in range(len(box)):
            assert lam[r][r] == 1
            for c in range(len(box)):
                if not leq_partial(box[c], box[r]):
                    assert lam[r][c] == 0


def test_solve_coefficients_printed_vector():
    # printed inverse at (0,0) times T = (1,1,1,1) gives (1,-1,-1,1);
    # the matrix whose true inverse that is sits at the opposite corner
    grid = unit_square_nu2()
    T = [F(1)] * 4
    expect = [F(1), F(-1), F(-1), F(1)]
    M = np.array(PRINTED_INVERSE[(0, 0)], dtype=object)
    assert list(M @ np.array(T, dtype=object)) == expect
    xi = solve_coefficients(build_lambda(grid, (1, 1)), T)
    assert xi == expect


def test_solve_coefficients_trivial():
    grid = unit_square_nu2()
    lam = build_lambda(grid, (0, 0))
    assert solve_coefficients(lam, [F(0)] * 4) == [F(0)] * 4
    assert solve_coefficients([[F(1)]], [F(7)]) == [F(7)]
    with pytest.raises(ValueError):
        solve_coefficients(lam, [F(1)] * 4, method="gauss")


def test_forward_equals_neumann():
    rng = random.Random(29)
    for _ in range(12):
        grid = random_grid(rng, max_conditions=81)
        idx = tuple(rng.randrange(ax.npoints) for ax in grid.axes)
        lam = build_lambda(grid, idx)
        t = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in lam]
        assert solve_coefficients(lam, t, method="forward") == \
            solve_coefficients(lam, t, method="neumann")


# -- basis polynomials ----------------------------------------------------


def test_build_basis_printed_entries():
    grid = unit_square_nu2()
    # (x1^3 - 2x1^2 + x1)(x2^2 - 2x2 + 1)
    term = build_basis(grid, (0, 0), (1, 0))
    assert term.expand() == mp(2, {
        (3, 2): 1, (3, 1): -2, (3, 0): 1,
        (2, 2): -2, (2, 1): 4, (2, 0): -2,
        (1, 2): 1, (1, 1): -2, (1, 0): 1,
    })

    hats = GridSpec((Axis((0, 1), 1), Axis((0, 1), 1)))
    term = build_basis(hats, (0, 0), (0, 0))
    assert term.expand() == mp(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})

    single = GridSpec((Axis((F(2),), 1), Axis((F(-1),), 1)))
    term = build_basis(single, (0, 0), (0, 0))
    assert term.expand() == mp(2, {(0, 0): 1})


def test_basis_degree_bounds():
    grid = GridSpec((Axis((F(0), F(1), F(3)), (2, 1, 3)), Axis((F(0), F(2)), 2)))
    for idx in grid.point_indices():
        for k in enumerate_box(grid.order_box(idx)):
            p = build_basis(grid, idx, k).expand()
            assert p.deg(0) < 6 and p.deg(1) < 4


def test_basis_derivative_table():
    # d_a^k H_{(b,m)}: 0 when a != b; at a == b: 1 when k == m and 0
    # unless m <= k componentwise
    grids = [
        GridSpec((Axis((F(0), F(1)), (2, 1)), Axis((F(-1), F(2)), (1, 2)))),
        GridSpec((Axis((F(0), F(1), F(2)), (1, 3, 2)),)),
    ]
    for grid in grids:
        for b in grid.point_indices():
            for m in enumerate_box(grid.order_box(b)):
                H = build_basis(grid, b, m).expand()
                for a in grid.point_indices():
                    x = grid.coords(a)
                    for k in enumerate_box(grid.order_box(a)):
                        v = H.differentiate(k)(x)
                        if a != b:
                            assert v == 0
                        elif k == m:
                            assert v == 1
                        elif not leq_partial(m, k):
                            assert v == 0


# -- the interpolant ------------------------------------------------------


def test_interpolation_conditions_exact():
    rng = random.Random(41)
    for _ in range(10):
        grid = random_grid(rng, max_conditions=64)
        data = random_data(rng, grid)
        f = interpolate(data)
        assert f.exact
        for idx, k, t in conditions(data):
            assert f.derivative(grid.coords(idx), k) == t


def test_interpolant_degree_bounds():
    rng = random.Random(43)
    for _ in range(8):
        grid = random_grid(rng, max_conditions=40)
        f = interpolate(random_data(rng, grid))
        p = f.expanded(force=True)
        for i, ax in enumerate(grid.axes):
            assert p.deg(i) < ax.condition_count


def test_interpolate_linearity():
    rng = random.Random(47)
    grid = random_grid(rng, max_conditions=36)
    d1 = random_data(rng, grid)
    d2 = random_data(rng, grid)
    a, b = F(3, 2), F(-7, 3)
    mix = HermiteData(grid, slots=a * d1.slots + b * d2.slots)
    lhs = interpolate(mix).expanded(force=True)
    rhs = interpolate(d1).expanded(force=True).scale(a) \
        + interpolate(d2).expanded(force=True).scale(b)
    assert lhs == rhs


def test_bilinear_identity():
    rng = random.Random(53)
    grid = GridSpec((Axis((0, 1), 1), Axis((0, 1), 1)))
    c = {idx: F(rng.randint(-9, 9)) for idx in grid.point_indices()}
    data = HermiteData(grid, points={
        idx: {(0, 0): v} for idx, v in c.items()
    })
    f = interpolate(data)
    assert f.expanded() == bilinear_poly(c)
    # midpoint value is the corner mean
    assert f((F(1, 2), F(1, 2))) == sum(c.values()) / F(4)


def test_trilinear_identity():
    rng = random.Random(59)
    grid = GridSpec(tuple(Axis((0, 1), 1) for _ in range(3)))
    c = {idx: F(rng.randint(-9, 9)) for idx in grid.point_indices()}
    data = HermiteData(grid, points={
        idx: {(0, 0, 0): v} for idx, v in c.items()
    })
    assert interpolate(data).expanded() == trilinear_poly(c)


def test_eval_at_support_points_binary64():
    from hermgrid.harness import builtin_function, builtin_grid, derive_data

    grid = builtin_grid("exp2d", 2)
    f = builtin_function("exp2d")
    data = derive_data(f, grid)
    p = interpolate(data)
    for idx in grid.point_indices():
        x = grid.coords(idx)
        for k in enumerate_box(grid.order_box(idx)):
            want = float(data.value(idx, k))
            got = p.derivative(tuple(float(v) for v in x), k)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    # corner data value is exp(0) = 1
    assert abs(p((0.0, 0.0)) - 1.0) <= 1e-9


def test_eval_many_and_lattice_match_scalar():
    rng = random.Random(61)
    grid = random_grid(rng, max_n=2, max_conditions=36)
    f = interpolate(random_data(rng, grid))
    pts = [[rng.uniform(-4, 4) for _ in range(grid.n)] for _ in range(20)]
    many = f.eval_many(pts)
    for row, v in zip(pts, many):
        assert abs(f(tuple(row)) - v) <= 1e-9 * max(1.0, abs(v))

    axes_vals = [np.linspace(-2, 2, 5) for _ in range(grid.n)]
    lat = f.eval_lattice(axes_vals)
    assert lat.shape == tuple(len(v) for v in axes_vals)
    for e in np.ndindex(*lat.shape):
        x = tuple(axes_vals[i][e[i]] for i in range(grid.n))
        assert abs(f(x) - lat[e]) <= 1e-9 * max(1.0, abs(lat[e]))


def test_derivative_matches_expanded_form():
    rng = random.Random(67)
    grid = random_grid(rng, max_conditions=30)
    f = interpolate(random_data(rng, grid))
    p = f.expanded(force=True)
    for _ in range(10):
        x = tuple(F(rng.randint(-6, 6), 2) for _ in range(grid.n))
        k = tuple(rng.randint(0, 2) for _ in range(grid.n))
        assert f.derivative(x, k) == p.differentiate(k)(x)


def test_derivative_high_degree_factored_path():
    # degree above the expansion threshold exercises the jet route
    rng = random.Random(71)
    ax = Axis(tuple(F(v) for v in range(6)), 3)   # degree 17
    grid = GridSpec((ax,))
    data = random_data(rng, grid)
    f = interpolate(data)
    assert f.max_degree == 17
    p = f.expanded(force=True)
    for _ in range(6):
        x = (F(rng.randint(-4, 9), 2),)
        for k in ((0,), (1,), (2,)):
            assert f.derivative(x, k) == p.differentiate(k)(x)


def test_slot_derivatives_match_differentiated_slot_polynomials():
    ax = Axis((F(-1), F(1, 2), F(2)), (2, 3, 1))
    xs = [F(1, 3), F(-5, 7), F(2)]
    polys = slot_polys(ax)
    exact = _slot_jets(ax, np.array(xs, dtype=object), 7)
    assert exact.shape == (8, 3, 6)
    for order in range(8):
        want = [[p.differentiate(order)(x) for p in polys] for x in xs]
        assert (factorial(order) * exact[order]).tolist() == want
        approx = _slot_jets(ax, np.array([float(x) for x in xs]), order)
        assert approx.dtype == float and approx.shape == (order + 1, 3, 6)
        assert np.allclose(factorial(order) * approx[order],
                           np.array(want, dtype=float), rtol=1e-13, atol=1e-13)


def test_slot_jets_are_the_taylor_coefficients_of_the_slot_polynomials():
    # exact orders 0..m-1 at random rational x and at 0 (where they are
    # the monomial coefficients), and Binary64 orders 1-3 against them
    rng = random.Random(113)
    for _ in range(25):
        ax = random_axis(rng, max_pts=5)
        m = ax.condition_count
        polys = slot_polys(ax)
        xs = [F(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(4)]
        top = max(m - 1, 3)
        exact = _slot_jets(ax, np.array(xs + [F(0)], dtype=object), top)
        for k in range(top + 1):
            want = [[p.differentiate(k)(x) / factorial(k) for p in polys]
                    for x in xs]
            assert exact[k, :4].tolist() == want
        padded = [p.coeffs + [0] * (m - len(p.coeffs)) for p in polys]
        assert exact[:m, 4].T.tolist() == padded
        for K in (1, 2, 3):
            approx = _slot_jets(ax, np.array([float(x) for x in xs]), K)
            want = exact[:K + 1, :4].astype(float)
            assert np.all(np.abs(approx - want)
                          <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_exact_scalar_queries_above_the_expansion_limit():
    rng = random.Random(127)
    grid = GridSpec((Axis(tuple(F(v, 2) for v in range(-3, 3)), 3),
                     Axis((F(-1), F(2)), 2)))
    assert grid.axes[0].condition_count - 1 > EXPAND_DEGREE_LIMIT
    data = random_data(rng, grid)
    f = interpolate(data)
    for idx, k, t in conditions(data):
        x = grid.coords(idx)
        assert f.derivative(x, k) == t
        if not any(k):
            assert f(x) == t
    assert f._expanded is None


def test_value_is_the_zero_order_derivative_on_every_route():
    rng = random.Random(131)
    grid = GridSpec((Axis((F(0), F(1), F(3)), 2), Axis((F(-1), F(2)), (3, 1))))
    data = random_data(rng, grid)
    zero = (0, 0)
    routes = [interpolate(data), interpolate(float_data(data)),
              spitzbart_interpolate(data), vandermonde_interpolate(data)]
    for f in routes:
        for _ in range(5):
            x = tuple(F(rng.randint(-9, 9), 4) for _ in range(2))
            for point in (x, tuple(float(v) for v in x)):
                assert f(point) == f.derivative(point, zero)


def test_binary64_derivatives_match_exact_at_rational_points():
    # every Binary64 route (scalar, batch, lattice) against the exact
    # derivative, on random 1-3 D grids with mixed multiplicities
    rng = random.Random(97)
    for _ in range(12):
        grid = random_grid(rng, max_pts=4, max_conditions=300)
        data = random_data(rng, grid)
        exact, f = interpolate(data), interpolate(float_data(data))
        pts = [tuple(F(rng.randint(-40, 40), 7) for _ in range(grid.n))
               for _ in range(15)]
        fpts = np.array(pts, dtype=float)
        for _ in range(4):
            k = tuple(rng.randint(0, 3) for _ in range(grid.n))
            want = np.array([float(exact.derivative(x, k)) for x in pts])
            scale = max(1.0, np.max(np.abs(want)))
            many = f.eval_many(fpts, k)
            assert np.max(np.abs(many - want)) <= 1e-12 * scale, k
            scalar = [f.derivative(tuple(x), k) for x in fpts]
            assert np.max(np.abs(scalar - want)) <= 1e-12 * scale, k
            lattice = f.eval_lattice([fpts[:3, i] for i in range(grid.n)], k)
            diag = [lattice[(j,) * grid.n] for j in range(3)]
            assert np.max(np.abs(diag - want[:3])) <= 1e-12 * scale, k


# sha256 prefixes of the value batches as computed before derivative
# orders joined eval_many/eval_lattice, on `binary64_case(seed)`:
# (seed, eval_many, eval_lattice)
VALUE_DIGESTS = [
    (0, "25d0885bc4f07e76", "e38b1c4c32279742"),
    (5, "ace751cf72298b80", "38336ff58e86f65d"),
    (24, "8aac9b7b30f91093", "2e752b8cfdd3c3ef"),
    (33, "86ac41f5759576b2", "3a76eded404073f1"),
    (38, "7e7b0369d9c7286b", "e74980360b1bffbb"),
]


def test_value_batches_are_bit_identical():
    for seed, many, lattice in VALUE_DIGESTS:
        data, pts, lat = binary64_case(seed)
        f = interpolate(data)
        assert digest(f.eval_many(pts)) == many, seed
        assert digest(f.eval_lattice(lat)) == lattice, seed
        zero = (0,) * data.grid.n
        assert np.array_equal(f.eval_many(pts, zero), f.eval_many(pts))
        assert np.array_equal(f.eval_lattice(lat, zero), f.eval_lattice(lat))


def test_bad_orders_and_points_raise_value_error():
    rng = random.Random(101)
    grid = GridSpec((Axis((F(0), F(1), F(3)), 2), Axis((F(-1), F(2)), 3)))
    data = random_data(rng, grid)
    exact = interpolate(data)
    routes = [exact, interpolate(float_data(data)),
              vandermonde_interpolate(data)]
    x = (F(1, 2), F(1, 3))
    for f in routes:
        for point in (x, tuple(float(v) for v in x)):
            with pytest.raises(ValueError, match="negative"):
                f.derivative(point, (1, -1))
            with pytest.raises(ValueError, match="2 entries"):
                f.derivative(point, (1,))
            with pytest.raises(ValueError, match="2 entries"):
                f.derivative(point, (1, 0, 0))
            with pytest.raises(ValueError, match="dimension"):
                f.derivative(point[:1], (1, 0))
        with pytest.raises(ValueError, match="negative"):
            f.eval_many([[0.5, 0.5]], (0, -2))
        with pytest.raises(ValueError, match="2 entries"):
            f.eval_many([[0.5, 0.5]], (1,))
        with pytest.raises(ValueError, match="dimension"):
            f.eval_many([[0.5, 0.5, 0.5]], (1, 0))
        with pytest.raises(ValueError, match="negative"):
            f.eval_lattice([[0.5], [0.5]], (-1, 0))


def test_exact_derivatives_differentiate_once_per_order(monkeypatch):
    calls = []
    differentiate = MultiPoly.differentiate

    def counted(self, k):
        calls.append(tuple(k))
        return differentiate(self, k)

    monkeypatch.setattr(MultiPoly, "differentiate", counted)
    rng = random.Random(103)
    grid = GridSpec((Axis((F(0), F(1), F(3)), 2), Axis((F(-1), F(2)), 3)))
    data = random_data(rng, grid)
    f = interpolate(data)
    for _ in range(3):
        for idx, k, t in conditions(data):
            assert f.derivative(grid.coords(idx), k) == t
    orders = {k for _, k, _ in conditions(data)}
    assert sorted(calls) == sorted(k for k in orders if any(k))
    # Binary64 queries never differentiate the expansion
    float(f.derivative((0.5, 0.25), (1, 2)))
    interpolate(float_data(data)).derivative((0.5, 0.25), (1, 1))
    assert len(calls) == len(orders) - 1


def test_point_xi_and_factored_serialization():
    rng = random.Random(73)
    grid = unit_square_nu2()
    data = random_data(rng, grid)
    f = interpolate(data)
    d = f.to_json_dict(form="factored")
    assert d["dims"] == 2 and len(d["points"]) == 4
    for rec in d["points"]:
        idx = tuple(rec["index"])
        xi = f.point_xi(idx)
        assert [F(s) for s in rec["xi"]] == list(xi)
        assert [tuple(k) for k in rec["basis"]] == \
            enumerate_box(grid.order_box(idx))
    with pytest.raises(ValueError):
        f.to_json_dict(form="horner")

    e = f.to_json_dict(form="expanded")
    assert MultiPoly.from_json_dict(e) == f.expanded()


def test_expansion_guard_and_force():
    grid = GridSpec((Axis(tuple(F(v) for v in range(6)), 3),))
    f = interpolate(HermiteData(grid, points={
        (j,): {(k,): F(0) for k in range(3)} for j in range(6)
    }))
    with pytest.raises(ValueError, match="forced"):
        f.expanded()
    assert f.expanded(force=True).is_zero()


# -- reference constructions ----------------------------------------------


def test_spitzbart_trivial_and_square():
    grid = GridSpec((Axis((F(5),), 1),))
    data = HermiteData(grid, points={(0,): {(0,): F(42)}})
    assert spitzbart_interpolate(data).expanded() == mp(1, {(0,): 42})

    rng = random.Random(79)
    data = random_data(rng, unit_square_nu2())
    assert spitzbart_interpolate(data).expanded() == \
        interpolate(data).expanded()


def test_spitzbart_random_1d():
    rng = random.Random(83)
    for _ in range(6):
        grid = random_grid(rng, max_n=1, max_conditions=12)
        data = random_data(rng, grid)
        assert spitzbart_interpolate(data).expanded() == \
            interpolate(data).expanded(force=True)


def test_vandermonde_trivial_and_past_512_conditions():
    grid = GridSpec((Axis((F(-3),), 1),))
    data = HermiteData(grid, points={(0,): {(0,): F(11)}})
    assert vandermonde_interpolate(data).expanded() == mp(1, {(0,): 11})

    # no condition cap: the 900-condition zero instance gives the zero
    # polynomial, and a nonzero instance past 512 conditions matches the
    # Lambda route
    big = GridSpec((Axis(tuple(range(10)), 3), Axis(tuple(range(10)), 3)))
    zeros = HermiteData(big, points={
        idx: {k: F(0) for k in enumerate_box(big.order_box(idx))}
        for idx in big.point_indices()
    })
    assert big.condition_count() == 900
    assert vandermonde_interpolate(zeros).expanded().is_zero()

    grid = GridSpec((Axis((F(-2), F(1, 2), F(3)), 3),
                     Axis((F(-1), F(0), F(5, 2)), 3),
                     Axis((F(-3, 2), F(1)), (4, 3))))
    assert grid.condition_count() == 567
    data = random_data(random.Random(97), grid)
    v = vandermonde_interpolate(data).expanded()
    assert not v.is_zero()
    assert v == interpolate(data).expanded(force=True)


def _dense_confluent(grid):
    """Confluent Vandermonde system assembled row by row: one row per
    condition, in slot-tensor order (per axis node-major, order-minor),
    one column per monomial x^e, in exponent-tensor order.  Entry
    d^k x^e at the node.  Also returns the slot labels (node, order)."""
    slots = [[(j, a, k) for j, (a, m) in enumerate(zip(ax.coords, ax.mult))
              for k in range(m)] for ax in grid.axes]
    exps = list(itertools.product(*[range(ax.condition_count)
                                    for ax in grid.axes]))
    rows, labels = [], []
    for cond in itertools.product(*slots):
        row = []
        for e in exps:
            v = F(1)
            for (_, a, k), ei in zip(cond, e):
                v *= 0 if ei < k else \
                    F(factorial(ei), factorial(ei - k)) * F(a) ** (ei - k)
            row.append(v)
        rows.append(row)
        labels.append((tuple(j for j, _, _ in cond),
                       tuple(k for _, _, k in cond)))
    return rows, labels, exps


def _solve_dense(A, b):
    """Exact solution of A x = b, Gauss-Jordan with row pivoting."""
    m = len(b)
    W = [list(r) + [v] for r, v in zip(A, b)]
    for c in range(m):
        p = next(r for r in range(c, m) if W[r][c] != 0)
        W[c], W[p] = W[p], W[c]
        for r in range(m):
            if r != c and W[r][c] != 0:
                f = W[r][c] / W[c][c]
                W[r] = [x - f * y for x, y in zip(W[r], W[c])]
    return [W[r][m] / W[r][r] for r in range(m)]


def test_vandermonde_is_kronecker_of_axis_factors():
    rng = random.Random(107)
    dims = set()
    for _ in range(12):
        grid = random_grid(rng, max_conditions=64)
        data = random_data(rng, grid)
        rows, labels, exps = _dense_confluent(grid)
        kron = np.ones((1, 1), dtype=object)
        for ax in grid.axes:
            kron = np.kron(kron, _confluent_factor(ax))
        assert kron.tolist() == rows
        coeffs = _solve_dense(rows, [data.value(j, k) for j, k in labels])
        want = {e: c for e, c in zip(exps, coeffs) if c != 0}
        assert vandermonde_interpolate(data).expanded().terms == want
        dims.add(grid.n)
    assert dims == {1, 2, 3}


def test_reference_routes_on_float_and_mixed_data():
    rng = random.Random(109)
    for _ in range(6):
        grid = random_grid(rng, max_conditions=64)
        # dyadic values, so Binary64 holds them exactly
        values = {idx: {k: F(rng.randint(-16, 16), 4)
                        for k in enumerate_box(grid.order_box(idx))}
                  for idx in grid.point_indices()}
        exact = HermiteData(grid, points=values)
        floats = HermiteData(grid, points={
            idx: {k: float(v) for k, v in entries.items()}
            for idx, entries in values.items()})
        # sampled data, written straight into the slot tensor
        sampled = HermiteData(grid, slots=exact.slots.astype(float))
        assert not sampled.validate()
        ref = interpolate(exact).expanded(force=True)
        # Vandermonde converts the values to Fractions: exact on all three
        for d in (exact, floats, sampled):
            assert vandermonde_interpolate(d).expanded() == ref
        # Spitzbart keeps the value type: Binary64 on both float data
        # sets, from equal condition tensors, so bit for bit equal
        a = spitzbart_interpolate(sampled).expanded()
        assert a == spitzbart_interpolate(floats).expanded()
        assert spitzbart_interpolate(exact).expanded() == ref
        keys = set(a.terms) | set(ref.terms)
        top = max([abs(c) for c in ref.terms.values()], default=1)
        assert all(abs(a.terms.get(e, 0) - ref.terms.get(e, 0)) <= 1e-9 * top
                   for e in keys)
        assert not any(is_exact(c) for c in a.terms.values())


def test_vandermonde_keeps_exact_values_on_float_coordinates():
    coords = (0.0, 0.5, 2.0)
    values = {(j,): {(k,): k + F(j + 1, 3) for k in range(2)}
              for j in range(3)}
    mixed = HermiteData(GridSpec((Axis(coords, 2),)), points=values)
    assert not mixed.is_exact()
    v = vandermonde_interpolate(mixed).expanded()
    assert v.terms[(0,)] == F(1, 3)
    # the same data on the equal exact coordinates
    twin = HermiteData(GridSpec((Axis([F(c) for c in coords], 2),)),
                       points=values)
    assert v == spitzbart_interpolate(twin).expanded()
    # Spitzbart on the mixed data is Binary64 and agrees to roundoff
    spitz = spitzbart_interpolate(mixed).expanded()
    assert all(abs(spitz.terms.get(e, 0) - c) <= 1e-12
               for e, c in v.terms.items())


def test_vandermonde_matches_division_remainder():
    from hermgrid.ideal import cascaded_divide

    g = division_poly_1d()
    grid = division_grid_1d()
    data = sample_poly_data(g, grid)
    v = vandermonde_interpolate(data).expanded()
    assert v.deg(0) == 7
    assert v == cascaded_divide(g, grid).remainder


def test_triple_construction_identity():
    rng = random.Random(89)
    for _ in range(8):
        grid = random_grid(rng, max_conditions=32)
        data = random_data(rng, grid)
        a = interpolate(data).expanded(force=True)
        b = spitzbart_interpolate(data).expanded()
        c = vandermonde_interpolate(data).expanded()
        assert a == b == c
