import itertools
import logging
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hermgrid.grid import Axis, GridSpec, HermiteData
from hermgrid.harness import (
    BUILTINS,
    OBLIQUE_PLANE,
    PlaneSpec,
    TestFunction as ExprFunction,  # renamed so pytest does not collect it
    builtin_function,
    builtin_grid,
    builtin_lattice,
    derive_data,
    finite_difference,
    lattice,
    multilinear_baseline,
    plane_grid,
    rmse,
    sample_plane,
    stepped_axis,
)
from hermgrid.multiindex import enumerate_box
from hermgrid.spline import SplineInterpolant


def test_exp2d_sampled_jet_values():
    grid = builtin_grid("exp2d", 2)
    data = derive_data(builtin_function("exp2d"), grid)
    values = sorted(
        float(data.value(idx, k))
        for idx in grid.point_indices()
        for k in enumerate_box(grid.order_box(idx))
    )
    assert len(values) == 16
    expect = sorted([1.0] * 4 + [math.e] * 8 + [math.e ** 2] * 4)
    assert np.allclose(values, expect, rtol=1e-12)


def test_constant_function_derivatives():
    grid = builtin_grid("exp2d", 2)
    data = derive_data("3.5", grid)
    for idx in grid.point_indices():
        assert data.value(idx, (0, 0)) == 3.5
        for k in ((1, 0), (0, 1), (1, 1)):
            assert data.value(idx, k) == 0.0


def test_sinmix3d_hand_derivative_at_origin():
    f = builtin_function("sinmix3d")
    # d/dx1 = sin(x2) + x2 cos(x1)/10 - sin(x2 x3/4); at 0 the middle
    # term carries x2 = 0, so the only survivor is... nothing: 0 + 0 - 0
    # -- wait, the printed cross-check: 1 comes from d/dx1 of x1*sin(x2)
    # evaluated with sin replaced at... compute both ways instead
    got = f.derivative([(0.0, 0.0, 0.0)], (1, 0, 0))[0]
    assert got == pytest.approx(
        finite_difference(f, [(0.0, 0.0, 0.0)], (1, 0, 0))[0], abs=1e-7)
    # a point where the hand formula is nondegenerate
    x = (0.0, math.pi / 2, 1.0)
    want = math.sin(x[1]) + x[1] * math.cos(x[0]) / 10 \
        - math.sin(x[1] * x[2] / 4)
    assert f.derivative([x], (1, 0, 0))[0] == pytest.approx(want, rel=1e-12)


def test_jets_match_finite_differences_on_builtins():
    rng = random.Random(301)
    for name, setup in BUILTINS.items():
        f = builtin_function(name)
        hull = setup.axes
        pts = np.array([
            [rng.uniform(lo + 0.2, hi - 0.2) for lo, hi in hull]
            for _ in range(100)
        ])
        # central differences at step 1e-4 resolve totals up to 2;
        # higher orders drown in roundoff over h^sum(k)
        orders = set()
        while len(orders) < 4:
            k = tuple(rng.randint(0, 2) for _ in range(setup.n))
            if 1 <= sum(k) <= 2:
                orders.add(k)
        for k in orders:
            exact = f.derivative(pts, k)
            approx = finite_difference(f, pts, k)
            rel = np.abs(exact - approx) / np.maximum(1.0, np.abs(exact))
            assert rel.max() < 1e-5, (name, k, rel.max())


def test_rmse_properties():
    rng = random.Random(307)
    a = np.array([rng.uniform(-5, 5) for _ in range(64)])
    d = np.array([rng.uniform(-1, 1) for _ in range(64)])
    assert rmse(a, a) == 0.0
    perm = rng.sample(range(64), 64)
    assert rmse(a, a + d) == pytest.approx(rmse(a[perm], (a + d)[perm]),
                                           rel=1e-13)
    assert rmse(a, a + 3 * d) == pytest.approx(3 * rmse(a, a + d), rel=1e-13)
    with pytest.raises(ValueError, match="length mismatch"):
        rmse(a, a[:5])


def test_multilinear_baseline_basics():
    grid = GridSpec((Axis((0, 1), 1), Axis((0, 1), 1)))
    flat = HermiteData(grid, points={
        idx: {(0, 0): 7.0} for idx in grid.point_indices()
    })
    pts = [(0.3, 0.9), (0.5, 0.5), (1.0, 0.0)]
    assert np.allclose(multilinear_baseline(flat, pts), 7.0)

    c = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): -3.0, (1, 1): 4.0}
    data = HermiteData(grid, points={
        idx: {(0, 0): v} for idx, v in c.items()
    })
    assert multilinear_baseline(data, [(1.0, 0.0)])[0] == c[(1, 0)]
    assert multilinear_baseline(data, [(0.5, 0.5)])[0] == \
        pytest.approx(sum(c.values()) / 4)

    nu2 = HermiteData(GridSpec((Axis((0, 1), 2),)), points={
        (0,): {(0,): 1.0, (1,): 0.0}, (1,): {(0,): 1.0, (1,): 0.0},
    })
    with pytest.raises(ValueError, match="multiplicity 1"):
        multilinear_baseline(nu2, [(0.5,)])


def test_multilinear_baseline_equals_window2_spline():
    rng = random.Random(311)
    grid = GridSpec((
        Axis(tuple(range(4)), 1),
        Axis(tuple(range(5)), 1),
        Axis(tuple(range(3)), 1),
    ))
    data = HermiteData(grid, points={
        idx: {(0, 0, 0): rng.uniform(-5, 5)} for idx in grid.point_indices()
    })
    s = SplineInterpolant(data, 2)
    pts = np.array([
        [rng.uniform(0, 3), rng.uniform(0, 4), rng.uniform(0, 2)]
        for _ in range(1000)
    ])
    diff = np.abs(s.eval_many(pts) - multilinear_baseline(data, pts))
    assert diff.max() < 1e-12


def test_testfunction_syntax_guard():
    for bad in (
        "__import__('os').system('true')",
        "x2",                       # unknown name when n = 1
        "exp(x1, x1)",
        "x1 % 2",
        "lambda: 1",
        "'abc'",
        "[1, 2][0]",
    ):
        with pytest.raises((ValueError, SyntaxError)):
            ExprFunction(bad, 1)

    f = ExprFunction("x1 ^ 3 + cos(x1)", 1)
    assert f(2.0) == pytest.approx(8.0 + math.cos(2.0))
    with pytest.raises(ValueError, match="expected 1 arguments"):
        f(1.0, 2.0)


def test_testfunction_hand_derivatives():
    f = ExprFunction("x1 * x2^2", 2)
    # d/dx1 d2/dx2^2 (x1 x2^2) = 2 everywhere
    assert f.derivative([(3.0, -2.0)], (1, 2))[0] == pytest.approx(2.0)
    g = ExprFunction("exp(x1 + x2)", 2)
    v = g.derivative([(0.25, 0.5)], (1, 1))[0]
    assert v == pytest.approx(math.exp(0.75), rel=1e-12)


def test_plane_spec_validation():
    with pytest.raises(ValueError, match="unit vector"):
        PlaneSpec((0, 0, 0), (1.0, 0.0, 1.0), ((0, 1), (0, 1)), 0.5)
    with pytest.raises(ValueError, match="graph"):
        PlaneSpec((0, 0, 0), (1.0, 0.0, 0.0), ((0, 1), (0, 1)), 0.5)


def test_sample_plane_oblique():
    pts, excluded = sample_plane(OBLIQUE_PLANE)
    assert excluded == 0
    assert len(pts) == 35 * 35
    assert np.abs(pts[:, 0] + pts[:, 2] - 21.0).max() < 1e-9
    assert pts[:, 1].min() == 1.0 and pts[:, 1].max() == 18.0


def test_sample_plane_horizontal_slice():
    p = PlaneSpec((0.0, 0.0, 2.0), (0.0, 0.0, 1.0), ((0, 1), (0, 1)), 0.5)
    pts, excluded = sample_plane(p)
    assert excluded == 0
    assert len(pts) == 9
    assert np.all(pts[:, 2] == 2.0)


def test_sample_plane_hull_exclusion(caplog):
    hull = [(0, 19), (0, 19), (0, 19)]
    with caplog.at_level(logging.WARNING, logger="hermgrid.harness"):
        pts, excluded = sample_plane(OBLIQUE_PLANE, hull=hull)
    # x3 = 21 - x1 > 19 for x1 in {1, 1.5}: two lattice columns go
    assert excluded == 2 * 35
    assert len(pts) == 35 * 35 - 70
    assert any("excluded 70 plane points" in r.message for r in caplog.records)


def test_lattice_counts():
    assert len(lattice(0, 1, 0.1)) == 11
    assert len(lattice(0, 5, 0.1)) == 51
    assert len(lattice(-7, 7, 0.25)) == 57
    l = lattice(0, 1, 0.1)
    assert l[0] == 0.0 and l[-1] == pytest.approx(1.0)


def test_stepped_axis_and_plane_grid():
    ax = stepped_axis(0, 20, 0.75, 1)
    assert ax.npoints == 28
    assert ax.coords[-1] == pytest.approx(20.25)
    assert ax.mult == (1,) * 28

    ax = stepped_axis(0, 20, 1, 2)
    assert ax.npoints == 21
    assert ax.coords[-1] == 20.0

    g = plane_grid(0.5, 3)
    assert g.n == 3
    assert all(ax.npoints == 41 for ax in g.axes)
    assert all(set(ax.mult) == {3} for ax in g.axes)


def test_builtin_setups():
    g = builtin_grid("gauss3d", (1, 2, 3))
    assert g.shape == (4, 5, 3)
    assert set(g.axes[0].mult) == {1}
    assert set(g.axes[1].mult) == {2}
    assert set(g.axes[2].mult) == {3}
    lat = builtin_lattice("exp2d")
    assert [len(v) for v in lat] == [11, 11]
    lat = builtin_lattice("gauss3d")
    assert [len(v) for v in lat] == [13, 17, 9]


def test_derive_data_matches_pointwise_jets():
    f = ExprFunction("exp(x1)*sin(x2) + x1*x2", 2)
    grid = GridSpec((Axis((0, 1, 2), 2), Axis((0, 1), 3)))
    data = derive_data(f, grid)
    assert data.validate() == []
    for idx in grid.point_indices():
        x = tuple(float(c) for c in grid.coords(idx))
        for k in enumerate_box(grid.order_box(idx)):
            want = f.derivative([x], k)[0]
            assert data.value(idx, k) == pytest.approx(want, rel=1e-12,
                                                       abs=1e-12)


def test_benchmark_reads_of_the_data_layout():
    # the benchmark checks sampled data through the per-order view
    # `data.tensors` and writes its HGRID files from `points=` data; pin
    # both, so a layout change fails here and not only in a benchmark run
    f = builtin_function("sinmix3d")
    grid = builtin_grid("sinmix3d", 2)
    tensors = derive_data(f, grid).tensors
    mesh = np.meshgrid(*[[float(c) for c in ax.coords] for ax in grid.axes],
                       indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    assert set(tensors) == set(itertools.product(range(2), repeat=3))
    for k, got in tensors.items():
        assert got.shape == grid.shape
        want = f.derivative(pts, k).reshape(grid.shape)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), k

    rng = random.Random(17)
    for conv in (float, Fraction):
        gs = GridSpec([Axis([conv(c) for c in (0, 1, 3)], (1, 2, 1)),
                       Axis([conv(c) for c in (-1, 2)], 2)])
        points = {idx: {k: conv(Fraction(rng.randint(-50, 50), 7))
                        for k in enumerate_box(gs.order_box(idx))}
                  for idx in gs.point_indices()}
        data = HermiteData(gs, points=points)
        assert data.is_exact() == (conv is Fraction)
        for idx, entries in points.items():
            for k, v in entries.items():
                assert data.value(idx, k) == v
