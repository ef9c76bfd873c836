import random
from fractions import Fraction as F

import numpy as np
import pytest

from helpers import (
    binary64_case,
    digest,
    float_data,
    random_data,
    random_grid,
    seven_node_data,
)
from hermgrid.grid import Axis, GridSpec, HermiteData
from hermgrid.harness import multilinear_baseline
from hermgrid.multiindex import enumerate_box
from hermgrid.spline import (
    SplineInterpolant,
    abutting_windows,
    axis_seams,
    continuity_report,
    eval_spline,
    window_start,
    window_starts,
)


UNIT7 = Axis(tuple(range(7)), 1)


def test_window_start_uniform_examples():
    # even window: containing cell plus one node each side
    assert window_start(UNIT7, 4, 2.3) == 1
    # odd window: centered on the rounded node
    assert window_start(UNIT7, 3, 2.3) == 1
    # raw range {-1..2} shifts in to {0..3}
    assert window_start(UNIT7, 4, 0.2) == 0
    # half-integer with odd window rounds away from zero
    assert window_start(UNIT7, 3, 2.5) == 2
    assert window_start(UNIT7, 3, F(5, 2)) == 2
    # outside the hull: edge window
    assert window_start(UNIT7, 4, -3.0) == 0
    assert window_start(UNIT7, 4, 9.5) == 3
    with pytest.raises(ValueError, match="exceeds axis size"):
        window_start(UNIT7, 8, 1.0)


def test_window_start_general_grid():
    ax = Axis((0, 2, 4, 7))
    # containing cell first
    assert window_start(ax, 2, 3.0) == 1
    # third node: 0 at distance 3 beats 7 at distance 4
    assert window_start(ax, 3, 3.0) == 0
    ax = Axis((0, 2, 4, 5))
    # here 5 at distance 2 beats 0 at distance 3
    assert window_start(ax, 3, 3.0) == 1
    # exact distance tie prefers the lower node
    ax = Axis((1, 2, 4, 5))
    assert window_start(ax, 3, 3.0) == 0


def test_window_start_breaks_exact_ties_exactly():
    # distances 1/5 and 1/5 tie exactly; in float 2/5 - 1/5 > 3/5 - 2/5
    ax = Axis((0, F(1, 10), F(1, 5), F(3, 5), F(28, 5)))
    assert window_start(ax, 1, F(2, 5)) == 2
    assert window_start(ax, 1, 0.4) == 3


def _starts_agree(ax, w, xs):
    want = [window_start(ax, w, float(x)) for x in xs]
    return np.array_equal(window_starts(ax, w, xs), want)


def test_window_starts_match_window_start_uniform():
    rng = random.Random(11)
    axes = [UNIT7, Axis(tuple(-3 + 0.5 * k for k in range(9))),
            Axis(tuple(F(k, 3) for k in range(-4, 6)), 2)]
    for ax in axes:
        a0, h = float(ax.coords[0]), float(ax.coords[1] - ax.coords[0])
        n = ax.npoints
        # nodes, half-integer grid positions, far outside, random
        xs = [a0 + h * k / 2 for k in range(-2 * n, 4 * n)]
        xs += [a0 - 100 * h, a0 + 100 * n * h, -0.0]
        xs += [rng.uniform(a0 - 2 * h, a0 + (n + 1) * h) for _ in range(200)]
        for w in range(1, n + 1):
            assert _starts_agree(ax, w, xs), (ax, w)


def test_window_starts_match_window_start_general():
    rng = random.Random(13)
    axes = [Axis((0.0, 0.1, 0.2, 0.6, 5.6)), Axis((0, 2, 4, 7)),
            Axis((1, 2, 4, 5))]
    for _ in range(6):
        axes.append(Axis(tuple(sorted(rng.uniform(-5, 5)
                                      for _ in range(rng.randint(2, 9))))))
    for ax in axes:
        c = [float(v) for v in ax.coords]
        # every midpoint is a float distance tie for some window
        xs = c + [(a + b) / 2 for a in c for b in c if a < b]
        xs += [c[0] - 7.0, c[-1] + 7.0]
        xs += [rng.uniform(c[0] - 1, c[-1] + 1) for _ in range(200)]
        for w in range(1, ax.npoints + 1):
            assert _starts_agree(ax, w, xs), (ax, w)


def test_window_starts_reject_non_finite():
    with pytest.raises(ValueError, match="exceeds axis size"):
        window_starts(UNIT7, 8, [1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            window_starts(UNIT7, 3, [1.0, bad])
    s = SplineInterpolant(seven_node_data(2), 4)
    with pytest.raises(ValueError, match="finite"):
        s.eval_many([[np.nan]])


def test_axis_seams():
    assert axis_seams(UNIT7, 4) == [2, 3, 4]
    assert axis_seams(UNIT7, 3) == [F(3, 2), F(5, 2), F(7, 2), F(9, 2)]
    assert axis_seams(UNIT7, 7) == []
    ax = Axis((0.0, 1.0, 3.0))
    assert axis_seams(ax, 2) == [1.5]


def test_spline_window_validation():
    data = seven_node_data(2)
    with pytest.raises(ValueError, match="one window size per axis"):
        SplineInterpolant(data, (4, 4))
    with pytest.raises(ValueError, match="invalid for axis"):
        SplineInterpolant(data, 0)
    with pytest.raises(ValueError, match="invalid for axis"):
        SplineInterpolant(data, 9)


def test_eval_at_support_points():
    data = seven_node_data(2)
    s = SplineInterpolant(data, 4)
    for a in range(7):
        x = (F(a),)
        assert s(x) == data.value((a,), (0,))
        assert s.derivative(x, (1,)) == data.value((a,), (1,))


def test_interior_support_point_agrees_across_patches():
    data = seven_node_data(2)
    s = SplineInterpolant(data, 4)
    below, above = abutting_windows(s, 0, 3)
    assert (below, above) == (1, 2)
    x = (F(3),)
    want = data.value((3,), (0,))
    assert s.local((below,))(x) == want
    assert s.local((above,))(x) == want


def test_abutting_windows_errors():
    s = SplineInterpolant(seven_node_data(2), 4)
    for node in (0, 6):
        with pytest.raises(ValueError, match="not shared by two patches"):
            abutting_windows(s, 0, node)
    # window covering the whole axis never switches
    whole = SplineInterpolant(seven_node_data(2), 7)
    with pytest.raises(ValueError, match="not shared by two patches"):
        abutting_windows(whole, 0, 3)
    # nodes too close to the edge for the selection to switch
    for node in (1, 5):
        with pytest.raises(ValueError, match="not shared by two patches"):
            abutting_windows(s, 0, node)


def test_seven_node_continuity_multiplicity_1():
    # value continuity at the seams, first derivative breaks hard; the
    # second-order gap vanishes at the seam node itself (the mismatch
    # polynomial has a root there), the third does not
    s = SplineInterpolant(seven_node_data(1), 4)
    expect = {2: F(80), 3: F(920), 4: F(6800)}
    expect3 = {2: F(480), 3: F(5520), 4: F(40800)}
    for node, want in expect.items():
        gaps = continuity_report(s, 0, node, probes=1, max_order=3)
        assert gaps[0] == 0
        assert gaps[1] == want and gaps[1] > 1e-3
        assert gaps[2] == 0
        assert gaps[3] == expect3[node]


def test_seven_node_continuity_multiplicity_2():
    # the shared conditions force C^1; this particular data set (sampled
    # from one degree-8 polynomial) happens to be C^2 as well, with the
    # first genuine break at order 3
    s = SplineInterpolant(seven_node_data(2), 4)
    for node in (2, 3, 4):
        gaps = continuity_report(s, 0, node, probes=1, max_order=3)
        assert gaps[:3] == [0, 0, 0]
        assert gaps[3] == F(48)


def test_seven_node_continuity_multiplicity_3():
    # 12 conditions per window swallow the degree-8 source exactly, so
    # every patch is the same polynomial
    s = SplineInterpolant(seven_node_data(3), 4)
    for node in (2, 3, 4):
        gaps = continuity_report(s, 0, node, probes=1, max_order=3)
        assert gaps == [0, 0, 0, 0]


def test_generic_multiplicity_2_is_not_c2():
    # the fixture's C^2 is an accident of its data; generic data breaks
    # at order 2
    rng = random.Random(101)
    grid = GridSpec((Axis(tuple(range(7)), 2),))
    data = random_data(rng, grid)
    s = SplineInterpolant(data, 4)
    second = [
        continuity_report(s, 0, node, probes=1, max_order=2)[2]
        for node in (2, 3, 4)
    ]
    assert all(g == 0 for g in
               (continuity_report(s, 0, node, probes=1, max_order=1)[1]
                for node in (2, 3, 4)))
    assert any(g != 0 for g in second)


def test_hyperplane_agreement_exact_2d():
    rng = random.Random(103)
    for _ in range(4):
        ax0 = Axis(tuple(sorted(rng.sample(range(-6, 7), 4))),
                   tuple(rng.randint(1, 2) for _ in range(4)))
        ax1 = Axis(tuple(sorted(rng.sample(range(-6, 7), 3))),
                   tuple(rng.randint(1, 2) for _ in range(3)))
        grid = GridSpec((Axis(tuple(F(c) for c in ax0.coords), ax0.mult),
                         Axis(tuple(F(c) for c in ax1.coords), ax1.mult)))
        data = random_data(rng, grid)
        s = SplineInterpolant(data, (2, 2))
        for node in (1, 2):
            probes = [
                (grid.axes[0].coords[node], F(rng.randint(-40, 40), 7))
                for _ in range(5)
            ]
            # cross-derivative orders up to the node multiplicity agree
            # exactly as well, not just the values
            gaps = continuity_report(
                s, 0, node, points=probes,
                max_order=grid.axes[0].mult[node] - 1)
            assert all(g == 0 for g in gaps)


def test_hyperplane_agreement_float_3d():
    rng = random.Random(107)

    def spaced_axis():
        c = [rng.uniform(-1, 0)]
        for _ in range(3):
            c.append(c[-1] + rng.uniform(0.5, 1.5))
        return Axis(tuple(c), 2)

    axes = [spaced_axis() for _ in range(3)]
    grid = GridSpec(axes)
    data = HermiteData(grid, points={
        idx: {k: rng.uniform(-1, 1)
              for k in enumerate_box(grid.order_box(idx))}
        for idx in grid.point_indices()
    })
    s = SplineInterpolant(data, (2, 2, 2))
    for ax_i in range(3):
        for node in (1, 2):
            gaps = continuity_report(s, ax_i, node, probes=6, seed=5)
            assert max(float(g) for g in gaps) < 1e-10


def test_multilinear_window2_matches_baseline():
    rng = random.Random(109)
    grid = GridSpec((Axis(tuple(range(5)), 1), Axis(tuple(range(4)), 1)))
    data = HermiteData(grid, points={
        idx: {(0, 0): rng.uniform(-5, 5)} for idx in grid.point_indices()
    })
    s = SplineInterpolant(data, 2)
    pts = [(rng.uniform(0, 4), rng.uniform(0, 3)) for _ in range(200)]
    mine = s.eval_many(pts)
    base = multilinear_baseline(data, pts)
    assert np.max(np.abs(mine - base)) < 1e-12


def test_eval_many_matches_scalar_and_is_deterministic():
    data = seven_node_data(2)
    pts = np.linspace(0.0, 6.0, 40)[:, None]
    a = eval_spline(data, 4, pts)
    s = SplineInterpolant(data, 4)
    b = s.eval_many(pts)
    c = np.array([s((float(x),)) for x in pts[:, 0]])
    assert np.array_equal(a, b)
    assert np.max(np.abs(b - c)) < 1e-9
    # cache warm vs cold never changes values
    assert np.array_equal(s.eval_many(pts), b)
    # the batch covers 4 windows, each agreeing with its local build
    corners = [s.select_window((x,)) for x in pts[:, 0]]
    assert len(set(corners)) == 4
    for corner in set(corners):
        rows = [r for r, c in enumerate(corners) if c == corner]
        local = s.local(corner).eval_many(pts[rows])
        assert np.max(np.abs(b[rows] - local)) <= 1e-12 * np.max(np.abs(local))


def _mixed_grid(rng, exact=False):
    """Non-uniform 3-D grid, multiplicities 1 to 3, random data."""
    axes = []
    for _ in range(3):
        n = rng.randint(4, 7)
        coords = sorted(rng.sample(range(-20, 21), n))
        coords = [F(c, 4) if exact else c / 4 + rng.uniform(-0.1, 0.1)
                  for c in coords]
        axes.append(Axis(tuple(coords), tuple(rng.randint(1, 3)
                                              for _ in range(n))))
    grid = GridSpec(axes)
    if exact:
        return random_data(rng, grid)
    return HermiteData(grid, points={
        idx: {k: rng.uniform(-1, 1) for k in enumerate_box(grid.order_box(idx))}
        for idx in grid.point_indices()})


def test_eval_many_matches_local_builds_mixed_multiplicity():
    rng = random.Random(17)
    for trial in range(6):
        data = _mixed_grid(rng, exact=trial == 0)
        window = tuple(rng.randint(2, min(4, ax.npoints))
                       for ax in data.grid.axes)
        s = SplineInterpolant(data, window)
        hull = [(float(lo), float(hi)) for lo, hi in data.grid.hull()]
        # slightly outside the hull as well: edge windows extrapolate
        pts = np.array([[rng.uniform(lo - 0.3, hi + 0.3) for lo, hi in hull]
                        for _ in range(300)])
        got = s.eval_many(pts)
        assert not s._cache  # the batch builds no local interpolant
        want = np.array([s.local(s.select_window(tuple(x))).eval_many(x)[0]
                         for x in pts])
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-12, (trial, err)


def test_eval_many_chunking_and_batch_shapes(monkeypatch):
    import hermgrid.spline as spline_mod

    rng = random.Random(23)
    data = _mixed_grid(rng)
    s = SplineInterpolant(data, (3, 2, 3))
    hull = [(float(lo), float(hi)) for lo, hi in data.grid.hull()]
    pts = np.array([[rng.uniform(lo, hi) for lo, hi in hull]
                    for _ in range(50)])
    whole = s.eval_many(pts)
    # a budget of one window block: one query per chunk
    monkeypatch.setattr(spline_mod, "_GATHER_BYTES", 1)
    assert np.array_equal(s.eval_many(pts), whole)
    assert s.eval_many(np.empty((0, 3))).shape == (0,)
    with pytest.raises(ValueError, match="dimension"):
        s.eval_many(pts[:, :2])


def test_eval_many_reads_only_the_window():
    # windows of 2 or 3 slots share one padded batch; a NaN outside a
    # query's window must not reach it through a padded slot
    grid = GridSpec((Axis(tuple(range(6)), (1, 1, 1, 1, 1, 2)),))
    points = {(a,): {(0,): float(a * a)} for a in range(6)}
    points[(5,)][(1,)] = 10.0
    points[(2,)][(0,)] = float("nan")
    s = SplineInterpolant(HermiteData(grid, points=points), 2)
    got = s.eval_many([[0.25], [4.5], [2.25]])
    assert got[0] == 0.25 and np.isfinite(got[1]) and np.isnan(got[2])


def test_eval_many_is_exact_at_nodes():
    rng = random.Random(19)
    for trial in range(3):
        data = _mixed_grid(rng, exact=trial == 0)
        grid = data.grid
        s = SplineInterpolant(data, tuple(min(3, ax.npoints)
                                          for ax in grid.axes))
        idxs = list(grid.point_indices())
        pts = np.array([[float(c) for c in grid.coords(idx)] for idx in idxs])
        want = [float(data.value(idx, (0, 0, 0))) for idx in idxs]
        assert np.array_equal(s.eval_many(pts), want)


def test_outside_hull_uses_edge_window():
    data = seven_node_data(2)
    s = SplineInterpolant(data, 4)
    # the query is clamped to the first window's polynomial
    edge = s.local((0,))
    assert s((F(-3, 2),)) == edge((F(-3, 2),))
    assert abs(s((-1.5,)) - float(edge((F(-3, 2),)))) < 1e-9 * abs(s((-1.5,)))
    assert s((F(8),)) == s.local((3,))((F(8),))


def test_derivative_batches_match_exact_local_derivatives():
    # Binary64 batches of derivative orders against the exact derivative
    # of each query's window, on random 1-3 D grids with mixed
    # multiplicities.  Points p/7 tie between windows only at integers,
    # which are exact floats, so float and exact selection agree
    rng = random.Random(107)
    for _ in range(12):
        grid = random_grid(rng, max_pts=4, max_conditions=300)
        data = random_data(rng, grid)
        window = tuple(rng.randint(1, ax.npoints) for ax in grid.axes)
        exact = SplineInterpolant(data, window)
        s = SplineInterpolant(float_data(data), window)
        pts = [tuple(F(rng.randint(-40, 40), 7) for _ in range(grid.n))
               for _ in range(25)]
        fpts = np.array(pts, dtype=float)
        for _ in range(4):
            k = tuple(rng.randint(0, 3) for _ in range(grid.n))
            want = np.array([float(exact.derivative(x, k)) for x in pts])
            got = s.eval_many(fpts, k)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (window, k)
            assert not s._cache  # no local interpolant was built
        scalar = [s.derivative(tuple(x), k) for x in fpts]
        assert np.max(np.abs(scalar - want)) <= 1e-12 * scale


# sha256 prefixes of spline value batches as computed before derivative
# orders joined eval_many, on `binary64_case(seed)` with windows of at
# most 2 nodes
SPLINE_DIGESTS = [
    (0, "3c895a7fa180291e"),
    (5, "89810a1853e7d87a"),
    (24, "0c580960d58404d0"),
    (33, "09665a8403a2364a"),
    (38, "77bbf6542c988902"),
]


def test_value_batches_are_bit_identical():
    for seed, want in SPLINE_DIGESTS:
        data, pts, _ = binary64_case(seed)
        s = SplineInterpolant(data, tuple(min(2, ax.npoints)
                                          for ax in data.grid.axes))
        got = s.eval_many(pts)
        assert digest(got) == want, seed
        assert np.array_equal(s.eval_many(pts, (0,) * data.grid.n), got)


def test_derivative_batches_reject_bad_orders():
    s = SplineInterpolant(seven_node_data(2), 3)
    with pytest.raises(ValueError, match="negative"):
        s.eval_many([[1.5]], (-1,))
    with pytest.raises(ValueError, match="1 entries"):
        s.eval_many([[1.5]], (1, 0))
    with pytest.raises(ValueError, match="negative"):
        s.derivative((1.5,), (-1,))


def test_routes_and_splines_share_the_stored_tensor(monkeypatch):
    from hermgrid import interpolant

    rng = random.Random(113)
    grid = GridSpec([Axis((0, 1, 2, 4), 2), Axis((-1, 0, 3), (1, 2, 1))])
    data = float_data(random_data(rng, grid))
    T = data.slots
    before = T.copy()
    assert interpolant.condition_tensor(data) is interpolant.condition_tensor(data)
    seen = []
    real = interpolant.condition_tensor

    def spy(d):
        seen.append(real(d))
        return seen[-1]

    monkeypatch.setattr(interpolant, "condition_tensor", spy)
    interpolant.interpolate(data)
    interpolant.spitzbart_interpolate(data)
    interpolant.vandermonde_interpolate(data)
    pts = np.array([[rng.uniform(0, 4), rng.uniform(-1, 3)] for _ in range(20)])
    for s in (SplineInterpolant(data, 2), SplineInterpolant(data, (3, 2))):
        s.eval_many(pts)
        s.eval_many(pts, (1, 0))
        assert not any(isinstance(v, np.ndarray) for v in vars(s).values())
    assert len(seen) == 6 and all(t is T for t in seen)
    with pytest.raises(ValueError, match="read-only"):
        T[0, 0] = 1.0
    assert np.array_equal(T, before)
