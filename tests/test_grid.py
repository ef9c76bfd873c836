import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from helpers import ones_data, ones_points, unit_square_nu2
from hermgrid.grid import (
    Axis,
    GridSpec,
    HermiteData,
    axis_annihilator,
    dump_hgrid,
    load_hgrid,
    nodal_basis,
)
from hermgrid.multiindex import enumerate_box, order_box


def test_axis_construction_defaults():
    ax = Axis((0, 1, 2))
    assert ax.mult == (1, 1, 1)
    ax = Axis((0, 1, 2), 3)
    assert ax.mult == (3, 3, 3)
    assert ax.condition_count == 9
    assert ax.slot_offsets() == [0, 3, 6]


def test_axis_violations():
    assert Axis((0, 1, 2), 2).violations() == []
    assert Axis((0, 0, 1)).violations("axis 1") == ["axis 1: duplicate coordinate"]
    assert Axis((0, 2, 1)).violations("a") == ["a: coordinates not increasing"]
    assert Axis((0, 1), (1, 0)).violations("a") == ["a: multiplicity below 1"]
    assert "coords/mult length mismatch" in Axis((0, 1), (1, 1, 1)).violations()[0]
    assert Axis((0, float("nan"), 1)).violations("a") == ["a: non-finite coordinate"]


def test_validate_complete_data_ok():
    data = ones_data(unit_square_nu2())
    # 2x2 grid, nu (2,2): four derivative entries per point, 4x4 slots
    assert data.slots.shape == (4, 4)
    assert data.validate() == []


def _violations(grid, pts):
    with pytest.raises(ValueError) as err:
        HermiteData(grid, points=pts)
    return str(err.value).split("; ")


def test_validate_missing_entry():
    grid = unit_square_nu2()
    pts = ones_points(grid)
    del pts[(1, 1)][(1, 1)]
    assert _violations(grid, pts) == ["point (1, 1): missing (1, 1)"]


def test_validate_extra_entry_and_absent_point():
    grid = unit_square_nu2()
    pts = ones_points(grid)
    pts[(0, 0)][(5, 0)] = F(0)
    assert "point (0, 0): extra (5, 0)" in _violations(grid, pts)

    pts = ones_points(grid)
    del pts[(0, 1)]
    assert _violations(grid, pts) == ["point (0, 1): absent"]


def test_validate_duplicate_coordinate():
    grid = GridSpec((Axis((0, 0, 1)),))
    pts = {(i,): {(0,): F(1)} for i in range(3)}
    data = HermiteData(grid, points=pts)
    assert data.validate() == ["axis 1: duplicate coordinate"]
    # multiplicities that give no slot layout are refused on conversion
    grid = GridSpec((Axis((0, 1, 2), (1, 1)),))
    assert _violations(grid, pts) == ["axis 1: coords/mult length mismatch"]


def test_validate_non_finite_values():
    grid = unit_square_nu2()
    pts = ones_points(grid)
    pts[(1, 0)][(0, 1)] = float("nan")
    pts[(0, 1)][(0, 0)] = float("-inf")
    assert sorted(HermiteData(grid, points=pts).validate()) == [
        "point (0, 1): non-finite value at (0, 0)",
        "point (1, 0): non-finite value at (0, 1)"]
    grid = GridSpec((Axis((0.0, 1.0, 2.0)),))
    sampled = HermiteData(grid, slots=np.array([1.0, np.inf, 2.0]))
    assert sampled.validate() == ["point (1,): non-finite value at (0,)"]


def test_hgrid_non_finite_values_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        d = {"dims": 1, "axes": [[0.0, 1.0]], "mult": [[1, 1]],
             "points": [{"index": [0], "t": [{"k": [0], "value": 1.0}]},
                        {"index": [1], "t": [{"k": [0], "value": bad}]}]}
        with pytest.raises(ValueError, match="non-finite"):
            HermiteData.from_json_dict(d)
        d["points"][1]["t"][0]["value"] = 2.0
        d["axes"] = [[0.0, bad]]
        with pytest.raises(ValueError, match="non-finite"):
            HermiteData.from_json_dict(d)


def test_validate_index_out_of_range():
    grid = GridSpec((Axis((0, 1)),))
    out = _violations(grid, {(0,): {(0,): F(1)}, (7,): {(0,): F(1)}})
    assert "point (7,): index out of range" in out


def test_gridspec_counts_and_hull():
    grid = GridSpec((Axis((0, 1, 2), (1, 2, 1)), Axis((0, 5), 3)))
    assert grid.n == 2
    assert grid.shape == (3, 2)
    # product of per-axis multiplicity sums
    assert grid.condition_count() == (1 + 2 + 1) * (3 + 3)
    assert grid.hull() == [(0, 2), (0, 5)]
    assert grid.contains((1, 4))
    assert not grid.contains((1, 6))
    assert grid.coords((2, 1)) == (2, 5)
    assert grid.mult((1, 0)) == (2, 3)
    with pytest.raises(ValueError):
        GridSpec(())


def test_subgrid():
    grid = GridSpec((Axis((0, 1, 2, 3), (1, 2, 3, 1)),))
    sub = grid.subgrid((1,), (2,))
    assert sub.axes[0].coords == (1, 2)
    assert sub.axes[0].mult == (2, 3)


def test_axis_is_uniform():
    assert Axis((0, 1, 2)).is_uniform()
    assert not Axis((0, 1, 3)).is_uniform()
    assert Axis((5,)).is_uniform()
    assert Axis((0.0, 0.25, 0.5, 0.75)).is_uniform()


def test_axis_annihilator_examples():
    # four double nodes at 0.7, 1.2, 1.7, 2.2
    ax = Axis((F("0.7"), F("1.2"), F("1.7"), F("2.2")), 2)
    h = axis_annihilator(ax)
    assert h.degree == 8
    assert h.coeffs[-1] == 1
    for a in ax.coords:
        assert h(a) == 0
        assert h.differentiate()(a) == 0
        assert h.differentiate(2)(a) != 0

    # (x+1)^2 x^2 (x-1)^2 = (x^3 - x)^2 = x^6 - 2x^4 + x^2
    h = axis_annihilator(Axis((-1, 0, 1), 2))
    assert h.coeffs == [F(0), F(0), F(1), F(0), F(-2), F(0), F(1)]

    h = axis_annihilator(Axis((0,), 1))
    assert h.coeffs == [F(0), F(1)]


def test_axis_annihilator_properties():
    rng = random.Random(21)
    for _ in range(20):
        npts = rng.randint(1, 4)
        coords = sorted(rng.sample([F(v, 2) for v in range(-8, 9)], npts))
        mult = tuple(rng.randint(1, 3) for _ in range(npts))
        ax = Axis(coords, mult)
        h = axis_annihilator(ax, var=0)
        assert h.degree == sum(mult)
        assert h.coeffs[-1] == 1
        for a, m in zip(coords, mult):
            for k in range(m):
                assert h.differentiate(k)(a) == 0
            assert h.differentiate(m)(a) != 0


def test_nodal_basis_examples():
    ax = Axis((0, 1), 2)
    # anchor at 0: (x-1)^2 / (0-1)^2 = x^2 - 2x + 1
    assert nodal_basis(ax, 0, one=F(1)).coeffs == [F(1), F(-2), F(1)]

    ax = Axis((0, 1), 1)
    assert nodal_basis(ax, 1, one=F(1)).coeffs == [F(0), F(1)]

    ax = Axis((7,), 3)
    assert nodal_basis(ax, 0, one=F(1)).coeffs == [F(1)]


def test_nodal_basis_vanishing_table():
    # Exponent must follow the running node's multiplicity: with
    # non-constant nu the anchor's own multiplicity would not kill all
    # prescribed orders at a higher-multiplicity neighbour.
    ax = Axis((F(-1), F(0), F(2)), (1, 3, 2))
    for j in range(ax.npoints):
        h = nodal_basis(ax, j, one=F(1))
        assert h(ax.coords[j]) == 1
        for c in range(ax.npoints):
            if c == j:
                continue
            for k in range(ax.mult[c]):
                assert h.differentiate(k)(ax.coords[c]) == 0


def test_nodal_basis_vanishing_random():
    rng = random.Random(33)
    for _ in range(15):
        npts = rng.randint(2, 4)
        coords = sorted(rng.sample([F(v, 2) for v in range(-8, 9)], npts))
        mult = tuple(rng.randint(1, 3) for _ in range(npts))
        ax = Axis(coords, mult)
        j = rng.randrange(npts)
        h = nodal_basis(ax, j, one=F(1))
        assert h(coords[j]) == 1
        assert h.degree == sum(m for i, m in enumerate(mult) if i != j)
        for c in range(npts):
            if c != j:
                for k in range(mult[c]):
                    assert h.differentiate(k)(coords[c]) == 0


def test_hermite_data_layouts():
    grid = unit_square_nu2()
    with pytest.raises(ValueError):
        HermiteData(grid)
    with pytest.raises(ValueError):
        HermiteData(grid, points=ones_points(grid), slots=np.ones((4, 4)))
    with pytest.raises(ValueError, match="shape"):
        HermiteData(grid, slots=np.ones((2, 2)))

    data = ones_data(grid)
    assert data.slots.dtype == object
    assert data.value((0, 1), (1, 0)) == 1
    assert data.is_exact()
    with pytest.raises(KeyError):
        data.value((0, 1), (2, 0))

    pts = ones_points(grid)
    pts[(0, 0)][(0, 0)] = 0.5
    data = HermiteData(grid, points=pts)
    assert data.slots.dtype == float
    assert not data.is_exact()
    # exact values on float coordinates are stored exactly
    fgrid = GridSpec([Axis((0.0, 1.0), 2)] * 2)
    data = HermiteData(fgrid, points=ones_points(fgrid))
    assert data.slots.dtype == object and not data.is_exact()


def test_slot_tensor_layout():
    grid = GridSpec((Axis((0, 1, 2), (1, 2, 1)), Axis((0, 1), 2)))
    slots = np.arange(16.0).reshape(4, 4)
    data = HermiteData(grid, slots=slots)
    assert data.value((1, 0), (1, 1)) == slots[2, 1]
    assert data.validate() == []
    assert not data.is_exact()
    with pytest.raises(ValueError, match="read-only"):
        data.slots[0, 0] = 1.0
    # per-order view: order (1, k2) only on the middle node of axis 1
    view = data.tensors
    assert set(view) == set(enumerate_box(order_box((1, 1))))
    assert view[(0, 1)].tolist() == [[1.0, 3.0], [5.0, 7.0], [13.0, 15.0]]
    assert view[(1, 0)].tolist() == [[8.0, 10.0]]
    with pytest.raises(ValueError, match="read-only"):
        view[(0, 0)][0, 0] = 1.0


def test_sub_data_is_a_view_of_the_window():
    grid = GridSpec((Axis((0, 1, 2), 2), Axis((0, 1), 1)))
    rng = random.Random(5)
    slots = np.array([[rng.random() for _ in range(2)] for _ in range(6)])
    data = HermiteData(grid, slots=slots)
    sub = data.sub_data((1, 0), (2, 2))
    assert sub.grid.axes[0].coords == (1, 2)
    assert np.shares_memory(sub.slots, data.slots)
    for idx in sub.grid.point_indices():
        src = (idx[0] + 1, idx[1])
        for k in enumerate_box(sub.grid.order_box(idx)):
            assert sub.value(idx, k) == data.value(src, k)


def test_hgrid_json_round_trip(tmp_path):
    grid = GridSpec((Axis((F(0), F(1, 2), F(1)), (1, 2, 1)), Axis((F(0), F(1)), 2)))
    rng = random.Random(11)
    pts = {
        idx: {k: F(rng.randint(-9, 9), rng.randint(1, 5))
              for k in enumerate_box(grid.order_box(idx))}
        for idx in grid.point_indices()
    }
    data = HermiteData(grid, points=pts)
    assert data.validate() == []

    d = data.to_json_dict()
    assert d["dims"] == 2
    assert d["mult"] == [[1, 2, 1], [2, 2]]
    # exact values serialize as p/q strings
    assert isinstance(d["axes"][0][1], str) and "/" in d["axes"][0][1]

    back = HermiteData.from_json_dict(json.loads(json.dumps(d)))
    assert back.grid.axes[0].coords == grid.axes[0].coords
    assert back.grid.axes[1].mult == grid.axes[1].mult
    assert back.is_exact()
    assert all(back.value(idx, k) == v and data.value(idx, k) == v
               for idx, entries in pts.items() for k, v in entries.items())

    path = tmp_path / "g.hgrid"
    dump_hgrid(data, path)
    assert np.array_equal(load_hgrid(path).slots, back.slots)


def test_hgrid_points_in_any_order():
    data = ones_data(unit_square_nu2())
    d = data.to_json_dict()
    d["points"].reverse()
    back = HermiteData.from_json_dict(d)
    assert back.validate() == []
    assert np.array_equal(back.slots, data.slots)


def test_hgrid_duplicate_point_rejected():
    data = ones_data(unit_square_nu2())
    d = data.to_json_dict()
    d["points"].append(d["points"][0])
    with pytest.raises(ValueError, match="more than once"):
        HermiteData.from_json_dict(d)


def test_hgrid_dims_must_match_the_axes():
    d = ones_data(unit_square_nu2()).to_json_dict()
    d["dims"] = 5
    with pytest.raises(ValueError, match="dims 5 but 2 axes"):
        HermiteData.from_json_dict(d)


def test_hgrid_axes_and_mult_lists_must_match():
    d = ones_data(unit_square_nu2()).to_json_dict()
    d["mult"] = d["mult"][:1]
    with pytest.raises(ValueError, match="2 coordinate lists but 1 multiplicity"):
        HermiteData.from_json_dict(d)


def test_hgrid_binary64_values():
    d = {
        "dims": 1,
        "axes": [[0.0, 1.5]],
        "mult": [[1, 1]],
        "points": [
            {"index": [0], "t": [{"k": [0], "value": 2.25}]},
            {"index": [1], "t": [{"k": [0], "value": -1.0}]},
        ],
    }
    back = HermiteData.from_json_dict(d)
    assert back.validate() == []
    assert back.value((1,), (0,)) == -1.0
    assert not back.is_exact()
