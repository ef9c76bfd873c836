"""End-to-end command line checks, driven in process through main().

Exit codes under test: 0 ok, 2 input error, 3 domain error, 4 numeric
validation failure.
"""

import json
import math
from fractions import Fraction as F

import numpy as np

from helpers import (
    Q1_PRINTED_3D,
    Q2_PRINTED_3D,
    Q3_PRINTED_3D,
    R3_CONSISTENT,
    SEVEN_NODE_VALUES,
    bilinear_poly,
    conditions,
    division_grid_3d,
    division_poly_3d,
    ones_data,
    sample_poly_data,
    seven_node_data,
    unit_square_nu2,
)
from hermgrid.cli import main
from hermgrid.grid import Axis, GridSpec, HermiteData, dump_hgrid, load_hgrid
from hermgrid.multiindex import enumerate_box
from hermgrid.polyring import MultiPoly
from hermgrid.spline import SplineInterpolant


def run_cli(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def seven_file(tmp_path, nu):
    path = tmp_path / f"seven_nu{nu}.json"
    dump_hgrid(seven_node_data(nu), str(path))
    return str(path)


BILINEAR_CORNERS = {(0, 0): F(2), (1, 0): F(5), (0, 1): F(-3), (1, 1): F(9)}


def bilinear_file(tmp_path):
    grid = GridSpec((Axis((0, 1), 1), Axis((0, 1), 1)))
    data = sample_poly_data(bilinear_poly(BILINEAR_CORNERS), grid)
    path = tmp_path / "bilinear.json"
    dump_hgrid(data, str(path))
    return str(path)


def division_files(tmp_path):
    polyf = tmp_path / "dividend.json"
    polyf.write_text(json.dumps(division_poly_3d().to_json_dict()))
    gridf = tmp_path / "cube.json"
    dump_hgrid(ones_data(division_grid_3d()), str(gridf))
    return str(polyf), str(gridf)


# -- build ------------------------------------------------------------------

def test_build_exact_data_reports_zero_residual(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, ["build", seven_file(tmp_path, 3)])
    assert rc == 0
    payload = json.loads(out)
    v = payload["validation"]
    assert v == {"max_residual": 0.0, "exact": True, "conditions": 21,
                 "max_degree": 20}
    # degree 20 is over the expansion cap, so the default form is factored
    rec = payload["interpolant"]
    assert rec["form"] == "factored"
    assert rec["dims"] == 1
    assert len(rec["points"]) == 7
    assert rec["points"][0]["basis"] == [[0], [1], [2]]
    assert all(len(p["xi"]) == 3 for p in rec["points"])


def test_build_expanded_form_roundtrips_the_polynomial(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, ["build", bilinear_file(tmp_path)])
    assert rc == 0
    payload = json.loads(out)
    rec = payload["interpolant"]
    # low degree defaults to the expanded record
    assert "terms" in rec
    assert MultiPoly.from_json_dict(rec) == bilinear_poly(BILINEAR_CORNERS)
    assert payload["validation"]["max_degree"] == 1

    rc, out, _ = run_cli(capsys, ["build", bilinear_file(tmp_path),
                                  "--form", "factored"])
    assert rc == 0
    assert json.loads(out)["interpolant"]["form"] == "factored"


def test_build_rejects_forced_expansion_over_the_cap(tmp_path, capsys):
    rc, out, err = run_cli(capsys, ["build", seven_file(tmp_path, 3),
                                    "--form", "expanded"])
    assert rc == 2
    assert out == ""
    assert "expansion must be forced" in err


def test_build_writes_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    rc, out, _ = run_cli(capsys, ["build", bilinear_file(tmp_path),
                                  "--out", str(target)])
    assert rc == 0
    assert out == ""
    first = target.read_text()
    run_cli(capsys, ["build", bilinear_file(tmp_path), "--out", str(target)])
    assert target.read_text() == first


# -- eval -------------------------------------------------------------------

def test_eval_exact_mode_prints_fractions(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n1/2,1/2\n")
    rc, out, _ = run_cli(capsys, ["eval", bilinear_file(tmp_path), str(pts),
                                  "--mode", "exact", "--deriv", "1,0"])
    assert rc == 0
    # blend of the corners at the midpoint, and its x1 partial 3 + 9*x2
    assert out == "x1,x2,value,d_1_0\n1/2,1/2,13/4,15/2\n"


def test_eval_flags_points_outside_the_hull(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0.5,0.5\n2,2\n")
    data = bilinear_file(tmp_path)
    rc, out, err = run_cli(capsys, ["eval", data, str(pts)])
    assert rc == 3
    assert "1 point(s) outside the grid hull" in err
    lines = out.strip().split("\n")
    assert lines[1] == "0.5,0.5,3.25"
    assert lines[2] == "2.0,2.0,"

    rc, out, _ = run_cli(capsys, ["eval", data, str(pts), "--skip-outside"])
    assert rc == 0
    assert out == "x1,x2,value\n0.5,0.5,3.25\n"


def test_eval_window_uses_the_spline(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n2\n3.5\n")
    rc, out, _ = run_cli(capsys, ["eval", seven_file(tmp_path, 1), str(pts),
                                  "--window", "4"])
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert float(rows[0][1]) == float(SEVEN_NODE_VALUES[2][0])
    expected = SplineInterpolant(seven_node_data(1), (4,))((3.5,))
    assert float(rows[1][1]) == float(expected)


def cube_files(tmp_path):
    """A 4x3x3 float grid, nu=2, sampled from a polynomial inside its
    interpolation space, and two in-hull query points."""
    axes = [(0.0, 0.5, 1.5, 2.0), (-1.0, 0.0, 1.0), (0.0, 1.0, 3.0)]
    grid = GridSpec([Axis(c, 2) for c in axes])
    g = MultiPoly(3, {(3, 1, 0): F(1, 2), (0, 2, 1): F(-3), (1, 0, 2): F(5, 4),
                      (0, 0, 0): F(7)})
    exact = sample_poly_data(g, GridSpec([Axis([F(c) for c in ax], 2)
                                          for ax in axes]))
    data = HermiteData(grid, slots=exact.slots.astype(float))
    path = tmp_path / "cube.json"
    dump_hgrid(data, str(path))
    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2,x3\n0.25,0.5,2\n1.75,-0.5,0.5\n")
    return g, str(path), str(pts)


def test_eval_batches_match_the_polynomial(tmp_path, capsys):
    g, data, pts = cube_files(tmp_path)
    for window in ([], ["--window", "3"], ["--window", "4,3,2"]):
        rc, out, _ = run_cli(capsys, ["eval", data, pts, "--deriv", "1,0,1"]
                             + window)
        assert rc == 0, window
        lines = out.strip().split("\n")
        assert lines[0] == "x1,x2,x3,value,d_1_0_1"
        for line in lines[1:]:
            row = [F(c) for c in line.split(",")]
            x = tuple(row[:3])
            assert abs(row[3] - g(x)) <= 1e-10, window
            assert abs(row[4] - g.differentiate((1, 0, 1))(x)) <= 1e-10


def test_eval_rejects_bad_derivative_orders(tmp_path, capsys):
    _, data, pts = cube_files(tmp_path)
    for deriv, message in (("1,-1,0", "negative"), ("1,0", "3 entries"),
                           ("1,x,0", "integers")):
        for mode in ("binary64", "exact"):
            rc, out, err = run_cli(capsys, ["eval", data, pts, "--deriv", deriv,
                                            "--mode", mode])
            assert rc == 2, (deriv, mode)
            assert out == ""
            assert message in err


def test_window_larger_than_an_axis_is_an_input_error(tmp_path, capsys):
    _, data, pts = cube_files(tmp_path)
    target = tmp_path / "fine.json"
    for argv in (["eval", data, pts, "--window", "9"],
                 ["resample", data, "--step", "0.5", "--window", "9",
                  "--out", str(target)],
                 ["verify", data, "--continuity", "--window", "9"],
                 ["verify", data, "--continuity"]):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2, argv
        assert out == ""
        assert "--window" in err and "invalid for axis of" in err


def test_eval_and_resample_batches_build_no_local(tmp_path, capsys,
                                                  monkeypatch):
    calls = []
    local = SplineInterpolant.local

    def counted(self, corner):
        calls.append(corner)
        return local(self, corner)

    monkeypatch.setattr(SplineInterpolant, "local", counted)
    _, data, pts = cube_files(tmp_path)
    rc, _, _ = run_cli(capsys, ["eval", data, pts, "--window", "3",
                                "--deriv", "1,1,0"])
    assert rc == 0
    target = tmp_path / "fine.json"
    rc, _, _ = run_cli(capsys, ["resample", data, "--step", "0.5",
                                "--window", "3,2,2", "--out", str(target)])
    assert rc == 0
    assert load_hgrid(str(target)).grid.shape == (5, 5, 7)
    assert calls == []


def test_eval_rejects_bad_points_files(tmp_path, capsys):
    data = bilinear_file(tmp_path)
    bad_header = tmp_path / "wrong.csv"
    bad_header.write_text("u,v\n0,0\n")
    rc, _, err = run_cli(capsys, ["eval", data, str(bad_header)])
    assert rc == 2
    assert "expected header x1,...,x2" in err

    bad_row = tmp_path / "badnum.csv"
    bad_row.write_text("x1,x2\n0,0\nspam,1\n")
    rc, _, err = run_cli(capsys, ["eval", data, str(bad_row)])
    assert rc == 2
    assert "badnum.csv:3: bad number" in err


def test_data_errors_name_the_problem(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    rc, _, err = run_cli(capsys, ["verify", str(broken)])
    assert rc == 2
    assert "broken.json" in err

    record = ones_data(unit_square_nu2()).to_json_dict()
    corner = next(p for p in record["points"] if p["index"] == [1, 1])
    corner["t"] = [e for e in corner["t"] if e["k"] != [1, 1]]
    hole = tmp_path / "hole.json"
    hole.write_text(json.dumps(record))
    rc, _, err = run_cli(capsys, ["verify", str(hole)])
    assert rc == 2
    assert "point (1, 1): missing (1, 1)" in err


def test_data_with_inconsistent_axis_records_exits_2(tmp_path, capsys):
    good = ones_data(unit_square_nu2()).to_json_dict()
    for key, value, message in (("dims", 3, "dims 3 but 2 axes"),
                                ("mult", good["mult"][:1], "multiplicity lists")):
        record = dict(good, **{key: value})
        path = tmp_path / f"bad_{key}.json"
        path.write_text(json.dumps(record))
        rc, _, err = run_cli(capsys, ["verify", str(path)])
        assert rc == 2, key
        assert message in err


# -- divide -----------------------------------------------------------------

def test_divide_reproduces_the_cascade(tmp_path, capsys):
    polyf, gridf = division_files(tmp_path)
    rc, out, _ = run_cli(capsys, ["divide", "--poly", polyf, "--grid", gridf])
    assert rc == 0
    payload = json.loads(out)
    assert payload["order"] == [1, 2, 3]
    quotients = [MultiPoly.from_json_dict(q) for q in payload["quotients"]]
    assert quotients[0] == Q1_PRINTED_3D
    assert quotients[1] == Q2_PRINTED_3D
    assert quotients[2] == Q3_PRINTED_3D
    assert MultiPoly.from_json_dict(payload["remainder"]) == R3_CONSISTENT
    assert F(str(payload["identity_residual"])) == 0


def test_divide_order_changes_quotients_not_remainder(tmp_path, capsys):
    polyf, gridf = division_files(tmp_path)
    rc, out, _ = run_cli(capsys, ["divide", "--poly", polyf, "--grid", gridf])
    base = json.loads(out)
    rc, out, _ = run_cli(capsys, ["divide", "--poly", polyf, "--grid", gridf,
                                  "--order", "3,2,1"])
    assert rc == 0
    flipped = json.loads(out)
    assert flipped["order"] == [3, 2, 1]
    assert flipped["remainder"] == base["remainder"]


def test_divide_rejects_bad_axis_orders(tmp_path, capsys):
    polyf, gridf = division_files(tmp_path)
    for order in ("1,1,2", "0,1,2", "1,2"):
        rc, _, err = run_cli(capsys, ["divide", "--poly", polyf,
                                      "--grid", gridf, "--order", order])
        assert rc == 2
        assert "permutation of the axes" in err


# -- verify -----------------------------------------------------------------

def test_verify_passes_exact_data(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, ["verify", seven_file(tmp_path, 3)])
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["conditions"] == 21
    assert report["max_condition_residual"] == 0.0


def thin_file(tmp_path, gap, nu):
    """Three nodes (0, gap, 1) of multiplicity nu, values 1, 2, 3, ..."""
    grid = GridSpec((Axis((0.0, gap, 1.0), nu),))
    vals = iter(range(1, 3 * nu + 1))
    pts = {
        idx: {k: float(next(vals)) for k in enumerate_box(grid.order_box(idx))}
        for idx in grid.point_indices()
    }
    path = tmp_path / f"thin_{gap}_{nu}.json"
    dump_hgrid(HermiteData(grid, points=pts), str(path))
    return str(path)


def test_verify_fails_on_unresolvable_float_data(tmp_path, capsys):
    # nodes 1e-8 apart at nu=3: the coupling blocks hold powers of 1e8 up
    # to the fifth, and the conditions drown in their roundoff
    rc, out, _ = run_cli(capsys, ["verify", thin_file(tmp_path, 1e-8, 3)])
    assert rc == 4
    report = json.loads(out)
    assert report["pass"] is False
    assert report["max_condition_residual"] > 1e-3


def test_verify_resolves_close_nodes_in_factored_form(tmp_path, capsys):
    # nodes 1e-6 apart at nu=2 defeat the expanded monomial form, but the
    # factored form meets every condition
    rc, out, _ = run_cli(capsys, ["verify", thin_file(tmp_path, 1e-6, 2)])
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_condition_residual"] <= 1e-9


def test_verify_passes_sinmix3d_point_data(tmp_path, capsys):
    # valid sampled data of degree 15 per axis: condition residuals stay
    # at roundoff once derivatives keep to the factored form
    from hermgrid.harness import builtin_function, derive_data

    nodes = [float(v) for v in np.linspace(-6, 6, 8)]
    grid = GridSpec([Axis(nodes, 2)] * 3)
    dense = derive_data(builtin_function("sinmix3d"), grid)
    points = {
        idx: {k: float(dense.value(idx, k))
              for k in enumerate_box(grid.order_box(idx))}
        for idx in grid.point_indices()}
    path = tmp_path / "sinmix.json"
    dump_hgrid(HermiteData(grid, points=points), str(path))
    rc, out, _ = run_cli(capsys, ["verify", str(path)])
    assert rc == 0
    report = json.loads(out)
    assert report["conditions"] == 4096
    assert report["max_condition_residual"] <= 1e-9


def test_nan_data_is_an_input_error(tmp_path, capsys):
    # json writes NaN as a bare literal, which json.load reads back
    grid = GridSpec((Axis((0.0, 1.0, 2.0)),))
    vals = iter([1.0, float("nan"), 3.0])
    nan = tmp_path / "nan.json"
    dump_hgrid(HermiteData(grid, points={
        idx: {(0,): next(vals)} for idx in grid.point_indices()}), str(nan))
    assert "NaN" in nan.read_text()
    for command in ("verify", "build"):
        rc, out, err = run_cli(capsys, [command, str(nan)])
        assert rc == 2, command
        assert out == ""
        assert "non-finite" in err


def test_max_residual_propagates_nan():
    from hermgrid.cli import _max_residual

    assert _max_residual([F(1, 4), 0.5, 0.0]) == 0.5
    assert math.isnan(_max_residual([0.0, float("nan"), 1.0]))
    assert math.isnan(_max_residual([float("nan"), 1.0]))


def test_verify_continuity_reports_guaranteed_orders(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, ["verify", seven_file(tmp_path, 3),
                                  "--continuity", "--window", "4"])
    assert rc == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["continuity_max_gap_per_order"] == {"axis1": [0.0, 0.0, 0.0]}

    rc, out, _ = run_cli(capsys, ["verify", seven_file(tmp_path, 1),
                                  "--continuity", "--window", "4"])
    assert rc == 0
    report = json.loads(out)
    assert report["continuity_max_gap_per_order"] == {"axis1": [0.0]}


# -- resample ---------------------------------------------------------------

def test_resample_halves_the_step(tmp_path, capsys):
    target = tmp_path / "fine.json"
    rc, _, _ = run_cli(capsys, ["resample", bilinear_file(tmp_path),
                                "--step", "0.5", "--out", str(target)])
    assert rc == 0
    fine = load_hgrid(str(target))
    assert fine.grid.shape == (3, 3)
    assert fine.validate() == []
    blend = bilinear_poly(BILINEAR_CORNERS)
    for idx in fine.grid.point_indices():
        a = fine.grid.coords(idx)
        assert fine.value(idx, (0, 0)) == float(blend(a))
    rc, _, _ = run_cli(capsys, ["verify", str(target)])
    assert rc == 0


def test_resample_derivative_orders_match_the_polynomial(tmp_path, capsys):
    g, data, _ = cube_files(tmp_path)
    for window in ([], ["--window", "3,3,2"]):
        target = tmp_path / "fine.json"
        rc, _, _ = run_cli(capsys, ["resample", data, "--step", "0.5,0.5,1",
                                    "--mult", "2,3,1", "--out", str(target)]
                           + window)
        assert rc == 0
        fine = load_hgrid(str(target))
        assert fine.validate() == []
        assert fine.grid.condition_count() == 10 * 15 * 4
        for idx, k, v in conditions(fine):
            a = tuple(F(c) for c in fine.grid.coords(idx))
            assert abs(v - g.differentiate(k)(a)) <= 1e-10, window


def test_resample_rejects_steps_that_overshoot_the_hull(tmp_path, capsys):
    target = tmp_path / "fine.json"
    rc, _, err = run_cli(capsys, ["resample", bilinear_file(tmp_path),
                                  "--step", "0.3", "--out", str(target)])
    assert rc == 3
    assert "outside source hull" in err


# -- compare ----------------------------------------------------------------

def test_compare_reports_lattice_rmse(capsys):
    rc, out, _ = run_cli(capsys, ["compare", "--function", "exp2d",
                                  "--mult", "2"])
    assert rc == 0
    report = json.loads(out)
    assert report["samples"] == 121
    assert abs(report["rmse"] - 0.0085) <= 5e-4


def test_compare_multiplicity_one_matches_the_baseline(capsys):
    rc, out, _ = run_cli(capsys, ["compare", "--function", "exp2d",
                                  "--mult", "1"])
    assert rc == 0
    report = json.loads(out)
    # the nu 1 interpolant on a 2x2 grid is the bilinear blend itself
    assert math.isclose(report["rmse"], report["rmse_multilinear"],
                        rel_tol=1e-12)
    assert math.isclose(report["rmse"], 0.5066835078211782, rel_tol=1e-9)


def test_compare_plane_pipeline_is_deterministic(capsys):
    argv = ["compare", "--function", "sinmix3d", "--mult", "1",
            "--grid-step", "1", "--window", "3"]
    rc, first, _ = run_cli(capsys, argv)
    assert rc == 0
    report = json.loads(first)
    assert report["samples"] == 1225
    assert report["excluded"] == 0
    assert math.isclose(report["rmse"], 5.875329754542617, rel_tol=1e-9)

    _, again, _ = run_cli(capsys, argv)
    assert again == first
    _, threaded, _ = run_cli(capsys, ["--threads", "2"] + argv)
    assert threaded == first


def test_compare_rejects_unknown_functions(capsys):
    rc, _, err = run_cli(capsys, ["compare", "--function", "nope",
                                  "--mult", "1"])
    assert rc == 2
    assert "unknown function" in err
