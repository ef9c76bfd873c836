"""Command line surface: build, eval, resample, divide, verify, compare.

Exit codes: 0 ok, 2 input error, 3 domain error (e.g. query points
outside the grid hull), 4 numeric-validation failure.

Thread count must be fixed before numpy initializes its BLAS pools, so
--threads is scanned from argv and exported to the environment before
any numeric module is imported; outputs are independent of the setting.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_VALIDATION = 4


def _apply_threads(argv):
    if "--threads" in argv:
        i = argv.index("--threads")
        if i + 1 < len(argv):
            t = argv[i + 1]
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                os.environ.setdefault(var, t)


def _parse_multi(text, n=None):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(f"expected integers a,b,..., got {text!r}", EXIT_INPUT)
    if n is not None and len(parts) == 1:
        parts = parts * n
    return parts


def _fmt(v):
    from fractions import Fraction

    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(float(v))


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_data(path):
    from .grid import load_hgrid

    try:
        data = load_hgrid(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        raise CliError(f"{path}: {e}", EXIT_INPUT)
    bad = data.validate()
    if bad:
        raise CliError(f"{path}: " + "; ".join(bad[:8]), EXIT_INPUT)
    return data


def _load_poly(path):
    from .polyring import MultiPoly

    try:
        with open(path) as f:
            return MultiPoly.from_json_dict(json.load(f))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        raise CliError(f"{path}: {e}", EXIT_INPUT)


def _max_residual(residuals):
    """Largest residual as a float; NaN if any residual is NaN, where
    `max` and `>` would silently skip it."""
    import numpy as np

    return float(np.max([float(r) for r in residuals], initial=0.0))


def _max_condition_residual(f, data):
    """Largest |d^k f(a) - t_a^k| over all conditions, one `eval_lattice`
    per order k on the nodes prescribing it.  Exact data stays exact, so
    its residual is exactly 0."""
    import numpy as np

    grid = data.grid
    want = data.tensors
    parts = []
    for k, nodes, _ in grid.order_sublattices():
        got = f.eval_lattice([[ax.coords[j] for j in js]
                              for ax, js in zip(grid.axes, nodes)], k)
        parts.append(abs(got - want[k]).ravel())
    return _max_residual(np.concatenate(parts))


def _evaluator(data, window):
    """The spline of a --window argument, or without one the global
    interpolant; a window that does not fit the grid is an input error."""
    from .interpolant import interpolate
    from .spline import SplineInterpolant

    if not window:
        return interpolate(data, validate=False)
    try:
        return SplineInterpolant(data, _parse_multi(window, data.grid.n))
    except ValueError as e:
        raise CliError(f"--window {window}: {e}", EXIT_INPUT)


def _write_json(payload, path):
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def cmd_build(args):
    from .interpolant import EXPAND_DEGREE_LIMIT, interpolate

    data = _load_data(args.data)
    f = interpolate(data, validate=False)
    worst = _max_condition_residual(f, data)
    form = args.form or (
        "expanded" if f.max_degree <= EXPAND_DEGREE_LIMIT else "factored")
    try:
        record = f.to_json_dict(form=form)
    except ValueError as e:
        # forced expansion above the degree cap is an input problem
        raise CliError(str(e), EXIT_INPUT)
    payload = {
        "interpolant": record,
        "validation": {
            "max_residual": worst,
            "exact": f.exact,
            "conditions": data.grid.condition_count(),
            "max_degree": f.max_degree,
        },
    }
    _write_json(payload, args.out)
    return EXIT_OK


def _read_points(path, n, exact=False):
    from fractions import Fraction

    conv = Fraction if exact else float
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        raise CliError(f"{path}: {e}", EXIT_INPUT)
    if not rows or rows[0][:n] != [f"x{i + 1}" for i in range(n)]:
        raise CliError(f"{path}: expected header x1,...,x{n}", EXIT_INPUT)
    pts = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            pts.append(tuple(conv(c) for c in row[:n]))
        except (ValueError, ZeroDivisionError):
            raise CliError(f"{path}:{lineno}: bad number", EXIT_INPUT)
    return pts


def cmd_eval(args):
    import numpy as np

    from .interpolant import check_order

    data = _load_data(args.data)
    grid = data.grid
    exact = args.mode == "exact"
    pts = _read_points(args.points, grid.n, exact=exact)
    ev = _evaluator(data, args.window)
    deriv = _parse_multi(args.deriv, grid.n) if args.deriv else None
    inside = [p for p in pts if grid.contains(p)]
    try:
        if deriv:
            check_order(grid.n, deriv)
        if exact:
            values = [ev(p) for p in inside]
            derivs = [ev.derivative(p, deriv) for p in inside] if deriv else None
        else:
            # Binary64: each column is one batch over the in-hull points
            batch = np.array(inside, dtype=float).reshape(-1, grid.n)
            values = ev.eval_many(batch)
            derivs = ev.eval_many(batch, deriv) if deriv else None
    except ValueError as e:
        raise CliError(str(e), EXIT_INPUT)
    header = [f"x{i + 1}" for i in range(grid.n)] + ["value"]
    if deriv:
        header.append("d_" + "_".join(str(e) for e in deriv))
    out_rows = [header]
    outside = len(pts) - len(inside)
    results = iter(zip(values, derivs) if deriv else ((v,) for v in values))
    for p in pts:
        coord_cells = [_fmt(v) if exact else repr(float(v)) for v in p]
        if grid.contains(p):
            out_rows.append(coord_cells + [_fmt(v) for v in next(results)])
        elif not args.skip_outside:
            out_rows.append(coord_cells + [""] * (2 if deriv else 1))
    text = "\n".join(",".join(r) for r in out_rows) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as f:
            f.write(text)
    if outside and not args.skip_outside:
        print(f"{outside} point(s) outside the grid hull", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_resample(args):
    import numpy as np

    from .grid import GridSpec, HermiteData, dump_hgrid
    from .harness import stepped_axis

    data = _load_data(args.data)
    grid = data.grid
    mult = _parse_multi(args.mult, grid.n) if args.mult else tuple(
        max(ax.mult) for ax in grid.axes)
    if args.step:
        steps = [float(s) for s in args.step.split(",")]
        if len(steps) == 1:
            steps = steps * grid.n
        axes = []
        for (lo, hi), st, m in zip(grid.hull(), steps, mult):
            axes.append(stepped_axis(lo, hi, st, m))
        target = GridSpec(axes)
    else:
        raise CliError("resample requires --step", EXIT_INPUT)
    ev = _evaluator(data, args.window)
    for idx in target.point_indices():
        a = target.coords(idx)
        if not grid.contains(a):
            raise CliError(f"resample node {a} outside source hull",
                           EXIT_DOMAIN)
    # one batch per derivative order, over the target nodes prescribing it
    T = np.empty(tuple(ax.condition_count for ax in target.axes))
    for k, nodes, cells in target.order_sublattices():
        batch = np.array([target.coords(idx)
                          for idx in itertools.product(*nodes)], dtype=float)
        try:
            vals = ev.eval_many(batch, k)
        except ValueError as e:
            raise CliError(str(e), EXIT_INPUT)
        T[cells] = vals.reshape([len(js) for js in nodes])
    dump_hgrid(HermiteData(target, slots=T), args.out)
    return EXIT_OK


def cmd_divide(args):
    from .ideal import cascaded_divide
    from .polyring import is_exact

    g = _load_poly(args.poly)
    data = _load_data(args.grid)
    grid = data.grid
    order = None
    if args.order:
        order = tuple(int(p) - 1 for p in args.order.split(","))
    try:
        res = cascaded_divide(g, grid, order)
    except ValueError as e:
        raise CliError(str(e), EXIT_INPUT)
    exact = all(is_exact(c) for c in g.terms.values())
    payload = {
        "order": [i + 1 for i in res.order],
        "remainder": res.remainder.to_json_dict(),
        "quotients": [q.to_json_dict() for q in res.quotients],
    }
    if exact:
        payload["identity_residual"] = _fmt(res.identity_residual(grid))
    else:
        payload["identity_residual"] = float(res.identity_residual(grid))
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_verify(args):
    from .interpolant import interpolate

    data = _load_data(args.data)
    grid = data.grid
    report = {"conditions": grid.condition_count()}
    failed = False
    if args.continuity:
        from .spline import continuity_report

        spl = _evaluator(data, args.window or "4")
        cont = {}
        for ax_i, ax in enumerate(grid.axes):
            per_order = {}
            for j in range(1, ax.npoints - 1):
                try:
                    gaps = continuity_report(spl, ax_i, j, probes=args.probes,
                                             seed=args.seed)
                except ValueError:
                    continue
                for order, g in enumerate(gaps):
                    per_order.setdefault(order, []).append(g)
            if per_order:
                gaps = [_max_residual(per_order[o]) for o in sorted(per_order)]
                cont[f"axis{ax_i + 1}"] = gaps
                # every reported order is one the shared conditions guarantee
                if any(not g <= 1e-9 for g in gaps):
                    failed = True
        report["continuity_max_gap_per_order"] = cont
    else:
        f = interpolate(data, validate=False)
        worst = _max_condition_residual(f, data)
        report["max_condition_residual"] = worst
        tol = 0.0 if f.exact else 1e-9
        failed = not worst <= tol
    report["pass"] = not failed
    _write_json(report, args.out)
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_compare(args):
    from .harness import (
        BUILTINS, OBLIQUE_PLANE, builtin_function, builtin_grid,
        builtin_lattice, derive_data, multilinear_baseline, plane_grid,
        rmse, sample_plane,
    )
    from .interpolant import interpolate
    from .spline import SplineInterpolant
    import numpy as np

    if args.function not in BUILTINS:
        raise CliError(f"unknown function {args.function!r}", EXIT_INPUT)
    f = builtin_function(args.function)
    mult = _parse_multi(args.mult, f.n)
    report = {"function": args.function, "mult": list(mult)}
    if args.grid_step:
        # oblique-plane resampling pipeline
        grid = plane_grid(float(args.grid_step), mult[0], f.n)
        data = derive_data(f, grid)
        pts, excluded = sample_plane(OBLIQUE_PLANE, grid.hull())
        truth = f.values(pts)
        window = _parse_multi(args.window, f.n) if args.window else (3,) * f.n
        spl = SplineInterpolant(data, window)
        report.update({
            "grid_step": float(args.grid_step),
            "window": list(window),
            "samples": len(pts),
            "excluded": excluded,
            "rmse": rmse(spl.eval_many(pts), truth),
        })
    else:
        grid = builtin_grid(args.function, mult)
        data = derive_data(f, grid)
        lat = builtin_lattice(args.function)
        mesh = np.meshgrid(*lat, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        truth = f.values(pts)
        report["samples"] = len(pts)
        if args.window:
            window = _parse_multi(args.window, f.n)
            spl = SplineInterpolant(data, window)
            report["window"] = list(window)
            report["rmse"] = rmse(spl.eval_many(pts), truth)
        else:
            g = interpolate(data, validate=False)
            report["rmse"] = rmse(g.eval_lattice(lat).ravel(), truth)
        if all(m == 1 for m in mult):
            report["rmse_multilinear"] = rmse(
                multilinear_baseline(data, pts), truth)
    _write_json(report, args.out)
    return EXIT_OK


def make_parser():
    p = argparse.ArgumentParser(
        prog="hermgrid",
        description="Hermite coordinate interpolation on rectilinear grids",
    )
    p.add_argument("--threads", type=int, default=0,
                   help="BLAS thread cap (0 = library default)")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an interpolant from HGRID data")
    b.add_argument("data")
    b.add_argument("--form", choices=["expanded", "factored"])
    b.add_argument("--out", default="-")
    b.set_defaults(fn=cmd_build)

    e = sub.add_parser("eval", help="evaluate at CSV points")
    e.add_argument("data")
    e.add_argument("points", help="CSV with header x1,...,xn")
    e.add_argument("--window", help="per-axis window sizes w1,...,wn")
    e.add_argument("--deriv", help="derivative orders k1,...,kn")
    e.add_argument("--mode", choices=["binary64", "exact"],
                   default="binary64")
    e.add_argument("--skip-outside", action="store_true")
    e.add_argument("--out", default="-")
    e.set_defaults(fn=cmd_eval)

    r = sub.add_parser("resample", help="resample data onto a new grid")
    r.add_argument("data")
    r.add_argument("--step", required=True, help="target step s1,...,sn")
    r.add_argument("--mult", help="target multiplicities")
    r.add_argument("--window")
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_resample)

    d = sub.add_parser("divide", help="cascaded division by the grid ideal")
    d.add_argument("--poly", required=True)
    d.add_argument("--grid", required=True)
    d.add_argument("--order", help="1-based axis permutation, e.g. 2,1,3")
    d.add_argument("--out", default="-")
    d.set_defaults(fn=cmd_divide)

    v = sub.add_parser("verify", help="check conditions or continuity")
    v.add_argument("data")
    v.add_argument("--continuity", action="store_true")
    v.add_argument("--window")
    v.add_argument("--probes", type=int, default=8)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--out", default="-")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("compare", help="RMSE of a built-in reproduction")
    c.add_argument("--function", required=True)
    c.add_argument("--mult", required=True)
    c.add_argument("--grid-step", dest="grid_step")
    c.add_argument("--window")
    c.add_argument("--out", default="-")
    c.set_defaults(fn=cmd_compare)

    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_threads(argv)
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
