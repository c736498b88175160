"""Command line for fitting, benchmarking, sweeping, and search comparison.

Four subcommands:

    fit             interpolate a point set and tabulate the surface
    bench           one benchmark experiment (fixed kernel shape)
    sweep           error curve over a range of shape values
    compare-search  same experiment under cube search and plain scan

Point sources are written `halton:<n>`, `grid:<side>`, or `file:<path>`.
Point files are plain text, one point per line, whitespace- or
comma-separated, `x y z` or `x y z value`, with `#` comments.  Results go to
stdout or --out as CSV (default) or JSON; floats are emitted with 17
significant digits so a write/read round trip is exact.

`parse_args` checks the arguments and returns argparse's namespace with the
library inputs added to it; each subcommand's `_run_*` function reads that
namespace directly, with no request objects in between.  The experiment
commands hand the library a setup spec, and the kernel shape (or, for sweep,
the array of shapes) as an argument of its own.  Every command fits with the
cube search; compare-search also runs the plain scan and checks that the two
engines agree bit for bit.

Exit codes: 0 success, 1 usage, 2 input data, 3 numerical failure.
"""

import argparse
import json
import math
import sys
from dataclasses import astuple

import numpy as np

from . import bench, pu
from .errors import (
    EmptySubdomainError,
    OutOfDomainError,
    PointFileError,
    RadiusTooLargeError,
    SingularSystemError,
    UsageError,
)
from .halton import HaltonConfig, generate
from .rbf import KERNEL_FAMILIES, KernelSpec

RESULT_COLUMNS = (
    "n", "d", "q", "kernel", "shape", "function", "mmax", "mode",
    "rmse", "max_err", "fit_s", "eval_s", "total_s",
    "warn_uncovered", "warn_illcond", "warn_empty",
)

DEFAULT_KERNEL = "w4"
DEFAULT_SHAPE = 0.54


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_point_source(text):
    """Split a `halton:<n>` / `grid:<side>` / `file:<path>` source string."""
    kind, _, rest = text.partition(":")
    if kind == "halton":
        n = _int_field(rest, "halton count")
        if n < 1:
            raise UsageError(f"halton count must be >= 1, got {rest}")
        return ("halton", n)
    if kind == "grid":
        side = _int_field(rest, "grid side")
        if side < 2:
            raise UsageError(f"grid side must be >= 2, got {rest}")
        return ("grid", side)
    if kind == "file":
        if not rest:
            raise UsageError("file source needs a path: file:<path>")
        return ("file", rest)
    raise UsageError(
        f"bad point source {text!r}; expected halton:<n>, grid:<side>, or file:<path>"
    )


def _int_field(text, what):
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad {what}: {text!r}") from None


def parse_shape_range(text):
    """`lo:hi:count` -> (float, float, int)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad range {text!r}; expected lo:hi:count")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bad range bounds in {text!r}") from None
    count = _int_field(parts[2], "range count")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0 or hi < lo:
        raise UsageError(f"range must satisfy 0 < lo <= hi, got {text!r}")
    if count < 1:
        raise UsageError(f"range count must be >= 1, got {count}")
    return (lo, hi, count)


def read_points(path):
    """Parse a point file into (points, values): an (n, 3) array and, for a
    4-column file, the (n,) array of values, else None.

    Blank lines and `#` comments are skipped.  The first data row fixes the
    column count; mixed arity, non-numeric or non-finite fields, and
    coordinates outside [0, 1]^3 all raise with the offending line number.
    """
    rows = []
    arity = None
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.replace(",", " ").split()
            if arity is None:
                if len(fields) not in (3, 4):
                    raise PointFileError(
                        path, line_no, f"expected 3 or 4 columns, got {len(fields)}"
                    )
                arity = len(fields)
            elif len(fields) != arity:
                raise PointFileError(
                    path,
                    line_no,
                    f"row has {len(fields)} columns but the file started with {arity}",
                )
            try:
                nums = [float(t) for t in fields]
            except ValueError:
                bad = next(t for t in fields if not _is_float(t))
                raise PointFileError(path, line_no, f"non-numeric field {bad!r}") from None
            if not all(math.isfinite(v) for v in nums):
                raise PointFileError(path, line_no, "non-finite value")
            x, y, z = nums[:3]
            if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and 0.0 <= z <= 1.0):
                raise PointFileError(
                    path, line_no, f"coordinate outside the unit cube: ({x}, {y}, {z})"
                )
            rows.append(nums)
    data = np.array(rows, dtype=np.float64).reshape(-1, arity or 3)
    return data[:, :3], (data[:, 3] if arity == 4 else None)


def _is_float(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_point_source(source, what="points"):
    """Materialize a parsed source as (points array, values array or None)."""
    kind, arg = source
    if kind == "halton":
        return generate(HaltonConfig(arg)), None
    if kind == "grid":
        return bench.eval_grid(arg), None
    pts, vals = read_points(arg)
    if pts.shape[0] == 0:
        raise PointFileError(arg, 0, f"no {what} in file")
    return pts, vals


def _num(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _result_dict(res):
    # ExperimentResult's fields are RESULT_COLUMNS in order, holding plain
    # int, float, str or None values
    return dict(zip(RESULT_COLUMNS, astuple(res)))


def render_results(results, fmt):
    """CSV (fixed header) or JSON for one or more experiment results."""
    results = [results] if isinstance(results, bench.ExperimentResult) else list(results)
    if fmt == "json":
        payload = [_result_dict(r) for r in results]
        return json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n"
    lines = [",".join(RESULT_COLUMNS)]
    for r in results:
        lines.append(",".join(_num(v) for v in astuple(r)))
    return "\n".join(lines) + "\n"


def render_sweep(sweep, fmt):
    if fmt == "json":
        return json.dumps(
            {
                "curve": [[s, r] for s, r in sweep.points],
                "best_shape": sweep.best_shape,
                "best_rmse": sweep.best_rmse,
            },
            indent=2,
        ) + "\n"
    lines = ["shape,rmse"]
    for s, r in sweep.points:
        lines.append(f"{_num(s)},{_num(r)}")
    return "\n".join(lines) + "\n"


def render_values(points, values, fmt):
    if fmt == "json":
        rows = [[float(p[0]), float(p[1]), float(p[2]), float(v)]
                for p, v in zip(points, values)]
        return json.dumps(rows) + "\n"
    lines = ["x,y,z,value"]
    for p, v in zip(points, values):
        lines.append(f"{_num(float(p[0]))},{_num(float(p[1]))},{_num(float(p[2]))},{_num(float(v))}")
    return "\n".join(lines) + "\n"


def write_text(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _add_common(p, needs_shape):
    p.add_argument("--nodes", required=True, help="node source (halton:<n>, grid:<side>, file:<path>)")
    p.add_argument("--subdomains", type=int, default=None,
                   help="subdomain count d (default: n/8 rounded)")
    p.add_argument("--kernel", choices=KERNEL_FAMILIES, default=None)
    if needs_shape:
        p.add_argument("--shape", type=float, default=None)
    p.add_argument("--function", choices=tuple(bench.TEST_FUNCTIONS), default=None)
    p.add_argument("--mmax", type=int, default=None, help="cap on nodes per subdomain")
    p.add_argument("--eval", dest="eval_src", default="grid:11",
                   help="evaluation points (default grid:11)")
    p.add_argument("--centers", default="halton",
                   help="center source: halton, grid (the whole m^3 lattice, "
                        "m = ceil(cbrt d)), or, for fit only, file:<path>")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser():
    top = _Parser(prog="cubepu",
                  description="Partition-of-unity RBF interpolation on the unit cube")
    sub = top.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a point set and tabulate the surface")
    _add_common(p_fit, needs_shape=True)
    p_fit.set_defaults(kernel=DEFAULT_KERNEL, shape=DEFAULT_SHAPE)

    p_bench = sub.add_parser("bench", help="one benchmark experiment")
    _add_common(p_bench, needs_shape=True)

    p_sweep = sub.add_parser("sweep", help="error curve over a shape range")
    _add_common(p_sweep, needs_shape=False)
    p_sweep.add_argument("--range", dest="shape_range", required=True,
                         help="shape range lo:hi:count")

    p_cmp = sub.add_parser("compare-search",
                           help="run the same experiment with and without the cube search")
    _add_common(p_cmp, needs_shape=True)

    return top


def _default_subdomains(n):
    return max(1, round(n / 8))


def _experiment_spec(args):
    kind, n = parse_point_source(args.nodes)
    if kind != "halton":
        raise UsageError(
            f"{args.command} regenerates its nodes and needs --nodes halton:<n>"
        )
    kind, side = parse_point_source(args.eval_src)
    if kind != "grid":
        raise UsageError(f"{args.command} evaluates on a lattice; use --eval grid:<side>")
    if args.centers not in ("halton", "grid"):
        raise UsageError(f"{args.command} supports --centers halton or grid")
    if args.kernel is None:
        raise UsageError("--kernel is required here")
    return bench.ExperimentSpec(
        node_count=n,
        subdomain_count=args.subdomains or _default_subdomains(n),
        kernel_family=args.kernel,
        function=args.function or "f1",
        eval_grid_side=side,
        m_max=args.mmax,
        center_source=args.centers,
    )


def parse_args(argv=None):
    """Check argv and return argparse's namespace; for bench, sweep and
    compare-search with the `bench.ExperimentSpec` added as `spec`, and for
    sweep also the array of shape values as `shapes`."""
    args = build_parser().parse_args(argv)
    if args.mmax is not None and args.mmax < 1:
        raise UsageError(f"--mmax must be >= 1, got {args.mmax}")
    if args.subdomains is not None and args.subdomains < 1:
        raise UsageError(f"--subdomains must be >= 1, got {args.subdomains}")
    if args.command == "sweep":
        args.shapes = np.linspace(*parse_shape_range(args.shape_range))
    elif args.shape is None or args.shape <= 0:
        raise UsageError(f"--shape must be a positive number, got {args.shape}")
    if args.command == "fit":
        # a malformed source is a usage error even before any file is read
        parse_point_source(args.nodes)
        parse_point_source(args.eval_src)
    else:
        args.spec = _experiment_spec(args)
    return args


def _run_fit(args):
    nodes, values = load_point_source(parse_point_source(args.nodes), "nodes")
    if values is None:
        if args.function is None:
            raise UsageError(
                "node source carries no values; pass --function to sample a test field"
            )
        values = bench.TEST_FUNCTIONS[args.function](nodes)
    elif args.function is not None:
        raise UsageError(
            "node file carries its own values; --function applies only to "
            "nodes without values"
        )

    centers = None
    d = args.subdomains or _default_subdomains(nodes.shape[0])
    if args.centers not in ("halton", "grid"):
        kind, path = parse_point_source(args.centers)
        if kind != "file":
            raise UsageError(f"bad center source {args.centers!r}")
        centers, _ = load_point_source((kind, path), "centers")
        d = centers.shape[0]
        if args.subdomains is not None and args.subdomains != d:
            raise UsageError(
                f"--subdomains {args.subdomains} does not match {d} centers in {path}"
            )
    config = pu.PUConfig(
        kernel=KernelSpec(args.kernel, args.shape),
        subdomain_count=d,
        m_max=args.mmax,
        center_source=args.centers if centers is None else "explicit",
        centers=centers,
    )
    model = pu.fit(nodes, values, config)
    eval_pts, _ = load_point_source(parse_point_source(args.eval_src), "evaluation points")
    report = pu.evaluate_report(model, eval_pts)
    if report.uncovered:
        print(
            f"warning: {report.uncovered} evaluation points outside every "
            f"subdomain that holds nodes (nearest-center fallback used)",
            file=sys.stderr,
        )
    if model.illconditioned_solves:
        print(
            f"warning: {model.illconditioned_solves} ill-conditioned local solves",
            file=sys.stderr,
        )
    if model.empty.any():
        print(
            f"warning: {np.count_nonzero(model.empty)} subdomains contain no nodes "
            f"(left out of the blend)",
            file=sys.stderr,
        )
    write_text(render_values(eval_pts, report.values, args.format), args.out)


def _run_bench(args):
    res = bench.run_experiment(args.spec, args.shape)
    write_text(render_results(res, args.format), args.out)


def _run_sweep(args):
    sweep = bench.sweep_shape(args.spec, args.shapes)
    print(
        f"best shape {sweep.best_shape:g} with rmse {sweep.best_rmse:.6e}",
        file=sys.stderr,
    )
    write_text(render_sweep(sweep, args.format), args.out)


def _run_compare(args):
    res_cube, res_scan, match = bench.compare_search(args.spec, args.shape)
    speedup = res_scan.fit_seconds / res_cube.fit_seconds if res_cube.fit_seconds else float("inf")
    print(
        f"cube fit {res_cube.fit_seconds:.3f}s, scan fit {res_scan.fit_seconds:.3f}s "
        f"(x{speedup:.2f}); results identical: {match}",
        file=sys.stderr,
    )
    if args.format == "json":
        payload = {
            "cube": _result_dict(res_cube),
            "no_cube": _result_dict(res_scan),
            "results_match": bool(match),
            "fit_speedup": float(speedup),
        }
        write_text(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        write_text(render_results([res_cube, res_scan], args.format), args.out)


_RUNNERS = {"fit": _run_fit, "bench": _run_bench, "sweep": _run_sweep,
            "compare-search": _run_compare}


def main(argv=None):
    try:
        args = parse_args(argv)
        _RUNNERS[args.command](args)
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (PointFileError, OutOfDomainError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2
    except (EmptySubdomainError, SingularSystemError, RadiusTooLargeError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
