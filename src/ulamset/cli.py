"""Command-line front end.

Subcommands: generate, columns, signal, verify, equiv, embed, normalize.
``generate`` writes a lattice set, a one-dimensional sequence or a cyclic
set as CSV or JSON, and a lattice or cyclic set also as an SVG scatter.
Exit status is 0 on success or a verified check, 1 on a mismatch or
violation, 2 on usage errors.  Output is deterministic for fixed inputs:
CSV rows are sorted by (level, lexicographic) and SVG bytes depend only on
the rendered set.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import __version__
from .algebra import (
    embed_integer_lattice,
    embed_one_dimensional,
    normalize_axes_2d,
    structurally_equivalent,
    sym_vector,
)
from .columns import columns_report
from .core import Bound, SizeFunction, UlamSet, generate, validate_config
from .cyclic import generate_cyclic
from .errors import DimensionMismatch, UlamError
from .onedim import Sequence1D, ulam_sequence
from .signal import alpha_scan, cosine_sum, sign_exception_set
from .verify import compare_set_to_oracle, get_oracle


def parse_point_list(text: str) -> list[tuple[int, ...]]:
    """Parse "(1,0),(2,0),(0,1)" or a plain "1,2" for one dimension."""
    text = text.strip()
    if "(" not in text:
        pts = [(int(tok),) for tok in text.split(",") if tok.strip()]
    else:
        pts = [tuple(int(tok) for tok in group.split(","))
               for group in re.findall(r"\(([^()]*)\)", text)]
    if not pts:
        raise ValueError(f"could not parse point list from {text!r}")
    return pts


def parse_symbol_table(text: str | None) -> dict[str, float]:
    """Parse "sqrt2=1.41421356,pi=3.14159265" into a name->value map."""
    if not text:
        return {}
    out = {}
    for part in text.split(","):
        name, _, val = part.partition("=")
        if not val:
            raise ValueError(f"symbol {part!r} needs a numeric value")
        out[name.strip()] = float(val)
    return out


def parse_symbolic_vectors(text: str, symbols: dict[str, float]):
    """Parse symbolic vectors; coordinates are sums of <rational> or
    <rational>*<symbol> terms, e.g. "(1,0),(1,1*sqrt2)"."""
    names = tuple(symbols)
    vecs = []
    for group in re.findall(r"\(([^()]*)\)", text) or [text]:
        coords = []
        for coord in group.split(","):
            coord = coord.strip()
            rat = Fraction(0)
            coeffs = {s: Fraction(0) for s in names}
            for term in coord.split("+"):
                term = term.strip()
                if "*" in term:
                    c, _, s = term.partition("*")
                    s = s.strip()
                    if s not in coeffs:
                        raise ValueError(f"undeclared symbol {s!r} in {coord!r}")
                    coeffs[s] += Fraction(c.strip())
                elif term in coeffs:
                    coeffs[term] += 1
                else:
                    rat += Fraction(term)
            coords.append((rat,) + tuple(coeffs[s] for s in names))
        vecs.append(sym_vector(coords, names))
    return vecs


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in text.split(","))


def _file_list(value, kind, key: str) -> tuple:
    if not isinstance(value, list) or not value or not all(isinstance(v, kind) for v in value):
        raise ValueError(f"config file: {key!r} must be a nonempty list")
    return tuple(value)


def _file_int(value, key: str) -> int:
    if not isinstance(value, int):
        raise ValueError(f"config file: {key!r} must be an integer")
    return value


def _with_config_file(args) -> argparse.Namespace:
    """``args`` with the values of the JSON config file ``args.config``.

    The file gives the values that the flags would: ``initials``, a
    ``bound`` ({"box": [...]} or {"level": c}), ``size``, ``weights`` and
    ``modulus``, each in place of its flag.  --box and --level override the
    file's bound.  An optional ``dim`` must match the initials.
    """
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file: expected a JSON object")
    vectors = _file_list(raw.get("initials"), list, "initials")
    init = [_file_list(v, int, "initials") for v in vectors]
    if raw.get("dim", len(init[0])) != len(init[0]):
        raise DimensionMismatch(f"config file: dim {raw['dim']} does not match the initials")
    values = {"init": init}
    bound = raw.get("bound", {})
    if not isinstance(bound, dict):
        raise ValueError("config file: 'bound' must be an object")
    if args.box is None and args.level is None:
        if "box" in bound:
            values["box"] = _file_list(bound["box"], int, "bound.box")
        elif "level" in bound:
            values["level"] = _file_int(bound["level"], "bound.level")
    if "size" in raw:
        values["size"] = raw["size"]
    if "weights" in raw:
        values["weights"] = _file_list(raw["weights"], (int, str), "weights")
    if "modulus" in raw:
        values["cyclic"] = _file_int(raw["modulus"], "modulus")
    return argparse.Namespace(**{**vars(args), **values})


def _bound_from_args(args, dim: int) -> Bound:
    if args.box is not None:
        return Bound.box(args.box * dim if len(args.box) == 1 else args.box)
    if args.level is not None:
        return Bound.level(args.level)
    raise ValueError("one of --box or --level is required")


def _sizefn_from_args(args) -> SizeFunction:
    if args.size in (None, "sum"):
        return SizeFunction.coordinate_sum()
    if args.size == "euclidean":
        return SizeFunction.euclidean_norm_squared()
    if args.size == "weighted":
        if args.weights is None:
            raise ValueError("--size weighted requires --weights")
        return SizeFunction.weighted_sum(args.weights)
    raise ValueError(f"unknown size function {args.size!r}")


def _ulam_set(args, initials, sizefn: SizeFunction | None = None) -> UlamSet:
    """The set grown from ``initials`` within --box or --level."""
    cfg = validate_config(initials, len(initials[0]))
    return generate(cfg, _bound_from_args(args, cfg.dim), sizefn)


def _json(doc: dict) -> str:
    """A JSON output document: ``version`` first, indented, newline-ended."""
    return json.dumps({"version": __version__, **doc}, indent=2) + "\n"


def set_to_csv(uset: UlamSet) -> str:
    names = "xyz"[:uset.dim] if uset.dim <= 3 else [f"c{i}" for i in range(uset.dim)]
    row = ",".join(["%d"] * uset.dim) + "\n"
    return ",".join(names) + "\n" + (row * len(uset)) % tuple(uset.coords.ravel().tolist())


def points_from_csv(text: str) -> list[tuple[int, ...]]:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return [tuple(int(t) for t in ln.split(",")) for ln in lines[1:]]


def set_to_json(uset: UlamSet) -> str:
    return _json({
        "config": {"dim": uset.dim, "initials": [list(p) for p in uset.config.initials]},
        "bound": (
            {"box": list(uset.bound.limits)}
            if uset.bound.kind == "box"
            else {"level": int(uset.bound.cap)}
        ),
        "size": uset.sizefn.kind,
        "count": len(uset.points),
        "points": [list(p) for p in uset.points],
    })


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def scatter_svg(points, dim: int, radius: float | None = None,
                projection: str = "xy") -> str:
    """Planar SVG scatter of points (tuples of the given dimension).

    Three-dimensional points are projected either onto the xy-plane or onto
    the orthogonal complement of the all-ones direction.  Byte output is
    deterministic for fixed inputs.
    """
    if dim == 2:
        coords = [(float(x), float(y)) for x, y in points]
    elif dim == 3 and projection == "xy":
        coords = [(float(x), float(y)) for x, y, _ in points]
    elif dim == 3 and projection == "complement":
        s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
        coords = [
            ((x - y) / s2, (x + y - 2 * z) / s6) for x, y, z in points
        ]
    else:
        raise ValueError(f"cannot render dim {dim} with projection {projection!r}")

    if coords:
        xs = [c[0] for c in coords]
        ys = [c[1] for c in coords]
        lo_x, hi_x = min(0.0, min(xs)), max(xs)
        lo_y, hi_y = min(0.0, min(ys)), max(ys)
    else:
        lo_x = lo_y = 0.0
        hi_x = hi_y = 1.0
    span_x = max(hi_x - lo_x, 1.0)
    span_y = max(hi_y - lo_y, 1.0)
    width = 640
    margin = 40.0
    scale = (width - 2 * margin) / span_x
    height = int(2 * margin + span_y * scale)
    r = radius if radius is not None else max(1.2, scale * 0.3)

    def sx(v: float) -> float:
        return margin + (v - lo_x) * scale

    def sy(v: float) -> float:
        return height - margin - (v - lo_y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{sx(lo_x):.2f}" y1="{sy(lo_y):.2f}" x2="{sx(hi_x):.2f}" '
        f'y2="{sy(lo_y):.2f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{sx(lo_x):.2f}" y1="{sy(lo_y):.2f}" x2="{sx(lo_x):.2f}" '
        f'y2="{sy(hi_y):.2f}" stroke="black" stroke-width="1"/>',
        f'<text x="{sx(hi_x):.2f}" y="{sy(lo_y) + 16:.2f}" font-size="12" '
        f'text-anchor="end">{hi_x:.6g}</text>',
        f'<text x="{sx(lo_x) - 6:.2f}" y="{sy(hi_y):.2f}" font-size="12" '
        f'text-anchor="end">{hi_y:.6g}</text>',
        f'<text x="{sx(lo_x):.2f}" y="{sy(lo_y) + 16:.2f}" font-size="12" '
        f'text-anchor="middle">{lo_x:.6g}</text>',
    ]
    for cx, cy in sorted(coords):
        parts.append(
            f'<circle cx="{sx(cx):.2f}" cy="{sy(cy):.2f}" r="{r:.2f}" fill="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_generate(args) -> int:
    if args.config:
        args = _with_config_file(args)
    elif args.init is None:
        raise ValueError("--init or --config is required")
    initials = args.init
    dim = len(initials[0])
    # refuse what the chosen kind of output would ignore, before any work
    if args.terms is not None and dim > 1:
        raise ValueError(f"--terms needs one-dimensional initials, not dimension {dim}")
    # a sequence or a cyclic set has no lattice bound and no size function
    kind = "--terms" if args.terms is not None else "--cyclic" if args.cyclic is not None else None
    lattice_only = (("--box", args.box), ("--level", args.level),
                    ("--size", args.size), ("--weights", args.weights))
    ignored = [flag for flag, value in lattice_only if kind and value is not None]
    if ignored:
        bounded = "its term count" if kind == "--terms" else "--x-bound"
        raise ValueError(f"{', '.join(ignored)} apply to lattice sets, not to {kind} "
                         f"(bounded by {bounded})")
    if args.format == "svg" and dim not in (2, 3):
        what = "a --terms sequence" if args.terms is not None else f"dimension {dim}"
        raise ValueError(f"--format svg draws 2-D and 3-D sets, not {what}")

    if args.terms is not None:
        seq = ulam_sequence([p[0] for p in initials], args.terms)
        if args.format == "json":
            text = _json({
                "initials": list(seq.initials),
                "count": len(seq.terms),
                "terms": list(seq.terms),
            })
        else:
            text = "x\n" + "\n".join(str(t) for t in seq.terms) + "\n"
    elif args.cyclic is not None:
        cset = generate_cyclic(initials, args.cyclic, args.x_bound)
        if args.format == "json":
            text = _json({
                "modulus": cset.modulus,
                "x_bound": cset.x_bound,
                "initials": [list(p) for p in cset.initials],
                "count": len(cset.points),
                "points": [list(p) for p in cset.points],
            })
        elif args.format == "svg":
            text = scatter_svg(cset.points, 2, args.radius)
        else:
            text = "\n".join(["x,r"] + [f"{x},{r}" for x, r in cset.points]) + "\n"
    else:
        uset = _ulam_set(args, initials, _sizefn_from_args(args))
        if args.format == "json":
            text = set_to_json(uset)
        elif args.format == "svg":
            text = scatter_svg(uset.points, uset.dim, args.radius, args.projection)
        else:
            text = set_to_csv(uset)
    _emit(text, args.out)
    return 0


def _cmd_columns(args) -> int:
    uset = _ulam_set(args, args.init)
    rep = columns_report(
        uset, axis=1, step=args.step,
        max_period=args.max_period, min_evidence=args.min_evidence,
    )
    if args.format == "json":
        doc = {
            "step": rep.step,
            "profiles": [
                {
                    "index": p.index,
                    "residue": p.residue,
                    "preperiod": p.preperiod,
                    "period": p.period,
                    "pattern": p.pattern,
                    "empty": p.empty,
                    "evidence": p.evidence,
                    "doubling_source": p.doubling_source,
                }
                for p in rep.profiles
            ],
            "inconclusive": [list(t) for t in rep.inconclusive],
            "violations": list(rep.violations),
        }
        _emit(_json(doc), args.out)
    else:
        lines = [f"{'x':>5} {'res':>3} {'preperiod':>9} {'period':>6} "
                 f"{'empty':>5}  pattern"]
        for p in rep.profiles:
            lines.append(
                f"{p.index:>5} {p.residue:>3} {p.preperiod:>9} {p.period:>6} "
                f"{str(p.empty):>5}  {p.pattern if len(p.pattern) <= 32 else p.pattern[:32] + '...'}"
            )
        for t in rep.inconclusive:
            lines.append(f"{t[0]:>5} {t[1]:>3} {'inconclusive':>16}")
        lines.append(f"nonempty columns: {rep.nonempty_indices()}")
        by_period: dict[int, set[int]] = {}
        for p in rep.profiles:
            by_period.setdefault(p.period, set()).add(p.index)
        for period in sorted(by_period):
            xs = sorted(by_period[period])
            head = ", ".join(map(str, xs[:14])) + ("..." if len(xs) > 14 else "")
            lines.append(f"period {period:>3}: {len(xs)} columns ({head})")
        for v in rep.violations:
            lines.append(f"VIOLATION: {v}")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if rep.violations else 0


def _cmd_signal(args) -> int:
    if args.csv_points < 1:
        raise ValueError("--csv-points must be at least 1")
    if args.set_init is not None:
        # exploratory: scan x-coordinates of members along a fixed row
        uset = _ulam_set(args, args.set_init)
        xs = sorted(p[0] for p in uset.points if p[1] == args.row and p[0] > 0)
        if len(xs) < 2:
            print("row has too few members to scan", file=sys.stderr)
            return 1
        seq = Sequence1D(tuple(xs[:2]), tuple(xs))
    else:
        seq = ulam_sequence([p[0] for p in args.init], args.terms)

    if args.alpha is not None:
        if abs(args.alpha) > sys.float_info.max:
            raise ValueError("--alpha is outside the float range")
        total = cosine_sum(seq, args.alpha)
        _emit(_json({
            "alpha": float(args.alpha),
            "terms": len(seq.terms),
            "normalized_sum": total / len(seq.terms),
            "sign_exceptions": sign_exception_set(seq, args.alpha),
        }), args.out)
        return 0

    scan = alpha_scan(seq, args.coarse_step)
    if args.csv_out:
        stride = max(1, len(scan.sums) // args.csv_points)
        rows = ["alpha,normalized_sum"]
        for j in range(0, len(scan.sums), stride):
            rows.append(f"{scan.coarse_alpha(j):.9f},{scan.sums[j]:.9f}")
        with open(args.csv_out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    _emit(_json({
        "terms": len(seq.terms),
        "coarse_step": scan.alpha_step,
        "best_alpha": scan.best_alpha,
        "best_value": scan.best_value,
        "sign_exceptions": sign_exception_set(seq, scan.best_alpha),
    }), args.out)
    return 0


def _cmd_verify(args) -> int:
    oracle = get_oracle(args.oracle, args.m, args.n)
    uset = _ulam_set(args, oracle.initials if args.init is None else args.init)
    rep = compare_set_to_oracle(uset, oracle, uset.bound)
    if rep.ok:
        print(f"verified: {oracle.oracle_id} on {len(uset)} points, "
              f"{rep.checked} cells checked")
        return 0
    sys.stdout.write(_json({
        "oracle": oracle.oracle_id,
        "missing": [list(p) for p in rep.missing[:200]],
        "extra": [list(p) for p in rep.extra[:200]],
        "checked": rep.checked,
    }))
    return 1


def _cmd_equiv(args) -> int:
    symbols = parse_symbol_table(args.symbols)
    va = parse_symbolic_vectors(args.a, symbols)
    vb = parse_symbolic_vectors(args.b, symbols)
    same = structurally_equivalent(va, vb)
    print("equivalent" if same else "not equivalent")
    return 0 if same else 1


def _cmd_embed(args) -> int:
    if args.target == "line":
        images = embed_one_dimensional(parse_point_list(args.init))
        doc = {
            "images": [repr(f) for f in images],
            "values": [f.value() for f in images],
        }
    else:
        symbols = parse_symbol_table(args.symbols)
        out = embed_integer_lattice(parse_symbolic_vectors(args.init, symbols), symbols)
        doc = {"dim": out.dim, "initials": [list(p) for p in out.initials]}
    _emit(_json(doc), args.out)
    return 0


def _cmd_normalize(args) -> int:
    res = normalize_axes_2d(validate_config(args.init, 2))
    _emit(_json({
        "initials": [list(p) for p in res.config.initials],
        "matrix": [[str(c) for c in row] for row in res.matrix],
    }), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ulamset",
        description="Generate and analyze greedy unique-sum lattice sets.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_bound(p):
        p.add_argument("--box", type=_int_list, help="comma-separated per-coordinate maxima")
        p.add_argument("--level", type=int, help="maximum level (f-value)")

    g = sub.add_parser("generate", help="generate a set or sequence")
    g.add_argument("--init", type=parse_point_list,
                   help="initial vectors, e.g. \"(1,0),(2,0),(0,1)\"")
    g.add_argument("--config", help="JSON config file")
    add_bound(g)
    g.add_argument("--terms", type=int, help="term count for dim 1")
    g.add_argument("--cyclic", type=int, help="residue modulus n")
    g.add_argument("--x-bound", type=int, default=100, dest="x_bound")
    g.add_argument("--size", choices=["sum", "euclidean", "weighted"],
                   help="size function of a lattice set (default sum)")
    g.add_argument("--weights", type=_fraction_list)
    g.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    g.add_argument("--projection", choices=["xy", "complement"], default="xy",
                   help="SVG view of a 3-D set")
    g.add_argument("--radius", type=float, help="SVG point radius")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("columns", help="column periodicity report")
    c.add_argument("--init", type=parse_point_list, required=True)
    add_bound(c)
    c.add_argument("--step", type=int, default=1)
    c.add_argument("--max-period", type=int, default=64, dest="max_period")
    c.add_argument("--min-evidence", type=int, default=3, dest="min_evidence")
    c.add_argument("--format", choices=["table", "json"], default="table")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_columns)

    s = sub.add_parser("signal", help="cosine-sum frequency analysis")
    s.add_argument("--init", type=parse_point_list, default="1,2")
    s.add_argument("--terms", type=int, default=50000)
    s.add_argument("--alpha", type=Fraction, help="evaluate at one frequency")
    s.add_argument("--coarse-step", type=float, default=1e-5, dest="coarse_step")
    s.add_argument("--csv-out", dest="csv_out", help="write coarse scan CSV")
    s.add_argument("--csv-points", type=int, default=4000, dest="csv_points")
    s.add_argument("--set-init", type=parse_point_list, dest="set_init",
                   help="planar config for the fixed-row exploratory mode")
    s.add_argument("--row", type=int, default=0)
    add_bound(s)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_signal)

    v = sub.add_parser("verify", help="diff a generated set against an oracle")
    v.add_argument("oracle")
    v.add_argument("--m", type=int)
    v.add_argument("--n", type=int)
    v.add_argument("--init", type=parse_point_list)
    add_bound(v)
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("equiv", help="structural equivalence of two configs")
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.add_argument("--symbols")
    e.set_defaults(func=_cmd_equiv)

    m = sub.add_parser("embed", help="integer-lattice or line embedding")
    m.add_argument("--init", required=True)
    m.add_argument("--symbols")
    m.add_argument("--target", choices=["lattice", "line"], default="lattice")
    m.add_argument("--out")
    m.set_defaults(func=_cmd_embed)

    n = sub.add_parser("normalize", help="axis normalization of a planar config")
    n.add_argument("--init", type=parse_point_list, required=True)
    n.add_argument("--out")
    n.set_defaults(func=_cmd_normalize)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UlamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
