"""Command-line front end.

Subcommands: generate, columns, signal, verify, equiv, embed, normalize,
plot.  Exit status is 0 on success or a verified check, 1 on a mismatch or
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
from .errors import UlamError
from .onedim import Sequence1D, ulam_sequence
from .signal import alpha_scan, cosine_sum, sign_exception_set
from .verify import compare_set_to_oracle, get_oracle

_COORD_NAMES = ("x", "y", "z")


def _axis_names(dim: int) -> list[str]:
    if dim <= 3:
        return list(_COORD_NAMES[:dim])
    return [f"c{i}" for i in range(dim)]


def parse_point_list(text: str) -> list[tuple[int, ...]]:
    """Parse "(1,0),(2,0),(0,1)" or a plain "1,2" for one dimension."""
    text = text.strip()
    if "(" not in text:
        return [(int(tok),) for tok in text.split(",") if tok.strip()]
    pts = []
    for group in re.findall(r"\(([^()]*)\)", text):
        pts.append(tuple(int(tok) for tok in group.split(",")))
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


def _bound_from_args(args, dim: int) -> Bound:
    if getattr(args, "box", None):
        limits = tuple(int(t) for t in args.box.split(","))
        if len(limits) == 1 and dim > 1:
            limits = limits * dim
        return Bound.box(limits)
    if getattr(args, "level", None) is not None:
        return Bound.level(int(args.level))
    raise ValueError("one of --box or --level is required")


def _sizefn_from_args(args) -> SizeFunction:
    kind = getattr(args, "size", "sum") or "sum"
    if kind == "sum":
        return SizeFunction.coordinate_sum()
    if kind == "euclidean":
        return SizeFunction.euclidean_norm_squared()
    if kind == "weighted":
        if not getattr(args, "weights", None):
            raise ValueError("--size weighted requires --weights")
        ws = [Fraction(t) for t in args.weights.split(",")]
        return SizeFunction.weighted_sum(ws)
    raise ValueError(f"unknown size function {kind!r}")


def _load_config_file(path: str):
    with open(path) as fh:
        raw = json.load(fh)
    dim = raw.get("dim") or len(raw["initials"][0])
    bound_spec = raw.get("bound", {})
    bound = None
    if "box" in bound_spec:
        bound = Bound.box(bound_spec["box"])
    elif "level" in bound_spec:
        bound = Bound.level(bound_spec["level"])
    size = raw.get("size", "sum")
    modulus = raw.get("modulus")
    return dim, [tuple(v) for v in raw["initials"]], bound, size, modulus


def set_to_csv(uset: UlamSet) -> str:
    names = _axis_names(uset.dim)
    lines = [",".join(names)]
    lines += [",".join(str(c) for c in p) for p in uset.points]
    return "\n".join(lines) + "\n"


def points_from_csv(text: str) -> list[tuple[int, ...]]:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return [tuple(int(t) for t in ln.split(",")) for ln in lines[1:]]


def set_to_json(uset: UlamSet) -> str:
    doc = {
        "version": __version__,
        "config": {"dim": uset.dim, "initials": [list(p) for p in uset.config.initials]},
        "bound": (
            {"box": list(uset.bound.limits)}
            if uset.bound.kind == "box"
            else {"level": int(uset.bound.cap)}
        ),
        "size": uset.sizefn.kind,
        "count": len(uset.points),
        "points": [list(p) for p in uset.points],
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# SVG rendering


def export_svg(uset, path: str | None, radius: float | None = None,
               width: int = 640, projection: str = "xy") -> str:
    """Render a planar scatter of the set as standalone SVG.

    Three-dimensional sets are projected either onto the xy-plane or onto
    the orthogonal complement of the all-ones direction.  Byte output is
    deterministic for fixed inputs.
    """
    return scatter_svg(uset.points, uset.dim, path, radius=radius,
                       width=width, projection=projection)


def scatter_svg(points, dim: int, path: str | None, radius: float | None = None,
                width: int = 640, projection: str = "xy") -> str:
    """SVG scatter of raw points (tuples of the given dimension)."""
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
    text = "\n".join(parts) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_generate(args) -> int:
    modulus = args.cyclic
    file_bound = None
    if args.config:
        dim, initials, file_bound, size, modulus = _load_config_file(args.config)
        args.size = size
    else:
        if not args.init:
            print("error: --init or --config is required", file=sys.stderr)
            return 2
        initials = parse_point_list(args.init)
        dim = args.dim or len(initials[0])

    if dim == 1 and args.terms is not None:
        seq = ulam_sequence([p[0] for p in initials], args.terms)
        if args.format == "json":
            doc = {
                "version": __version__,
                "initials": list(seq.initials),
                "count": len(seq.terms),
                "terms": list(seq.terms),
            }
            _emit(json.dumps(doc, indent=2) + "\n", args.out)
        else:
            _emit("x\n" + "\n".join(str(t) for t in seq.terms) + "\n", args.out)
        return 0

    if modulus:
        cset = generate_cyclic(initials, modulus, int(args.x_bound))
        if args.format == "json":
            doc = {
                "version": __version__,
                "modulus": modulus,
                "x_bound": cset.x_bound,
                "initials": [list(p) for p in cset.initials],
                "count": len(cset.points),
                "points": [list(p) for p in cset.points],
            }
            _emit(json.dumps(doc, indent=2) + "\n", args.out)
        else:
            rows = ["x,r"] + [f"{x},{r}" for x, r in cset.points]
            _emit("\n".join(rows) + "\n", args.out)
        return 0

    cfg = validate_config(initials, dim)
    if args.box or args.level is not None:
        bound = _bound_from_args(args, dim)
    elif file_bound is not None:
        bound = file_bound
    else:
        print("error: a bound (--box/--level or config file) is required",
              file=sys.stderr)
        return 2
    uset = generate(cfg, bound, _sizefn_from_args(args))
    _emit(set_to_json(uset) if args.format == "json" else set_to_csv(uset), args.out)
    return 0


def _cmd_columns(args) -> int:
    initials = parse_point_list(args.init)
    cfg = validate_config(initials, len(initials[0]))
    bound = _bound_from_args(args, cfg.dim)
    uset = generate(cfg, bound)
    rep = columns_report(
        uset, axis=1, step=args.step,
        max_period=args.max_period, min_evidence=args.min_evidence,
    )
    if args.format == "json":
        doc = {
            "version": __version__,
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
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
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
    if args.set_init:
        # exploratory: scan x-coordinates of members along a fixed row
        initials = parse_point_list(args.set_init)
        cfg = validate_config(initials, len(initials[0]))
        uset = generate(cfg, _bound_from_args(args, cfg.dim))
        xs = sorted(p[0] for p in uset.points if p[1] == args.row and p[0] > 0)
        if len(xs) < 2:
            print("row has too few members to scan", file=sys.stderr)
            return 1
        seq = Sequence1D(tuple(xs[:2]), tuple(xs))
    else:
        initials = [p[0] for p in parse_point_list(args.init)]
        seq = ulam_sequence(initials, args.terms)

    if args.alpha is not None:
        total = cosine_sum(seq, args.alpha)
        exceptions = sign_exception_set(seq, args.alpha)
        doc = {
            "version": __version__,
            "alpha": float(Fraction(args.alpha)),
            "terms": len(seq.terms),
            "normalized_sum": total / len(seq.terms),
            "sign_exceptions": exceptions,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0

    scan = alpha_scan(seq, args.coarse_step)
    if args.csv_out:
        stride = max(1, len(scan.sums) // args.csv_points)
        rows = ["alpha,normalized_sum"]
        for j in range(0, len(scan.sums), stride):
            rows.append(f"{scan.coarse_alpha(j):.9f},{scan.sums[j]:.9f}")
        with open(args.csv_out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    doc = {
        "version": __version__,
        "terms": len(seq.terms),
        "coarse_step": scan.alpha_step,
        "best_alpha": scan.best_alpha,
        "best_value": scan.best_value,
        "sign_exceptions": sign_exception_set(seq, scan.best_alpha),
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    oracle = get_oracle(args.oracle, args.m, args.n)
    initials = parse_point_list(args.init) if args.init else oracle.initials
    cfg = validate_config(initials, len(initials[0]))
    bound = _bound_from_args(args, cfg.dim)
    uset = generate(cfg, bound)
    rep = compare_set_to_oracle(uset, oracle, bound)
    if rep.ok:
        print(f"verified: {oracle.oracle_id} on {len(uset)} points, "
              f"{rep.checked} cells checked")
        return 0
    doc = {
        "version": __version__,
        "oracle": oracle.oracle_id,
        "missing": [list(p) for p in rep.missing[:200]],
        "extra": [list(p) for p in rep.extra[:200]],
        "checked": rep.checked,
    }
    print(json.dumps(doc, indent=2))
    return 1


def _cmd_equiv(args) -> int:
    symbols = parse_symbol_table(args.symbols)
    va = parse_symbolic_vectors(args.a, symbols)
    vb = parse_symbolic_vectors(args.b, symbols)
    same = structurally_equivalent(va, vb)
    print("equivalent" if same else "not equivalent")
    return 0 if same else 1


def _cmd_embed(args) -> int:
    symbols = parse_symbol_table(args.symbols)
    vecs = parse_symbolic_vectors(args.init, symbols)
    if args.target == "line":
        pts = parse_point_list(args.init)
        images = embed_one_dimensional(pts)
        doc = {
            "version": __version__,
            "images": [repr(f) for f in images],
            "values": [f.value() for f in images],
        }
    else:
        out = embed_integer_lattice(vecs, symbols)
        doc = {
            "version": __version__,
            "dim": out.dim,
            "initials": [list(p) for p in out.initials],
        }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_normalize(args) -> int:
    initials = parse_point_list(args.init)
    cfg = validate_config(initials, 2)
    res = normalize_axes_2d(cfg)
    doc = {
        "version": __version__,
        "initials": [list(p) for p in res.config.initials],
        "matrix": [[str(c) for c in row] for row in res.matrix],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_plot(args) -> int:
    initials = parse_point_list(args.init)
    cfg = validate_config(initials, len(initials[0]))
    bound = _bound_from_args(args, cfg.dim)
    uset = generate(cfg, bound)
    export_svg(uset, args.out, radius=args.radius, projection=args.projection)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ulamset",
        description="Generate and analyze greedy unique-sum lattice sets.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_bound(p):
        p.add_argument("--box", help="comma-separated per-coordinate maxima")
        p.add_argument("--level", type=int, help="maximum level (f-value)")

    g = sub.add_parser("generate", help="generate a set or sequence")
    g.add_argument("--init", help="initial vectors, e.g. \"(1,0),(2,0),(0,1)\"")
    g.add_argument("--config", help="JSON config file")
    g.add_argument("--dim", type=int)
    add_bound(g)
    g.add_argument("--terms", type=int, help="term count for dim 1")
    g.add_argument("--cyclic", type=int, help="residue modulus n")
    g.add_argument("--x-bound", type=int, default=100, dest="x_bound")
    g.add_argument("--size", choices=["sum", "euclidean", "weighted"], default="sum")
    g.add_argument("--weights")
    g.add_argument("--format", choices=["csv", "json"], default="csv")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("columns", help="column periodicity report")
    c.add_argument("--init", required=True)
    add_bound(c)
    c.add_argument("--step", type=int, default=1)
    c.add_argument("--max-period", type=int, default=64, dest="max_period")
    c.add_argument("--min-evidence", type=int, default=3, dest="min_evidence")
    c.add_argument("--format", choices=["table", "json"], default="table")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_columns)

    s = sub.add_parser("signal", help="cosine-sum frequency analysis")
    s.add_argument("--init", default="1,2")
    s.add_argument("--terms", type=int, default=50000)
    s.add_argument("--alpha", help="evaluate at one frequency")
    s.add_argument("--coarse-step", type=float, default=1e-5, dest="coarse_step")
    s.add_argument("--csv-out", dest="csv_out", help="write coarse scan CSV")
    s.add_argument("--csv-points", type=int, default=4000, dest="csv_points")
    s.add_argument("--set-init", dest="set_init",
                   help="planar config for the fixed-row exploratory mode")
    s.add_argument("--row", type=int, default=0)
    add_bound(s)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_signal)

    v = sub.add_parser("verify", help="diff a generated set against an oracle")
    v.add_argument("oracle")
    v.add_argument("--m", type=int)
    v.add_argument("--n", type=int)
    v.add_argument("--init")
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
    n.add_argument("--init", required=True)
    n.add_argument("--out")
    n.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("plot", help="SVG scatter of a generated set")
    p.add_argument("--init", required=True)
    add_bound(p)
    p.add_argument("--projection", choices=["xy", "complement"], default="xy")
    p.add_argument("--radius", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UlamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
