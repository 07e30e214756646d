"""Command-line front end.

Subcommands: generate, columns, signal, verify, equiv, embed, normalize.
``generate`` writes a lattice set, a one-dimensional sequence or a cyclic
set as CSV or JSON, and a lattice or cyclic set also as an SVG scatter.
A flag the run does not read exits 2 before any work.  Exit status is 0
on success or a verified check, 1 on a mismatch or violation, 2 on usage
errors.  Output is deterministic for fixed inputs: CSV rows are sorted by
(level, lexicographic) and SVG bytes depend only on the rendered set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .algebra import (
    embed_integer_lattice,
    embed_one_dimensional,
    normalize_axes_2d,
    structurally_equivalent,
    sym_vector,
)
from .columns import DEFAULT_MAX_PERIOD, DEFAULT_MIN_EVIDENCE, check_column_args, columns_report
from .core import Bound, SizeFunction, UlamSet, _check_bound_dim, generate, validate_config
from .cyclic import generate_cyclic
from .errors import DimensionMismatch, UlamError
from .onedim import Sequence1D, ulam_sequence
from .signal import _COARSE_STEP, alpha_scan, check_grid_step, cosine_sum, sign_exception_set
from .verify import compare_set_to_oracle, get_oracle


_GROUP = re.compile(r"\(([^()]*)\)")


def _groups(text: str) -> list[str]:
    """The insides of the "(...)" groups of text, outside which it may hold
    nothing but commas and whitespace.  Text without parentheses is a list
    of one-dimensional vectors, one group per nonblank comma-separated item."""
    if "(" not in text:
        return [item for item in text.split(",") if item.strip()]
    if _GROUP.sub("", text).replace(",", "").strip():
        raise ValueError(f"malformed vector list {text!r}")
    return _GROUP.findall(text)


def _rational(text) -> Fraction:
    """Fraction(text), with a zero denominator refused as other bad text is."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_point_list(text: str) -> list[tuple[int, ...]]:
    """Parse "(1,0),(2,0),(0,1)" or a plain "1,2" for one dimension."""
    pts = [tuple(int(tok) for tok in group.split(",")) for group in _groups(text)]
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
    <rational>*<symbol> terms, e.g. "(1,0),(1,1*sqrt2)".  A list without
    parentheses, e.g. "1,2", is one-dimensional vectors, as in
    :func:`parse_point_list`."""
    names = tuple(symbols)
    vecs = []
    for group in _groups(text):
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
                    coeffs[s] += _rational(c.strip())
                elif term in coeffs:
                    coeffs[term] += 1
                else:
                    rat += _rational(term)
            coords.append((rat,) + tuple(coeffs[s] for s in names))
        vecs.append(sym_vector(coords, names))
    return vecs


def _arg(convert):
    """``convert`` as an argparse type: its ValueError becomes an
    ArgumentTypeError, so the usage error names the reason, not the
    converter."""

    def arg(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return arg


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(map(_rational, text.split(",")))


def _is_kind(value, kind) -> bool:
    """isinstance, except that a JSON true or false is not an integer."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _file_list(value, kind, key: str) -> tuple:
    if not isinstance(value, list) or not value or not all(_is_kind(v, kind) for v in value):
        raise ValueError(f"config file: {key!r} must be a nonempty list")
    return tuple(value)


def _file_int(value, key: str) -> int:
    if not _is_kind(value, int):
        raise ValueError(f"config file: {key!r} must be an integer")
    return value


def _with_config_file(args) -> argparse.Namespace:
    """``args`` with the values of the JSON config file ``args.config``.

    The file gives the values that the flags would: ``initials``, a
    ``bound`` ({"box": [...]} or {"level": c}), ``size``, ``weights`` and
    ``modulus``, each in place of its flag.  --box and --level override the
    file's bound; any other flag it gives, or an unknown key, is refused.
    An optional ``dim`` must match the initials.
    """
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file: expected a JSON object")
    unknown = sorted(raw.keys() - {"dim", "initials", "bound", "size", "weights", "modulus"})
    if unknown:
        raise ValueError(f"config file: unknown key {unknown[0]!r}")
    vectors = _file_list(raw.get("initials"), list, "initials")
    init = [_file_list(v, int, "initials") for v in vectors]
    if raw.get("dim", len(init[0])) != len(init[0]):
        raise DimensionMismatch(f"config file: dim {raw['dim']} does not match the initials")
    values = {"init": init}
    bound = raw.get("bound", {})
    if not isinstance(bound, dict) or len(bound) > 1 or not bound.keys() <= {"box", "level"}:
        raise ValueError("config file: 'bound' takes one key, 'box' or 'level'")
    if args.box is None and args.level is None:
        if "box" in bound:
            values["box"] = _file_list(bound["box"], int, "bound.box")
        elif "level" in bound:
            values["level"] = _file_int(bound["level"], "bound.level")
    if "size" in raw:
        values["size"] = raw["size"]
    if "weights" in raw:
        weights = _file_list(raw["weights"], (int, str), "weights")
        values["weights"] = tuple(map(_rational, weights))
    if "modulus" in raw:
        values["cyclic"] = _file_int(raw["modulus"], "modulus")
    twice = [f"--{dest}" for dest in values if getattr(args, dest) is not None]
    if twice:
        raise ValueError(f"{', '.join(twice)} also given by the config file")
    return argparse.Namespace(**{**vars(args), **values})


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


def _bound(args, dim: int) -> Bound:
    """The run's --box or --level bound in dimension ``dim``; a one-value
    --box holds on every axis."""
    if getattr(args, "level", None) is not None:  # columns takes --box only
        return Bound.level(args.level)
    if args.box is None:
        raise ValueError("one of --box or --level is required")
    bound = Bound.box(args.box * dim if len(args.box) == 1 else args.box)
    _check_bound_dim(dim, bound)
    return bound


def _json(doc: dict) -> str:
    """A JSON output document: ``version`` first, indented, newline-ended."""
    return json.dumps({"version": __version__, **doc}, indent=2) + "\n"


def _csv(rows: np.ndarray, names=None) -> str:
    """CSV of an (n, k) int array, with columns x, y, z or c0, c1, ... unless named."""
    k = rows.shape[1]
    names = names or ("xyz"[:k] if k <= 3 else [f"c{i}" for i in range(k)])
    line = ",".join(["%d"] * k) + "\n"
    return ",".join(names) + "\n" + (line * len(rows)) % tuple(rows.ravel().tolist())


def set_to_csv(uset: UlamSet) -> str:
    return _csv(uset.coords)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def scatter_svg(points, dim: int, radius: float | None = None,
                projection: str = "xy") -> str:
    """Planar SVG scatter of points (sequences of the given dimension).

    Three-dimensional points are projected either onto the xy-plane or onto
    the orthogonal complement of the all-ones direction.  Byte output is
    deterministic for fixed inputs.
    """
    if dim not in (2, 3) or projection not in ("xy", "complement"):
        raise ValueError(f"cannot render dim {dim} with projection {projection!r}")
    if dim == 3 and projection == "complement":
        s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
        coords = [
            ((x - y) / s2, (x + y - 2 * z) / s6) for x, y, z in points
        ]
    else:
        coords = [(float(p[0]), float(p[1])) for p in points]

    xs = [c[0] for c in coords] or [1.0]  # an empty set spans [0, 1]
    ys = [c[1] for c in coords] or [1.0]
    lo_x, hi_x = min(0.0, *xs), max(xs)
    lo_y, hi_y = min(0.0, *ys), max(ys)
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
    parts += [f'<circle cx="{sx(cx):.2f}" cy="{sy(cy):.2f}" r="{r:.2f}" fill="black"/>'
              for cx, cy in sorted(coords)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _generate_reads(args) -> str:
    if args.terms is not None:
        flags = "terms"
    elif args.cyclic is not None:
        flags = "terms cyclic x_bound"
    else:
        flags = "terms cyclic box level size" + (" weights" if args.size == "weighted" else "")
    if args.format == "svg":  # only a 3-D set has a projection
        flags += " radius projection" if len(args.init[0]) == 3 else " radius"
    return "init config format out " + flags


def _generate_output(args) -> tuple:
    """Integer rows, CSV column names (None: x, y, z) and a function that
    builds the JSON document of the set, which only ``--format json`` calls."""
    if args.terms is not None:
        seq = ulam_sequence([p[0] for p in args.init], args.terms)
        return np.array(seq.terms, dtype=np.int64)[:, None], None, lambda: {
            "initials": seq.initials,
            "count": len(seq.terms),
            "terms": seq.terms,
        }
    if args.cyclic is not None:
        cset = generate_cyclic(args.init, args.cyclic, args.x_bound)
        return np.array(cset.points, dtype=np.int64).reshape(-1, 2), "xr", lambda: {
            "modulus": cset.modulus,
            "x_bound": cset.x_bound,
            "initials": cset.initials,
            "count": len(cset.points),
            "points": cset.points,
        }
    dim = len(args.init[0])
    uset = generate(validate_config(args.init, dim), _bound(args, dim), _sizefn_from_args(args))
    bound = uset.bound
    return uset.coords, None, lambda: {
        "config": {"dim": uset.dim, "initials": uset.config.initials},
        "bound": ({"box": bound.limits} if bound.kind == "box"
                  else {"level": int(bound.cap)}),
        "size": uset.sizefn.kind,
        "count": len(uset),
        "points": uset.points,
    }


def _cmd_generate(args) -> int:
    dim = len(args.init[0])
    if args.terms is not None and dim > 1:
        raise ValueError(f"--terms needs one-dimensional initials, not dimension {dim}")
    if args.format == "svg" and dim not in (2, 3):
        what = "a --terms sequence" if args.terms is not None else f"dimension {dim}"
        raise ValueError(f"--format svg draws 2-D and 3-D sets, not {what}")
    if args.radius is not None and not 0 < args.radius < math.inf:
        raise ValueError(f"--radius must be a positive finite number, got {args.radius}")

    rows, names, doc = _generate_output(args)
    if args.format == "json":
        text = _json(doc())
    elif args.format == "svg":
        text = scatter_svg(rows.tolist(), rows.shape[1], args.radius, args.projection)
    else:
        text = _csv(rows, names)
    _emit(text, args.out)
    return 0


def _cmd_columns(args) -> int:
    check_column_args(args.max_period, args.min_evidence, args.step)
    uset = generate(validate_config(args.init, 2), _bound(args, 2))
    rep = columns_report(
        uset, step=args.step, max_period=args.max_period, min_evidence=args.min_evidence,
    )
    if args.format == "json":
        _emit(_json({
            "step": rep.step,
            "profiles": [dataclasses.asdict(p) for p in rep.profiles],
            "inconclusive": rep.inconclusive,
            "violations": rep.violations,
        }), args.out)
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
        for period in sorted({p.period for p in rep.profiles}):
            xs = sorted({p.index for p in rep.profiles if p.period == period})
            head = ", ".join(map(str, xs[:14])) + ("..." if len(xs) > 14 else "")
            lines.append(f"period {period:>3}: {len(xs)} columns ({head})")
        for v in rep.violations:
            lines.append(f"VIOLATION: {v}")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if rep.violations else 0


def _signal_reads(args) -> str:
    source = "row box level" if args.set_init is not None else "init terms"
    flags = "set_init alpha out " + source
    if args.alpha is None:
        flags += " coarse_step csv_out" + (" csv_points" if args.csv_out else "")
    return flags


def _cmd_signal(args) -> int:
    if args.csv_points < 1:
        raise ValueError("--csv-points must be at least 1")
    if args.alpha is not None and abs(args.alpha) > sys.float_info.max:
        raise ValueError("--alpha is outside the float range")
    check_grid_step(args.coarse_step)
    if args.set_init is not None:
        # exploratory: scan x-coordinates of members along a fixed row
        bound = _bound(args, 2)
        reach = bound.reach(2)[1]
        if not 0 <= args.row <= reach:
            raise ValueError(f"--row {args.row} is outside the bound's rows 0..{reach}")
        c = generate(validate_config(args.set_init, 2), bound).coords
        xs = sorted(c[(c[:, 1] == args.row) & (c[:, 0] > 0), 0].tolist())
        if len(xs) < 2:
            print("row has too few members to scan", file=sys.stderr)
            return 1
        seq = Sequence1D(tuple(xs[:2]), tuple(xs))
    else:
        seq = ulam_sequence([p[0] for p in args.init], args.terms)

    if args.alpha is not None:
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
        _emit("\n".join(rows) + "\n", args.csv_out)
    _emit(_json({
        "terms": len(seq.terms),
        "coarse_step": scan.alpha_step,
        "best_alpha": scan.best_alpha,
        "best_value": scan.best_value,
        "sign_exceptions": sign_exception_set(seq, scan.best_alpha),
    }), args.out)
    return 0


def _verify_reads(args) -> str:
    parametric = get_oracle(args.oracle, args.m, args.n).params
    return "init box level" + (" m n" if parametric else "")


def _cmd_verify(args) -> int:
    oracle = get_oracle(args.oracle, args.m, args.n)
    bound = _bound(args, oracle.dim)
    if oracle.slab is not None:  # a region short of the oracle's one slab checks no cell
        axis, value = oracle.slab
        if bound.reach(oracle.dim)[axis] < value:
            raise ValueError(f"the region stops short of the {'xyz'[axis]} = {value} slab "
                             f"that {oracle.oracle_id} covers, so no cell would be checked")
    uset = generate(validate_config(args.init or oracle.initials, oracle.dim), bound)
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


def _embed_reads(args) -> str:
    return "init target out" + (" symbols" if args.target == "lattice" else "")


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
        bound = p.add_mutually_exclusive_group()
        bound.add_argument("--box", type=_arg(_int_list),
                           help="comma-separated per-coordinate maxima")
        bound.add_argument("--level", type=int, help="maximum level (f-value)")

    g = sub.add_parser("generate", help="generate a set or sequence")
    source = g.add_mutually_exclusive_group(required=True)
    source.add_argument("--init", type=_arg(parse_point_list),
                        help="initial vectors, e.g. \"(1,0),(2,0),(0,1)\"")
    source.add_argument("--config", help="JSON config file")
    add_bound(g)
    g.add_argument("--terms", type=int, help="term count for dim 1")
    g.add_argument("--cyclic", type=int, help="residue modulus n")
    g.add_argument("--x-bound", type=int, default=100, dest="x_bound")
    g.add_argument("--size", choices=["sum", "euclidean", "weighted"],
                   help="size function of a lattice set (default sum)")
    g.add_argument("--weights", type=_arg(_fraction_list))
    g.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    g.add_argument("--projection", choices=["xy", "complement"], default="xy",
                   help="SVG view of a 3-D set")
    g.add_argument("--radius", type=float, help="SVG point radius")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_generate, reads=_generate_reads, parser=g)

    c = sub.add_parser("columns", help="column periodicity report")
    c.add_argument("--init", type=_arg(parse_point_list), required=True)
    c.add_argument("--box", type=_arg(_int_list), required=True,
                   help="comma-separated per-coordinate maxima")
    c.add_argument("--step", type=int, default=1)
    c.add_argument("--max-period", type=int, default=DEFAULT_MAX_PERIOD, dest="max_period")
    c.add_argument("--min-evidence", type=int, default=DEFAULT_MIN_EVIDENCE,
                   dest="min_evidence")
    c.add_argument("--format", choices=["table", "json"], default="table")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_columns, parser=c,
                   reads=lambda args: "init box step max_period min_evidence format out")

    s = sub.add_parser("signal", help="cosine-sum frequency analysis")
    s.add_argument("--init", type=_arg(parse_point_list), default=[(1,), (2,)])
    s.add_argument("--terms", type=int, default=50000)
    s.add_argument("--alpha", type=_arg(_rational), help="evaluate at one frequency")
    s.add_argument("--coarse-step", type=float, default=_COARSE_STEP, dest="coarse_step")
    s.add_argument("--csv-out", dest="csv_out", help="write coarse scan CSV")
    s.add_argument("--csv-points", type=int, default=4000, dest="csv_points")
    s.add_argument("--set-init", type=_arg(parse_point_list), dest="set_init",
                   help="planar config for the fixed-row exploratory mode")
    s.add_argument("--row", type=int, default=0)
    add_bound(s)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_signal, reads=_signal_reads, parser=s)

    v = sub.add_parser("verify", help="diff a generated set against an oracle")
    v.add_argument("oracle")
    v.add_argument("--m", type=int)
    v.add_argument("--n", type=int)
    v.add_argument("--init", type=_arg(parse_point_list))
    add_bound(v)
    v.set_defaults(func=_cmd_verify, reads=_verify_reads, parser=v)

    e = sub.add_parser("equiv", help="structural equivalence of two configs")
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.add_argument("--symbols")
    e.set_defaults(func=_cmd_equiv, reads=lambda args: "a b symbols", parser=e)

    m = sub.add_parser("embed", help="integer-lattice or line embedding")
    m.add_argument("--init", required=True)
    m.add_argument("--symbols")
    m.add_argument("--target", choices=["lattice", "line"], default="lattice")
    m.add_argument("--out")
    m.set_defaults(func=_cmd_embed, reads=_embed_reads, parser=m)

    n = sub.add_parser("normalize", help="axis normalization of a planar config")
    n.add_argument("--init", type=_arg(parse_point_list), required=True)
    n.add_argument("--out")
    n.set_defaults(func=_cmd_normalize, reads=lambda args: "init out", parser=n)

    return ap


def _refuse_unread(args) -> None:
    """Raise ValueError on each flag given away from its default that args.reads omits."""
    reads = args.reads(args).split()
    flags = [a for a in args.parser._actions if a.option_strings and a.dest != "help"]
    unread = [a.option_strings[0] for a in flags
              if a.dest not in reads and getattr(args, a.dest) != a.default]
    if unread:
        read = [a.option_strings[0] for a in flags if a.dest in reads]
        raise ValueError(f"{', '.join(unread)}: not read by this {args.command} run, "
                         f"which reads {', '.join(read)}")


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            args = _with_config_file(args)
        _refuse_unread(args)
        return args.func(args)
    except (UlamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
