"""Command-line front end with machine-readable, reproducible output.

Every run prints a single JSON document (or CSV mirror) on stdout whose
header echoes the resolved configuration (digits, nmax); repeated runs
with the same flags produce identical bytes in exact mode.  No command
draws random numbers, so none takes a seed.  The wall-clock duration
goes to stderr so it cannot perturb the output.
Each command imports only the modules it runs: ``tree`` loads ``trees``,
``group`` adds ``fraction`` and ``thompson``, ``plmap`` adds ``plmap`` to
those, ``coeff`` adds ``diagrams`` and ``coloring``, and ``renorm``
(which ``coeff --d`` also loads) needs none of those.  mpmath loads only
for ``renorm scan``, whose cosine loop parameters run on interval
enclosures, and ``csv`` only for ``--format csv``.  Exit codes: 0 on
success, 2 on usage or domain errors, including input nested too deeply
for the recursive tree code.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction


def _rational(x) -> str:
    # str(int) refuses integers past sys.get_int_max_str_digits() digits;
    # Decimal converts an int exactly and prints every digit, so exact
    # rows print in full without lifting that process-wide limit.
    x = Fraction(x)
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _scalar(x, digits: int) -> str:
    if isinstance(x, (int, Fraction)):
        return _rational(x)
    from .renorm import upper_decimal

    return upper_decimal(x, digits)


def _parse_d(text: str):
    from .renorm import LoopParameter

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse loop parameter {text!r} as a rational") from None
    return LoopParameter.from_rational(value)


def _outcome_dict(outcome, digits: int) -> dict:
    from .renorm import Certificate

    if isinstance(outcome, Certificate):
        return {
            "n": outcome.n,
            "K": _scalar(outcome.norm_bound, digits),
            "MK": _scalar(outcome.product, digits),
        }
    return {
        "failure": {
            "reason": outcome.reason,
            "best_n": outcome.best_n,
            "best_MK": None
            if outcome.best_product is None
            else _scalar(outcome.best_product, digits),
        }
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treefrac",
        description="Forest-category groups, diagram coefficients, and decay certificates.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="tree and forest utilities")
    tree_sub = tree.add_subparsers(dest="action", required=True)
    t_part = tree_sub.add_parser("partition", help="dyadic breakpoints of a tree")
    t_part.add_argument("tree")
    t_ref = tree_sub.add_parser("refine", help="minimal common refinement of two trees")
    t_ref.add_argument("tree1")
    t_ref.add_argument("tree2")
    t_comp = tree_sub.add_parser("compose", help="stack two forests")
    t_comp.add_argument("lower")
    t_comp.add_argument("upper")
    t_count = tree_sub.add_parser("count", help="number of trees with n leaves")
    t_count.add_argument("n", type=int)

    group = sub.add_parser("group", help="group element arithmetic")
    group_sub = group.add_subparsers(dest="action", required=True)
    g_mul = group_sub.add_parser("mul", help="multiply two elements of the same kind")
    g_mul.add_argument("left")
    g_mul.add_argument("right")
    g_inv = group_sub.add_parser("inv", help="invert an element")
    g_inv.add_argument("element")
    g_red = group_sub.add_parser("reduce", help="normal form of an element literal")
    g_red.add_argument("element")

    plmap = sub.add_parser("plmap", help="piecewise-linear map of an F element")
    plmap.add_argument("element")

    coeff = sub.add_parser("coeff", help="vacuum coefficient of an F element")
    coeff.add_argument("--model", default="edge3", help="edge3, face:<n>, or chromatic")
    coeff.add_argument("--d", default=None, help="loop parameter for the chromatic model")
    coeff.add_argument("element")

    renorm = sub.add_parser("renorm", help="renormalization dynamics")
    renorm_sub = renorm.add_subparsers(dest="action", required=True)

    r_iter = renorm_sub.add_parser("iterate", help="l1 norms of the orbit of b1")
    r_iter.add_argument("--d", required=True)
    r_iter.add_argument("--steps", type=int, required=True)
    r_iter.add_argument("--digits", type=int, default=None)

    r_cert = renorm_sub.add_parser("certify", help="search for a decay certificate")
    r_cert.add_argument("--d", required=True)
    r_cert.add_argument("--nmax", type=int, default=None)
    r_cert.add_argument("--digits", type=int, default=None)

    r_scan = renorm_sub.add_parser("scan", help="certificate scan over the cosine family")
    r_scan.add_argument("--variant", choices=("plus", "minus", "both"), default="both")
    r_scan.add_argument("--m-from", type=int, default=5, dest="m_from")
    r_scan.add_argument("--m-to", type=int, default=20, dest="m_to")
    r_scan.add_argument("--d3", action="store_true", help="include the d = 3 row")
    r_scan.add_argument("--nmax", type=int, default=None)
    r_scan.add_argument("--digits", type=int, default=None)

    r_decay = renorm_sub.add_parser("decay", help="log-norm decay profile of b1")
    r_decay.add_argument("--d", required=True)
    r_decay.add_argument("--steps", type=int, required=True)
    r_decay.add_argument("--digits", type=int, default=None)

    return parser


def _config(args, **extra) -> dict:
    command = args.command + (f" {args.action}" if getattr(args, "action", None) else "")
    config = {
        "command": command,
        "format": args.format,
        "digits": getattr(args, "digits", None),
        "nmax": getattr(args, "nmax", None),
    }
    config.update(extra)
    return config


def _run_tree(args) -> tuple[dict, dict, list | None]:
    from .trees import (
        catalan,
        common_refinement,
        compose_forests,
        format_forest,
        format_tree,
        parse_forest,
        parse_tree,
        tree_to_partition,
    )

    if args.action == "partition":
        t = parse_tree(args.tree)
        points = [_rational(x) for x in tree_to_partition(t)]
        return _config(args, tree=args.tree), {"breakpoints": points}, [
            ("breakpoint",),
            *[(p,) for p in points],
        ]
    if args.action == "refine":
        s, t = parse_tree(args.tree1), parse_tree(args.tree2)
        u, p, q = common_refinement(s, t)
        result = {
            "refinement": format_tree(u),
            "forest_for_first": format_forest(p),
            "forest_for_second": format_forest(q),
        }
        return _config(args, tree1=args.tree1, tree2=args.tree2), result, None
    if args.action == "compose":
        lower, upper = parse_forest(args.lower), parse_forest(args.upper)
        out = compose_forests(lower, upper)
        return _config(args, lower=args.lower, upper=args.upper), {
            "forest": format_forest(out)
        }, None
    if args.action == "count":
        if args.n < 1:
            raise ValueError("n must be at least 1")
        return _config(args, n=args.n), {"leaves": args.n, "trees": catalan(args.n - 1)}, None
    raise AssertionError(args.action)


def _run_group(args) -> tuple[dict, dict, list | None]:
    from .thompson import parse_element

    if args.action == "mul":
        a, b = parse_element(args.left), parse_element(args.right)
        if type(a) is not type(b):
            raise ValueError(
                f"cannot multiply elements of different kinds ({type(a).__name__} vs {type(b).__name__})"
            )
        out = a * b
        cfg = _config(args, left=args.left, right=args.right)
    elif args.action == "inv":
        out = parse_element(args.element).inverse()
        cfg = _config(args, element=args.element)
    else:
        out = parse_element(args.element)
        cfg = _config(args, element=args.element)
    return cfg, {"element": str(out), "kind": type(out).__name__[0]}, None


def _run_plmap(args) -> tuple[dict, dict, list | None]:
    from .thompson import FElement, parse_element

    el = parse_element(args.element)
    if not isinstance(el, FElement):
        raise ValueError("plmap is defined for F elements only")
    pl = el.to_pl_map()
    pairs = [f"{x}->{y}" for x, y in pl.points]
    return _config(args, element=args.element), {"breakpoints": pairs}, [
        ("x", "y"),
        *[(str(x), str(y)) for x, y in pl.points],
    ]


def _run_coeff(args) -> tuple[dict, dict, list | None]:
    from .coloring import (
        chromatic_value,
        coefficient_from_count,
        edge_coloring_count,
        face_coloring_count,
    )
    from .diagrams import closed_graph
    from .thompson import FElement, parse_element

    el = parse_element(args.element)
    if not isinstance(el, FElement):
        raise ValueError("coefficients are defined for F elements only")
    cfg = _config(args, model=args.model, d=args.d, element=args.element)
    if args.model == "edge3":
        diagram = closed_graph(el)
        count = edge_coloring_count(diagram, 3)
        result = {
            "count": count,
            "coefficient": _rational(coefficient_from_count(diagram, count)),
        }
    elif args.model.startswith("face:"):
        n = int(args.model.split(":", 1)[1])
        count = face_coloring_count(closed_graph(el), n)
        result = {"count": count, "coefficient": _rational(Fraction(count, n))}
    elif args.model == "chromatic":
        if args.d is None:
            raise ValueError("the chromatic model needs --d")
        d = _parse_d(args.d)
        value = chromatic_value(closed_graph(el), d.exact)
        result = {"value": _rational(value)}
    else:
        raise ValueError(f"unknown model {args.model!r}")
    return cfg, result, None


def _run_renorm(args) -> tuple[dict, dict, list | None]:
    from .renorm import (
        B1,
        DEFAULT_DIGITS,
        DEFAULT_NMAX,
        Certificate,
        decay_profile,
        find_certificate,
        iterate_norms,
        m_constant,
        scan,
    )

    # --digits and --nmax default to None so that the parser builds without
    # importing renorm; the library's defaults are filled in here.
    if args.digits is None:
        args.digits = DEFAULT_DIGITS
    if getattr(args, "nmax", 0) is None:
        args.nmax = DEFAULT_NMAX
    digits = args.digits
    if args.action == "iterate":
        d = _parse_d(args.d)
        norms = iterate_norms(B1, d, args.steps, digits)
        steps = [{"n": n, "l1": _scalar(k, digits)} for n, k in norms]
        result = {
            "d": d.label(digits),
            "M": _scalar(m_constant(d, digits), digits),
            "steps": steps,
        }
        rows = [("n", "l1"), *[(s["n"], s["l1"]) for s in steps]]
        return _config(args, d=args.d, steps=args.steps), result, rows

    if args.action == "certify":
        d = _parse_d(args.d)
        outcome = find_certificate(d, args.nmax, digits)
        probe = outcome.n if isinstance(outcome, Certificate) else 0
        steps = []
        if probe:
            steps = [
                {"n": n, "l1": _scalar(k, digits)}
                for n, k in iterate_norms(B1, d, probe, digits)
            ]
        result = {
            "d": d.label(digits),
            "M": None
            if getattr(outcome, "m_bound", None) is None
            else _scalar(outcome.m_bound, digits),
            "steps": steps,
            "certificate": _outcome_dict(outcome, digits),
        }
        out = _outcome_dict(outcome, digits)
        if isinstance(outcome, Certificate):
            rows = [
                ("d", "M", "n", "K", "MK"),
                (result["d"], result["M"], out["n"], out["K"], out["MK"]),
            ]
        else:
            f = out["failure"]
            rows = [
                ("d", "M", "status", "best_n", "best_MK", "reason"),
                (result["d"], result["M"], "failure", f["best_n"], f["best_MK"], f["reason"]),
            ]
        return _config(args, d=args.d), result, rows

    if args.action == "scan":
        report = scan(args.m_from, args.m_to, args.variant, args.d3, args.nmax, digits)
        rows_out = []
        csv_rows = [("m", "variant", "d", "status", "n", "K", "M", "MK", "reason")]
        for row in report.rows:
            entry = {"m": row.m, "variant": row.variant, "d": row.d_label}
            if row.certified:
                entry["certificate"] = _outcome_dict(row.outcome, digits)
            else:
                entry["failure"] = _outcome_dict(row.outcome, digits)["failure"]
            rows_out.append(entry)
            if row.certified:
                o = row.outcome
                csv_rows.append(
                    (
                        row.m,
                        row.variant,
                        row.d_label,
                        "certificate",
                        o.n,
                        _scalar(o.norm_bound, digits),
                        _scalar(o.m_bound, digits),
                        _scalar(o.product, digits),
                        "",
                    )
                )
            else:
                o = row.outcome
                csv_rows.append(
                    (
                        row.m,
                        row.variant,
                        row.d_label,
                        "failure",
                        o.best_n,
                        "",
                        "" if o.m_bound is None else _scalar(o.m_bound, digits),
                        "" if o.best_product is None else _scalar(o.best_product, digits),
                        o.reason,
                    )
                )
        result = {"rows": rows_out, "verdict": report.verdict()}
        cfg = _config(
            args,
            variant=args.variant,
            m_from=args.m_from,
            m_to=args.m_to,
            include_d3=args.d3,
        )
        return cfg, result, csv_rows

    if args.action == "decay":
        d = _parse_d(args.d)
        rows = decay_profile(d, args.steps, digits)
        entries = [
            {
                "n": r.n,
                "l1": _scalar(r.norm, digits),
                "log_l1": repr(r.log_norm),
                "log_ratio": None if r.log_ratio is None else repr(r.log_ratio),
            }
            for r in rows
        ]
        csv_rows = [
            ("n", "l1", "log_l1", "log_ratio"),
            *[(e["n"], e["l1"], e["log_l1"], e["log_ratio"] or "") for e in entries],
        ]
        result = {"d": d.label(digits), "rows": entries}
        return _config(args, d=args.d, steps=args.steps), result, csv_rows

    raise AssertionError(args.action)


_RUNNERS = {
    "tree": _run_tree,
    "group": _run_group,
    "plmap": _run_plmap,
    "coeff": _run_coeff,
    "renorm": _run_renorm,
}


def _emit(config: dict, result: dict, csv_rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"config": config, "result": result}, indent=2) + "\n"
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for key, value in config.items():
        buf.write(f"# {key}={value}\n")
    if csv_rows is None:
        csv_rows = [tuple(result.keys()), tuple(result.values())]
    writer.writerows(csv_rows)
    return buf.getvalue()


def _domain_errors() -> tuple[type[BaseException], ...]:
    """The errors reported as ``error: ...`` with exit code 2.

    The library's literal and composition errors are ``ValueError``s.
    ``renorm.PrecisionError`` joins them only once a command has loaded
    renorm; an except clause evaluates this call only when an error arrives.
    """
    errors = (ValueError, RecursionError)
    renorm = sys.modules.get(f"{__package__}.renorm")
    return errors if renorm is None else (*errors, renorm.PrecisionError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        config, result, csv_rows = _RUNNERS[args.command](args)
    except _domain_errors() as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(_emit(config, result, csv_rows, args.format))
    print(f"completed in {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
