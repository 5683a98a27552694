"""Command-line front end.

Four subcommands: `torus` for exact class arithmetic, `graft` for one
graft step over a JSON configuration, `complex` for bounded graph
enumeration with DOT/JSON export, and `verify` for the identity suites.

Exit codes are a stable contract: 0 success, 1 domain error (an
inadmissible graft, odd multiplicity, degenerate input), 2 input error
(bad flags, malformed JSON or curve spec, unknown chart or suite), 3
verification failure. Set GRAFTKIT_LOG=debug|info|warning|error|critical
to adjust log verbosity; any other value means warning. Only a set
GRAFTKIT_LOG loads and configures logging.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import Optional, Sequence

from .errors import GraftError
from .torus import Mode, TorusClass, algebraic_intersection, dehn_twist, \
    geometric_intersection, resolve
from .surface import Component, SurfaceModel, component, graft_along, \
    parse_configuration, structure_to_json, validate_configuration
from .complex_graph import build_complex
from .suites import suite_names, verify_suite

_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _torus_class(text: str) -> TorusClass:
    try:
        p_text, q_text = text.split(",")
        return TorusClass(int(p_text), int(q_text))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(
            f"expected a class as p,q (got {text!r})")


def _nonnegative(text: str) -> int:
    """An argparse type for integers no smaller than 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {value}")
    return value


def parse_curve_spec(text: str, model: SurfaceModel) -> Component:
    """Parse `label@chart=p,q[:mult]` on the model's charts; extra
    @chart=p,q segments add charts to the same curve."""
    parts = text.split("@")
    label = parts[0]
    if not label or len(parts) < 2:
        raise ValueError(f"curve spec needs label@chart=p,q (got {text!r})")
    parts[-1], colon, mult_text = parts[-1].partition(":")
    mult = int(mult_text) if colon else 1
    charts = []
    for segment in parts[1:]:
        name, eq, cls_text = segment.partition("=")
        p_text, _, q_text = cls_text.partition(",")
        if not (name and eq and q_text):
            raise ValueError(f"bad chart segment {segment!r} in {text!r}")
        model.require_chart(name)
        charts.append((name, TorusClass(int(p_text), int(q_text))))
    curve = Component(((label, 1),), tuple(charts), mult)
    if not curve.charts:
        raise ValueError(f"{text!r} needs a nonzero class in some chart")
    return curve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graftkit",
        description="Exact multicurve calculus and grafting-graph "
                    "enumeration for real Schottky projective structures.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    torus = sub.add_parser("torus", help="exact class arithmetic on p,q")
    torus_sub = torus.add_subparsers(dest="op", required=True)
    intersect = torus_sub.add_parser(
        "intersect", help="geometric and algebraic intersection numbers")
    intersect.add_argument("first", type=_torus_class)
    intersect.add_argument("second", type=_torus_class)
    res = torus_sub.add_parser(
        "resolve", help="oriented crossing resolution, total class")
    res.add_argument("--mode", choices=("sharp", "flat"), required=True)
    res.add_argument("first", type=_torus_class)
    res.add_argument("second", type=_torus_class)
    twist = torus_sub.add_parser("twist", help="iterated Dehn twist")
    twist.add_argument("--about", type=_torus_class, required=True,
                       metavar="P,Q", help="twisting class (nonzero)")
    twist.add_argument("-k", type=int, default=1, help="twist power")
    twist.add_argument("target", type=_torus_class)
    for op in (intersect, res, twist):
        # argparse takes "-p,q" for an option: before Python 3.13 only
        # -N and -N.N count as negative numbers. Count -p,q too.
        op._negative_number_matcher = re.compile(
            op._negative_number_matcher.pattern + r"|^-\d+,-?\d+$")

    graft = sub.add_parser(
        "graft", help="graft one curve onto a configuration's structure")
    graft.add_argument("config", help="configuration JSON path")
    graft.add_argument("--curve", required=True,
                       help="curve spec label@chart=p,q[:mult]; extra "
                            "@chart=p,q segments add charts")
    graft.add_argument("--output", help="write the structure JSON here "
                                        "instead of standard output")

    cplx = sub.add_parser(
        "complex", help="enumerate the grafting graph breadth-first")
    cplx.add_argument("config", help="configuration JSON path (needs a "
                                     "'gamma' entry)")
    cplx.add_argument("--depth", type=_nonnegative, required=True)
    cplx.add_argument("--twist-bound", type=_nonnegative, required=True)
    cplx.add_argument("--format", choices=("dot", "json"), default="json")
    cplx.add_argument("--output", help="graph file destination")

    verify = sub.add_parser("verify", help="run one identity suite")
    verify.add_argument("--suite", required=True,
                        help=f"one of: {', '.join(suite_names())}")
    verify.add_argument("--k-max", type=_nonnegative, dest="k_max")
    verify.add_argument("--range", type=_nonnegative, dest="sweep",
                        help="primitive-entry radius for the oracle sweep")
    verify.add_argument("--trials", type=_nonnegative)
    verify.add_argument("--seed", type=int,
                        help="seed for randomized suites (default fixed)")
    verify.add_argument("--l0", type=int, help="twist relating the pair "
                                               "(iterated suite)")
    verify.add_argument("--twist-bound", type=_nonnegative,
                        dest="twist_bound")
    verify.add_argument("--json", dest="json_path",
                        help="also write the machine-readable report here")
    return parser


def _load_configuration(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return parse_configuration(data)


@contextlib.contextmanager
def _destination(path: Optional[str], binary: bool = False):
    """Yield a list for the parts of an output file, written to the file
    as they are only when the work succeeds. The file is opened before
    the work but not truncated, so an unwritable path fails at once with
    nothing printed and a failed run leaves an existing file as it was,
    and removes a file it created. Without a path, yield None."""
    if not path:
        yield None
        return
    created = not os.path.lexists(path)
    with open(path, "ab" if binary else "a",
              encoding=None if binary else "utf-8") as handle:
        parts: list = []
        try:
            yield parts
        except BaseException:
            if created:
                os.remove(path)
            raise
        handle.truncate(0)
        handle.writelines(parts)


def _cmd_torus(ns: argparse.Namespace) -> int:
    if ns.op == "intersect":
        print(f"geometric={geometric_intersection(ns.first, ns.second)} "
              f"algebraic={algebraic_intersection(ns.first, ns.second)}")
    elif ns.op == "resolve":
        mode = Mode.SHARP if ns.mode == "sharp" else Mode.FLAT
        print(resolve(ns.first, ns.second, mode))
    else:
        print(dehn_twist(ns.target, ns.about, ns.k))
    return 0


def _cmd_graft(ns: argparse.Namespace) -> int:
    _, struct, _ = _load_configuration(ns.config)
    curve = parse_curve_spec(ns.curve, struct.model)
    with _destination(ns.output) as parts:
        text = json.dumps(structure_to_json(graft_along(struct, curve)),
                          indent=2, sort_keys=True) + "\n"
        if parts is None:
            sys.stdout.write(text)
        else:
            parts.append(text)
    return 0


def _cmd_complex(ns: argparse.Namespace) -> int:
    model, struct, gamma = _load_configuration(ns.config)
    if gamma is None:
        raise ValueError("configuration lacks a 'gamma' grafting curve")
    # a seed of one leaf with one label is the configuration's own real
    # curve under that label, so the build can map moves by symmetry
    curves = struct.real_curves
    one_leaf = len(curves) == 1 and curves[0].multiplicity == 1 and \
        len(curves[0].content) == 1 and curves[0].content[0][1] == 1
    lam_total = component(curves[0].content[0][0] if one_leaf else "lambda",
                          dict(zip(model.charts, struct.identity()[1])))
    configuration = validate_configuration(model, lam_total, gamma)
    dot = ns.format == "dot"
    with _destination(ns.output, binary=not dot) as parts:
        graph = build_complex(configuration, ns.twist_bound, ns.depth,
                              seed=struct)
        print(f"vertices={len(graph.vertices)} edges={len(graph.edges)} "
              f"cycle_rank={graph.cycle_rank()}")
        ranks = graph.rank_by_kind()
        print(f"rank[all]={ranks['all']} rank[graft]={ranks['graft']} "
              f"rank[elementary]={ranks['elementary']}")
        if parts is not None:
            parts.append(graph.to_dot() if dot else graph.to_json_bytes())
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    offered = {key: value for key, value in vars(ns).items()
               if value is not None
               and key not in ("subcommand", "suite", "json_path")}
    with _destination(ns.json_path) as parts:
        report = verify_suite(ns.suite, **offered)
        for line in report.lines():
            print(line)
        if parts is not None:
            parts.append(json.dumps(report.to_json_obj(), indent=2,
                                    sort_keys=True) + "\n")
    return 0 if report.passed else 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("GRAFTKIT_LOG")
    if level is not None:  # unset, nothing is configured or imported
        import logging

        name = level.lower()
        logging.basicConfig(
            level=name.upper() if name in _LOG_LEVELS else "WARNING")
    parser = _build_parser()
    ns = parser.parse_args(argv)
    handlers = {"torus": _cmd_torus, "graft": _cmd_graft,
                "complex": _cmd_complex, "verify": _cmd_verify}
    try:
        return handlers[ns.subcommand](ns)
    except GraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
