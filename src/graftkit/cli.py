"""Command-line front end.

Four subcommands: `torus` for exact class arithmetic, `graft` for one
graft step over a JSON configuration, `complex` for bounded graph
enumeration with DOT/JSON export, and `verify` for the identity suites.

Exit codes are a stable contract: 0 success, 1 domain error (an
inadmissible graft, odd multiplicity, degenerate input), 2 input error
(bad flags, malformed JSON or curve spec, unknown chart or suite), 3
verification failure. Set GRAFTKIT_LOG=debug|info|warning to adjust log
verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .errors import GraftError, UnknownChart, UnknownSuite
from .torus import Mode, TorusClass, algebraic_intersection, dehn_twist, \
    geometric_intersection, resolve
from .surface import Component, component, graft_along, parse_configuration, \
    structure_to_json, validate_configuration
from .complex_graph import build_complex, suite_names, suite_parameters, \
    verify_suite

log = logging.getLogger("graftkit")


@dataclass
class CliConfig:
    """Parsed invocation: one subcommand plus its inputs and flags."""

    subcommand: str
    inputs: Tuple[str, ...] = ()
    output: Optional[str] = None
    flags: Dict[str, object] = field(default_factory=dict)


def _torus_class(text: str) -> TorusClass:
    try:
        p_text, q_text = text.split(",")
        return TorusClass(int(p_text), int(q_text))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(
            f"expected a class as p,q (got {text!r})")


def _at_least(least: int):
    """An argparse type for integers no smaller than `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {value}")
        return value
    return parse


def parse_curve_spec(text: str) -> Component:
    """Parse `label@chart=p,q[:mult]`; extra @chart=p,q segments add
    charts to the same curve."""
    parts = text.split("@")
    label = parts[0]
    if not label or len(parts) < 2:
        raise ValueError(f"curve spec needs label@chart=p,q (got {text!r})")
    mult = 1
    if ":" in parts[-1]:
        parts[-1], mult_text = parts[-1].rsplit(":", 1)
        mult = int(mult_text)
    charts = {}
    for segment in parts[1:]:
        if "=" not in segment:
            raise ValueError(f"bad chart segment {segment!r} in {text!r}")
        name, cls_text = segment.split("=", 1)
        p_text, _, q_text = cls_text.partition(",")
        if not name or not q_text:
            raise ValueError(f"bad chart segment {segment!r} in {text!r}")
        if name in charts:
            raise ValueError(f"chart {name!r} repeated in {text!r}")
        charts[name] = (int(p_text), int(q_text))
    return component(label, charts, mult)


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
    cplx.add_argument("--depth", type=_at_least(0), required=True)
    cplx.add_argument("--twist-bound", type=_at_least(0), required=True)
    cplx.add_argument("--format", choices=("dot", "json"), default="json")
    cplx.add_argument("--output", help="graph file destination")
    cplx.add_argument("--workers", type=_at_least(1), default=1,
                      help="BFS expansion threads (results are identical "
                           "for any count)")

    verify = sub.add_parser("verify", help="run one identity suite")
    verify.add_argument("--suite", required=True,
                        help=f"one of: {', '.join(suite_names())}")
    verify.add_argument("--k-max", type=_at_least(0), dest="k_max")
    verify.add_argument("--range", type=_at_least(0), dest="sweep",
                        help="primitive-entry radius for the oracle sweep")
    verify.add_argument("--trials", type=_at_least(0))
    verify.add_argument("--seed", type=int,
                        help="seed for randomized suites (default fixed)")
    verify.add_argument("--l0", type=int, help="twist relating the pair "
                                               "(iterated suite)")
    verify.add_argument("--twist-bound", type=_at_least(0),
                        dest="twist_bound")
    verify.add_argument("--json", dest="json_path",
                        help="also write the machine-readable report here")
    return parser


def _cli_config(ns: argparse.Namespace) -> CliConfig:
    flags = {k: v for k, v in vars(ns).items()
             if k not in ("subcommand", "config", "output") and v is not None}
    inputs = (ns.config,) if getattr(ns, "config", None) else ()
    return CliConfig(ns.subcommand, inputs, getattr(ns, "output", None),
                     flags)


def _load_configuration(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return parse_configuration(data)


def _destination(path: Optional[str], mode: str):
    """Open an output file before the work that fills it, so that an
    unwritable path fails at once with nothing printed; without a path,
    a context that yields None."""
    if not path:
        return contextlib.nullcontext()
    return open(path, mode, encoding=None if "b" in mode else "utf-8")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_torus(cfg: CliConfig) -> int:
    op = cfg.flags["op"]
    if op == "intersect":
        a, b = cfg.flags["first"], cfg.flags["second"]
        print(f"geometric={geometric_intersection(a, b)} "
              f"algebraic={algebraic_intersection(a, b)}")
    elif op == "resolve":
        mode = Mode.SHARP if cfg.flags["mode"] == "sharp" else Mode.FLAT
        print(resolve(cfg.flags["first"], cfg.flags["second"], mode))
    else:
        print(dehn_twist(cfg.flags["target"], cfg.flags["about"],
                         cfg.flags.get("k", 1)))
    return 0


def _cmd_graft(cfg: CliConfig) -> int:
    _, struct, _ = _load_configuration(cfg.inputs[0])
    curve = parse_curve_spec(cfg.flags["curve"])
    for name, _cls in curve.charts:
        struct.model.require_chart(name)
    result = graft_along(struct, curve)
    text = json.dumps(structure_to_json(result), indent=2, sort_keys=True)
    _emit(text + "\n", cfg.output)
    return 0


def _cmd_complex(cfg: CliConfig) -> int:
    model, struct, gamma = _load_configuration(cfg.inputs[0])
    if gamma is None:
        raise ValueError("configuration lacks a 'gamma' grafting curve")
    totals = {name: struct.real_curves.total_chart_class(name)
              for name in model.charts}
    lam_total = component(
        "lambda", {n: c for n, c in totals.items() if c != (0, 0)} or
        {model.charts[0]: (0, 0)})
    configuration = validate_configuration(model, lam_total, gamma)
    dot = cfg.flags.get("format", "json") == "dot"
    with _destination(cfg.output, "w" if dot else "wb") as handle:
        graph = build_complex(configuration, cfg.flags["twist_bound"],
                              cfg.flags["depth"],
                              workers=cfg.flags.get("workers", 1),
                              seed=struct)
        print(f"vertices={len(graph.vertices)} edges={len(graph.edges)} "
              f"cycle_rank={graph.cycle_rank()}")
        ranks = graph.rank_by_kind()
        print(f"rank[all]={ranks['all']} rank[graft]={ranks['graft']} "
              f"rank[elementary]={ranks['elementary']}")
        if handle is not None:
            handle.write(graph.to_dot() if dot else graph.to_json_bytes())
    return 0


def _cmd_verify(cfg: CliConfig) -> int:
    name = cfg.flags["suite"]
    offered = {key: cfg.flags[key]
               for key in ("k_max", "sweep", "trials", "seed", "l0",
                           "twist_bound")
               if key in cfg.flags}
    rejected = sorted(set(offered) - suite_parameters(name))
    if rejected:
        raise ValueError(f"suite {name!r} does not take: "
                         f"{', '.join(rejected)}")
    with _destination(cfg.flags.get("json_path"), "w") as handle:
        report = verify_suite(name, **offered)
        for line in report.lines():
            print(line)
        if handle is not None:
            json.dump(report.to_json_obj(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if report.passed else 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("GRAFTKIT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = _cli_config(ns)
    handlers = {"torus": _cmd_torus, "graft": _cmd_graft,
                "complex": _cmd_complex, "verify": _cmd_verify}
    try:
        return handlers[cfg.subcommand](cfg)
    except (UnknownSuite, UnknownChart) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
