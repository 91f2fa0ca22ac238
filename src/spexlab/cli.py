"""Command-line front end: construct, check, rho, transform, search, verify.

Exit codes are a stable contract: 0 success, 1 domain error (bad
parameters, malformed graph6, usage errors), 2 verification failure (a
suite reported failures), 3 internal or convergence error. Diagnostics go
to stderr; results go to stdout or the --out file. Each command declares
its formats and returns its exit code and its text in each; another
format is a usage error, raised before the command runs. A --config file
holds key=value lines, each read as the flag it names without the dashes:
the lines go in right after the verb, so explicit flags win, and argparse
checks their types, choices and required flags like any other. A switch
line takes true or false. Only --param values are coerced (to int, float,
bool or tuple).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .constructions import FAMILY_KINDS, FamilySpec, PathPartition, construct, transform
from .constructions import transform_successors
from .forbidden import ForbiddenSpec, is_free
from .graph import Graph
from .graph6 import graph6_decode, graph6_encode
from .recognition import is_outerplanar, is_planar
from .search import CLASSES, EXHAUSTIVE_CAP, MODES, SearchConfig
from .search import exhaustive_spex, local_search_spex
from .spectral import DEFAULT_TOL, ConvergenceError, spectral_radius
from . import experiments

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3

FORMATS = ("json", "csv", "g6", "text")
_TABLE_FORMATS = ("json", "csv", "text")  # verbs whose output is not graphs


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are domain errors, exit 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="spexlab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", metavar="SUBCOMMAND", required=True)
    p.sub_map = sub.choices  # verb name -> its parser

    def common(sp):
        sp.add_argument("--format", choices=FORMATS, default="text")
        sp.add_argument("--out", default=None, help="write results here instead of stdout")
        sp.add_argument("--config", default=None, help="file of key=value lines read as flags")

    sp = sub.add_parser("construct", description="Build a named family graph.")
    sp.add_argument("--family", required=True, help=f"kind:t=..,l=..,n=.. ({'/'.join(FAMILY_KINDS)})")
    common(sp)
    sp.set_defaults(handler=_cmd_construct, formats=FORMATS)

    sp = sub.add_parser("check", description="Class membership and freeness checks.")
    _graph_input(sp)
    sp.add_argument("--class", dest="klass", choices=CLASSES, default=None)
    sp.add_argument("--forbidden", default=None, help="C{l}, B{t}x{l} or M{k}")
    common(sp)
    sp.set_defaults(handler=_cmd_check, formats=_TABLE_FORMATS)

    sp = sub.add_parser("rho", description="Certified spectral radius.")
    _graph_input(sp)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common(sp)
    sp.set_defaults(handler=_cmd_rho, formats=_TABLE_FORMATS)

    sp = sub.add_parser("transform", description="Apply one path-partition transformation.")
    sp.add_argument("--partition", required=True, help="comma-separated path orders, e.g. 5,2,2")
    sp.add_argument("--i", type=int, default=0, help="index of the longer part (0-based)")
    sp.add_argument("--j", type=int, default=1, help="index of the shorter part (0-based)")
    sp.add_argument("--successors", action="store_true", help="list every one-step successor instead")
    common(sp)
    sp.set_defaults(handler=_cmd_transform, formats=_TABLE_FORMATS)

    sp = sub.add_parser("search", description="Spectral-maximizer search over a graph class.")
    sp.add_argument("--nmin", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--class", dest="klass", choices=CLASSES, default="outerplanar")
    sp.add_argument("--forbidden", default=None)
    sp.add_argument("--mode", choices=MODES, default="exhaustive")
    sp.add_argument("--disconnected", action="store_true", help="drop the connected-only restriction")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--cap", type=int, default=EXHAUSTIVE_CAP, help="refuse exhaustive search above this n")
    sp.add_argument("--start-g6", default=None, help="start graph for local mode")
    sp.add_argument("--restarts", type=int, default=0)
    common(sp)
    sp.set_defaults(handler=_cmd_search, formats=FORMATS)

    sp = sub.add_parser("verify", description="Run a verification suite (or 'all').")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--param", action="append", default=[], help="suite keyword argument key=value")
    common(sp)
    sp.set_defaults(handler=_cmd_verify, formats=_TABLE_FORMATS)

    return p


def _graph_input(sp):
    one = sp.add_mutually_exclusive_group(required=True)
    one.add_argument("--g6", default=None, help="graph6 line")
    one.add_argument("--family", default=None, help="family spec as in construct")


def _load_graph(args) -> Graph:
    if args.g6 is not None:
        return graph6_decode(args.g6)
    return construct(FamilySpec.parse(args.family))


def _coerce(text: str):
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if "," in text:
        return tuple(_coerce(p) for p in text.split(",") if p)
    return text


_COMMENT = re.compile(r"(?:^|\s)#")  # a '#' inside a value is part of it


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with its --config lines put right after the verb as the
    flags they name, so explicit flags, which come later, win. A key names
    one of the verb's options, without the dashes; any other key is a usage
    error. A switch takes true or false (any case) and is given when true.
    A '#' at the start of a line or after whitespace starts a comment."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config", default=None)
    path = pre.parse_known_args(argv)[0].config
    if path and argv[0] in parser.sub_map:
        options = {
            opt.lstrip("-").replace("-", "_"): (opt, action.nargs == 0)
            for action in parser.sub_map[argv[0]]._actions
            if action.dest != "help"
            for opt in action.option_strings
        }
        flags = []
        try:
            fh = open(path)
        except OSError as e:
            raise UsageError(f"cannot read --config {path}: {e.strerror}") from None
        with fh:
            for raw in fh:
                line = _COMMENT.split(raw, 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {raw.rstrip()!r}")
                key, _, val = line.partition("=")
                key, val = key.strip().replace("-", "_"), val.strip()
                if key not in options:
                    raise UsageError(f"--config key {key!r} is not an option of {argv[0]}")
                opt, switch = options[key]
                if not switch:
                    flags.append(f"{opt}={val}")
                elif val.lower() not in ("true", "false"):
                    raise UsageError(f"--config key {key!r} takes true or false, not {val!r}")
                elif val.lower() == "true":
                    flags.append(opt)
        argv = argv[:1] + flags + argv[1:]
    return parser.parse_args(argv)


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header] + rows)


def _cmd_construct(args) -> tuple[int, dict[str, str]]:
    spec = FamilySpec.parse(args.family)
    g = construct(spec)
    enc = graph6_encode(g)
    payload = {"family": str(spec), "n": g.n, "edges": g.edge_count(), "graph6": enc}
    return EXIT_OK, {
        "json": json.dumps(payload, sort_keys=True),
        "csv": _csv("family,n,edges,graph6", [f"{spec},{g.n},{g.edge_count()},{enc}"]),
        "g6": enc,
        "text": f"{spec} n={g.n} edges={g.edge_count()} {enc}",
    }


def _cmd_check(args) -> tuple[int, dict[str, str]]:
    g = _load_graph(args)
    if args.klass is None and args.forbidden is None:
        raise UsageError("nothing to check; give --class and/or --forbidden")
    payload: dict = {"graph6": graph6_encode(g), "n": g.n}
    bits = []
    if args.klass is not None:
        rec = is_outerplanar(g) if args.klass == "outerplanar" else is_planar(g)
        payload["class"] = args.klass
        payload["in_class"] = rec.planar
        bits.append(f"{args.klass}={rec.planar}")
    if args.forbidden is not None:
        spec = ForbiddenSpec.parse(args.forbidden)
        payload["forbidden"] = str(spec)
        payload["free"] = is_free(g, spec)
        bits.append(f"{spec}-free={payload['free']}")
    keys = [k for k in ("class", "in_class", "forbidden", "free") if k in payload]
    return EXIT_OK, {
        "json": json.dumps(payload, sort_keys=True),
        "csv": _csv(
            "graph6,n," + ",".join(keys),
            [",".join([payload["graph6"], str(g.n)] + [str(payload[k]) for k in keys])],
        ),
        "text": " ".join(bits),
    }


def _cmd_rho(args) -> tuple[int, dict[str, str]]:
    g = _load_graph(args)
    est = spectral_radius(g, tol=args.tol)
    payload = {
        "n": g.n,
        "rho": est.rho,
        "residual": est.residual,
        "iterations": est.iterations,
    }
    return EXIT_OK, {
        "json": json.dumps(payload, sort_keys=True),
        "csv": _csv(
            "n,rho,residual,iterations",
            [f"{g.n},{est.rho!r},{est.residual:.6e},{est.iterations}"],
        ),
        "text": f"rho {est.rho!r} residual {est.residual:.3e} iterations {est.iterations}",
    }


def _parse_partition(text: str) -> PathPartition:
    try:
        parts = [int(p) for p in text.replace("[", "").replace("]", "").split(",") if p.strip()]
    except ValueError as e:
        raise UsageError(f"bad partition {text!r}: {e}") from None
    return PathPartition(parts)


def _cmd_transform(args) -> tuple[int, dict[str, str]]:
    h = _parse_partition(args.partition)
    if args.successors:
        succ = transform_successors(h)
        return EXIT_OK, {
            "json": json.dumps(
                {"partition": list(h.parts), "successors": [list(s.parts) for s in succ]}
            ),
            "csv": _csv("successor", [";".join(map(str, s.parts)) for s in succ]),
            "text": "\n".join(str(s) for s in succ),
        }
    result = transform(h, args.i, args.j)
    return EXIT_OK, {
        "json": json.dumps(
            {"partition": list(h.parts), "i": args.i, "j": args.j, "result": list(result.parts)}
        ),
        "csv": _csv("result", [";".join(map(str, result.parts))]),
        "text": str(result),
    }


def _cmd_search(args) -> tuple[int, dict[str, str]]:
    forbidden = ForbiddenSpec.parse(args.forbidden) if args.forbidden else None
    config = SearchConfig(
        n_min=args.nmin,
        n_max=args.nmax,
        klass=args.klass,
        forbidden=forbidden,
        connected_only=not args.disconnected,
        mode=args.mode,
        seed=args.seed,
        checkpoint=args.checkpoint,
        exhaustive_cap=args.cap,
    )
    if args.mode == "local":
        if not args.start_g6:
            raise UsageError("local mode needs --start-g6")
        report = local_search_spex(config, graph6_decode(args.start_g6), args.restarts)
    else:
        report = exhaustive_spex(config)
    return EXIT_OK, {
        "json": report.to_json(),
        "csv": "\n".join(report.csv_lines()),
        "g6": "\n".join(c for e in report.entries for c in e["certificates"]),
        "text": "\n".join(
            f"n={e['n']} rho={e['best_rho']:.10f} certificates={len(e['certificates'])}"
            f" candidates={e['candidates']}"
            for e in report.entries
        ),
    }


def _cmd_verify(args) -> tuple[int, dict[str, str]]:
    params: dict = {}
    for item in args.param:
        if "=" not in item:
            raise UsageError(f"bad --param {item!r}; expected key=value")
        key, _, val = item.partition("=")
        params[key.strip()] = _coerce(val.strip())
    suites = experiments.SUITES
    runs = [(args.suite, params)]
    if args.suite == "all":  # each suite gets the keys it takes
        unknown = set(params).difference(*(s.keys for s in suites.values()))
        if unknown:
            raise UsageError(f"no suite takes --param {', '.join(sorted(unknown))}")
        runs = [
            (name, {k: v for k, v in params.items() if k in suites[name].keys})
            for name in sorted(suites)
        ]
    for name, p in runs:  # one value for a tuple parameter is a 1-tuple
        defaults = suites[name].defaults if name in suites else {}
        for k, v in p.items():
            if isinstance(defaults.get(k), tuple) and not isinstance(v, tuple):
                p[k] = (v,)
    results = [experiments.run_suite(name, p) for name, p in runs]
    for r in results:
        print(r.summary(), file=sys.stderr)
        for d in r.failures + r.indeterminates:
            print(f"  {d}", file=sys.stderr)
    code = EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY
    markdown, payload = experiments.traceability(results)
    rows = [
        f"{r.suite},{r.cases},{r.passes},{len(r.failures)},{len(r.indeterminates)}"
        for r in results
    ]
    return code, {
        "json": json.dumps(payload, sort_keys=True, indent=2),
        "csv": _csv("suite,cases,passes,failures,indeterminates", rows),
        "text": markdown,
    }


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write --out {out}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else argv)
        if args.format not in args.formats:
            raise UsageError(f"--format {args.format} makes no sense for {args.subcommand}")
        code, forms = args.handler(args)
        _emit(forms[args.format], args.out)
        return code
    except SystemExit as e:  # argparse --help
        return EXIT_OK if e.code in (0, None) else EXIT_DOMAIN
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as e:
        print(f"convergence error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
