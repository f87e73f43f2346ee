"""Command-line front end.

Commands: validate, classify, m, mplus, embed, report, approx, gen.
JSON on stdout is the canonical output; human-oriented extras go to stderr.
Exit codes: 0 success, 1 usage, 2-9 input validation, 10+ computation.

Tolerances can be overridden per run with repeated ``--tol key=value`` flags
or ``QHM_TOL_<KEY>`` environment variables (flags win); every report echoes
the record actually used.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

from . import __version__
from .classify import classify_space
from .embedding import embedding_to_json, full_embedding
from .errors import QhmError
from .io import dump, guess_format, load
from .mconstant import compute_m, compute_m_plus
from .report import build_report, classification_to_json, m_report_to_json
from .spaces import CompactSpaceDescriptor, approx_m, make_fixture
from .tolerances import Tolerances


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # validation failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(doc, out_path=None):
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _tolerances(args) -> Tolerances:
    return Tolerances.from_overrides(args.tol or ())


def cmd_validate(args) -> int:
    space = load(args.path, fmt=args.format, tol=_tolerances(args))
    print(f"OK: valid metric space with {space.n} points, diameter {space.diameter:g}")
    return 0


def cmd_classify(args) -> int:
    t = _tolerances(args)
    space = load(args.path, fmt=args.format, tol=t)
    doc = classification_to_json(classify_space(space, hyper_bound=args.hyper_bound, tol=t))
    doc["tolerances"] = t.to_dict()
    _emit(doc, args.out)
    return 0


def cmd_m(args) -> int:
    t = _tolerances(args)
    space = load(args.path, fmt=args.format, tol=t)
    _emit(m_report_to_json(compute_m(space, tol=t)), args.out)
    return 0


def cmd_mplus(args) -> int:
    t = _tolerances(args)
    space = load(args.path, fmt=args.format, tol=t)
    _emit({"m_plus": compute_m_plus(space, tol=t)}, args.out)
    return 0


def cmd_embed(args) -> int:
    t = _tolerances(args)
    space = load(args.path, fmt=args.format, tol=t)
    _emit(embedding_to_json(full_embedding(space, tol=t)), args.out)
    return 0


def cmd_report(args) -> int:
    t = _tolerances(args)

    docs = []
    for path in args.paths:
        space = load(path, fmt=args.format, tol=t)
        docs.append(build_report(space, hyper_bound=args.hyper_bound, tol=t))
        docs[-1]["input_path"] = str(path)
    _emit(docs[0] if len(docs) == 1 else docs, args.out)
    return 0


def cmd_approx(args) -> int:
    t = _tolerances(args)
    try:
        desc_doc = json.loads(args.descriptor)
    except json.JSONDecodeError as exc:
        print(f"error: descriptor is not valid JSON: {exc}", file=sys.stderr)
        return 1
    desc = CompactSpaceDescriptor.from_json(desc_doc)
    trace = approx_m(desc, max_n=args.max_n, seed=args.seed, tol=t)
    print(f"{'n':>6} {'M':>20}", file=sys.stderr)
    for n, v in zip(trace.sizes, trace.m_values):
        print(f"{n:>6} {('inf' if math.isinf(v) else format(v, '.12g')):>20}", file=sys.stderr)
    doc = trace.to_json()
    doc["tolerances"] = t.to_dict()
    _emit(doc, args.out)
    return 0


def cmd_gen(args) -> int:
    space = make_fixture(args.name)
    fmt = args.format or (guess_format(args.out) if args.out else "csv")
    if args.out:
        dump(space, args.out, fmt=fmt)
    else:
        dump(space, sys.stdout, fmt=fmt)
    return 0


def _add_common(p, with_format=True, with_out=True):
    p.add_argument("--tol", action="append", metavar="KEY=VALUE", help="tolerance override")
    if with_out:
        p.add_argument("--out", help="write output to this file instead of stdout")
    if with_format:
        p.add_argument("--format", choices=("csv", "json"), help="input format (default: by extension)")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = _Parser(prog="qhm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qhm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check a distance matrix against the metric axioms")
    p.add_argument("path")
    _add_common(p, with_out=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="metric-property verdicts with witnesses")
    p.add_argument("path")
    p.add_argument("--hyper-bound", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("m", help="the energy constant M and its maximal measure")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_m)

    p = sub.add_parser("mplus", help="M+ over probability measures")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_mplus)

    p = sub.add_parser("embed", help="Schoenberg embedding with sphere diagnostics")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("report", help="full report for one or more inputs")
    p.add_argument("paths", nargs="+")
    p.add_argument("--hyper-bound", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("approx", help="approximate M of a built-in compact space")
    p.add_argument("descriptor", help='e.g. {"kind":"circle","circumference":8}')
    p.add_argument("--max-n", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, with_format=False)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("gen", help="emit a named fixture space")
    p.add_argument("name", help="assouad5 | equilateral3_6 | cycle4_arclength | star_1_2 | twopoint(t) | discrete(n,t)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QhmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the input is too large for this machine", file=sys.stderr)
        return QhmError.exit_code
    except Exception as exc:  # a defect: one line and exit 10, never a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return QhmError.exit_code


if __name__ == "__main__":
    sys.exit(main())
