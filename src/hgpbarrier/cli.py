"""Command line front end.

Subcommands parse parity-check matrices (alist or dense 0/1 text), build
product codes, run exact barrier searches, list canonical logical operators,
and stream claim-checker reports. Output is JSON by default with sorted keys
and no timestamps, so identical inputs, flags, and seed give byte-identical
bytes; the text format is for reading, not for scripting against.

Exit codes: 0 success or all claims pass, 1 at least one claim failed,
2 usage or input error, 3 state cap exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .barrier import classical_barrier, quantum_barrier, sector_table
from .codes import DEFAULT_STATE_CAP, ClassicalCode, emit_dense, parse_auto
from .errors import CapExceeded, HgpBarrierError, NoLogicals, ParseError
from .hgp import HgpCode, build_hgp, css_check, hgp_parameters
from .logicals import canonical_x_basis, canonical_z_basis
from .verify import CLAIMS, _json_value, run_all, run_claim, summarize

EXIT_OK = 0
EXIT_CLAIM_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# no table of more than 2^64 states can be addressed; checked before any
# 1 << max_dim is computed
MAX_DIM = 64


def _emit_error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}, sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        self.exit(EXIT_USAGE)


def _load_code(path: str) -> ClassicalCode:
    """The code in the file at ``path``, in the format its line count
    decides (``parse_auto``). The file is read on every call; its text is
    parsed once per process, so an edited file is parsed again."""
    try:
        with open(path) as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot decode {path}: {e.reason} at byte {e.start}") from e
    return _parse(text)


@functools.lru_cache(maxsize=256)
def _parse(text: str) -> ClassicalCode:
    # parse_auto is read at call time, so a wrapper put in its place (as
    # ``perfbench --trace`` does) sees every parse; an error is not cached
    return parse_auto(text)


def _load_product(paths) -> HgpCode:
    """The product of the two codes in ``paths``, loaded in order."""
    return build_hgp(*(_load_code(path) for path in paths))


def _text_lines(obj, indent: str = "") -> list[str]:
    """A dict or list as indented lines: "key: value" per dict entry, "- value"
    per list item, a nested dict or list under its bare label."""
    lines = []
    if isinstance(obj, dict):
        labelled = ((f"{key}:", val) for key, val in obj.items())
    else:
        labelled = (("-", val) for val in obj)
    for label, val in labelled:
        if isinstance(val, (dict, list)):
            lines.append(indent + label)
            lines.extend(_text_lines(val, indent + "  "))
        else:
            lines.append(f"{indent}{label} {val}")
    return lines


def _print_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print("\n".join(_text_lines(report)))


def _print_result(report: dict, result, fmt: str) -> None:
    """Print ``report`` with the value, explored count and witness of a
    search result appended, in that order."""
    w = result.witness
    report["value"] = result.value
    report["explored"] = result.explored
    report["witness"] = {
        "max_energy": w.max_energy,
        "steps": w.steps(),
        "endpoint_support": list(w.states[-1].support()),
        "path": w.steps_json(),
    }
    _print_report(report, fmt)


def cmd_info(args) -> int:
    c = _load_code(args.path)
    p = c.parameters(args.cap)
    report = {
        "n": c.n,
        "r": c.r,
        "k": p.k,
        "d": _json_value(p.d),
        "w_c": c.w_c,
        "w_q": c.w_q,
    }
    _print_report(report, args.format)
    return EXIT_OK


def cmd_hgp(args) -> int:
    code = _load_product((args.path1, args.path2))
    # HX and HZ hold r1 n2 + n1 r2 rows of n entries, all written out
    entries = (code.r1 * code.n2 + code.n1 * code.r2) * code.n_qubits
    if entries > args.cap:
        raise CapExceeded(f"{entries} entries of HX and HZ exceed cap {args.cap}")
    try:
        p = hgp_parameters(code, args.cap)
        k, d = p.k, p.d
    except NoLogicals:
        k, d = 0, math.inf
    params = {
        "n": code.n_qubits,
        "k": k,
        "d": _json_value(d),
        "w_c": code.w_c,
        "w_q": code.w_q,
        "css": css_check(code),
    }
    files = {
        "hx": f"{args.out}_hx.txt",
        "hz": f"{args.out}_hz.txt",
        "params": f"{args.out}_params.json",
    }
    hx, hz = (emit_dense(ClassicalCode(m)) for m in (code.hx, code.hz))
    for path, text in zip(files.values(), (hx, hz, json.dumps(params, sort_keys=True) + "\n")):
        with open(path, "w") as f:
            f.write(text)
    _print_report({"params": params, "files": files}, args.format)
    return EXIT_OK


def cmd_barrier(args) -> int:
    if args.kind == "classical":
        if len(args.paths) != 1:
            _emit_error("usage", "barrier classical takes exactly one matrix file")
            return EXIT_USAGE
        if args.sector != "both":
            _emit_error("usage", f"barrier classical has no {args.sector} sector")
            return EXIT_USAGE
        c = _load_code(args.paths[0])
        _print_result({"kind": "classical"}, classical_barrier(c, args.cap), args.format)
        return EXIT_OK
    if len(args.paths) != 2:
        _emit_error("usage", f"barrier {args.kind} takes exactly two matrix files")
        return EXIT_USAGE
    code = _load_product(args.paths)
    if args.kind == "quantum":
        result = quantum_barrier(code, args.sector, args.cap)
        _print_result({"kind": "quantum", "sector": args.sector}, result, args.format)
        return EXIT_OK
    # canonical: cheapest canonical operator per requested sector
    report = {"kind": "canonical", "sector": args.sector}
    kinds = _requested_bases(args.sector)
    for kind, basis in kinds:
        table = sector_table(code, kind, args.cap)
        report[kind] = min(table.value(op.realized.part(kind).bits) for op in basis(code))
    report["value"] = min(report[kind] for kind, _ in kinds)
    _print_report(report, args.format)
    return EXIT_OK


def _requested_bases(sector: str):
    """(kind, canonical basis function) for each kind ``sector`` asks for,
    Z first. The module names are read at call time, so a wrapper put in
    their place (as ``perfbench --trace`` does) sees every call."""
    bases = (("z", canonical_z_basis), ("x", canonical_x_basis))
    return [(kind, basis) for kind, basis in bases if sector in (kind, "both")]


def cmd_logicals(args) -> int:
    code = _load_product((args.path1, args.path2))
    # at most 2k operators, each printed with its support on n qubits
    if code.k * code.n_qubits > args.cap:
        raise CapExceeded(f"{code.k} operators on {code.n_qubits} qubits exceed cap {args.cap}")
    records = [_op_record(op) for _, basis in _requested_bases(args.sector) for op in basis(code)]
    _print_report({"count": len(records), "operators": records}, args.format)
    return EXIT_OK


def _op_record(op) -> dict:
    return {
        "type": op.kind.upper(),
        "lambda": op.lam.to01_rows(),
        "kappa": op.kappa.to01_rows(),
        "support": list(op.realized.support()),
        "weight": op.realized.weight(),
    }


def cmd_verify(args) -> int:
    if args.paths and args.claim == "all":
        _emit_error("usage", "verify all runs on built-in instances only")
        return EXIT_USAGE
    if args.paths and len(args.paths) != 2:
        _emit_error("usage", "verify takes zero or two matrix files")
        return EXIT_USAGE
    if args.claim == "all":
        reports, _ = run_all(seed=args.seed, cap=args.cap)
    else:
        pair = tuple(_load_code(p) for p in args.paths) or None
        reports = run_claim(
            args.claim, seed=args.seed, cap=args.cap, pair=pair, instance=" x ".join(args.paths)
        )
    summary = summarize(reports)
    if args.format == "json":
        for r in reports:
            print(json.dumps(r.to_json_dict(), sort_keys=True))
        print(json.dumps({"summary": summary}, sort_keys=True))
    else:
        for r in reports:
            print(f"{r.claim} {r.instance}: {r.status} (checked {r.checked})")
        print(
            f"claims {summary['claims']} passes {summary['passes']} "
            f"fails {summary['fails']}"
        )
    return EXIT_OK if summary["fails"] == 0 else EXIT_CLAIM_FAIL


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every later
    ``main`` call; ``parse_args`` leaves it unchanged. Its ``commands`` maps
    each subcommand name to that subcommand's parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    common.add_argument(
        "--max-dim",
        type=int,
        default=DEFAULT_STATE_CAP.bit_length() - 1,
        dest="max_dim",
        help="log2 of the search state cap",
    )
    common.add_argument("--seed", type=int, default=0, help="PRNG seed")

    parser = _Parser(prog="hgpbarrier", description="Command line front end.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=[common], help="classical code parameters")
    p.add_argument("path")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser(
        "hgp", parents=[common], help="build a product code and write its matrices"
    )
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--out", required=True, help="output file prefix")
    p.set_defaults(func=cmd_hgp)

    p = sub.add_parser("barrier", parents=[common], help="exact energy barrier")
    p.add_argument("kind", choices=("classical", "quantum", "canonical"))
    p.add_argument("paths", nargs="+")
    p.add_argument("--sector", choices=("z", "x", "both"), default="both")
    p.set_defaults(func=cmd_barrier)

    p = sub.add_parser(
        "logicals", parents=[common], help="canonical logical operators"
    )
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--sector", choices=("z", "x", "both"), default="both")
    p.set_defaults(func=cmd_logicals)

    p = sub.add_parser("verify", parents=[common], help="run claim checkers")
    p.add_argument("claim", choices=CLAIMS + ("all",))
    p.add_argument("paths", nargs="*")
    p.set_defaults(func=cmd_verify)

    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # the top-level parser hands every token after a command name to that
    # command's parser, so going there directly is one pass with the same result
    command = argv[0] if argv and isinstance(argv[0], str) else None
    if command in parser.commands:
        args = parser.commands[command].parse_args(argv[1:])
        args.command = command
    else:
        args = parser.parse_args(argv)
    if args.max_dim < 1:
        _emit_error("usage", "--max-dim must be positive")
        return EXIT_USAGE
    if args.max_dim > MAX_DIM:
        _emit_error("cap-exceeded", f"--max-dim {args.max_dim} exceeds {MAX_DIM}")
        return EXIT_CAP
    args.cap = 1 << args.max_dim
    try:
        return args.func(args)
    except CapExceeded as e:
        _emit_error("cap-exceeded", str(e))
        return EXIT_CAP
    except MemoryError:
        _emit_error("memory", "out of memory")
        return EXIT_CAP
    except ParseError as e:
        _emit_error("parse", str(e))
        return EXIT_USAGE
    except OSError as e:
        _emit_error("io", str(e))
        return EXIT_USAGE
    except HgpBarrierError as e:
        _emit_error(type(e).__name__.lower(), str(e))
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
