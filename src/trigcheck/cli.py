"""Command-line front end for the toolkit.

Exit codes: 0 success, 1 usage error, 2 precondition or range failure,
3 a runtime bound or invariant check failed (the verification signal).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtrig, floatrepro, oracle, verify
from .errors import IterationCapExceeded, VerificationFailure
from .exact import DECIMALS, parse_rational, rat_str, to_decimal
from .fixpoint import FixFormat

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 in this tool, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _argument_type(parse):
    """Wrap a parser so that its ValueError becomes argparse's usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_rational = _argument_type(parse_rational)
_format = _argument_type(FixFormat.parse)


class _ConfigFile(argparse.Action):
    # each key=value line becomes one --key=value token, so -1/2 is not a
    # flag; key=true becomes a bare --key, which sets a store_true flag
    def __call__(self, parser, namespace, path, option_string=None) -> None:
        tokens = []
        try:
            with open(path, encoding="utf-8") as handle:
                for line in map(str.strip, handle):
                    if line and not line.startswith("#"):
                        key, _, value = (part.strip() for part in line.partition("="))
                        tokens.append(f"--{key}" if value == "true" else f"--{key}={value}")
        except (OSError, UnicodeDecodeError) as exc:
            parser.exit(EXIT_USAGE, f"trigcheck: cannot read config: {exc}\n")
        setattr(namespace, self.dest, tokens)


class _Subcommands(argparse._SubParsersAction):
    # the config tokens go right after the subcommand name, so explicit flags win
    def __call__(self, parser, namespace, values, option_string=None) -> None:
        values = [values[0], *namespace.config, *values[1:]]
        super().__call__(parser, namespace, values, option_string)


class _AtLeastOne(argparse.Action):
    # runs after type=int has parsed the value, so a non-integer keeps
    # argparse's own "invalid int value" message
    def __call__(self, parser, namespace, value, option_string=None) -> None:
        if value < 1:
            raise argparse.ArgumentError(self, f"must be at least 1, got {value}")
        setattr(namespace, self.dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trigcheck",
                     description="Exact and fix-point trig computations "
                                 "with runtime-checked error bounds.")
    parser.add_argument("--config", metavar="FILE", action=_ConfigFile, default=(),
                        help="flat key=value file supplying subcommand defaults")
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)

    p = sub.add_parser("pi", help="approximate pi by the alternating series")
    p.set_defaults(run=_run_oracle)
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--json", action="store_true")

    for trig in ("cos", "sin"):
        p = sub.add_parser(trig, help=f"exact-arithmetic {trig}")
        p.set_defaults(run=_run_oracle)
        p.add_argument("--x", type=_rational, required=True)
        p.add_argument("--eps", type=_rational, required=True)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--unbounded", action="store_true",
                          help="plain truncated series, any argument size")
        mode.add_argument("--zerone", action="store_true",
                          help="range-restricted variant for |x| <= 1")
        p.add_argument("--json", action="store_true")

    for trig in ("fixcos", "fixsin"):
        p = sub.add_parser(trig, help=f"fix-point {trig[3:]} with checked bounds")
        p.set_defaults(run=_run_fixpoint)
        p.add_argument("--format", type=_format, required=True,
                       metavar="1/k:[inf,sup]")
        p.add_argument("--x", type=_rational, required=True)
        p.add_argument("--eps", type=_rational, required=True)
        p.add_argument("--trace", metavar="OUT",
                       help="write the paired trace (.csv, or .json for the mirror)")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("repro-table1", help="binary32 cosine scan")
    p.set_defaults(run=_run_scan)
    p.add_argument("--min", type=floatrepro.f32, default="0")
    p.add_argument("--max", type=floatrepro.f32, default="30")
    p.add_argument("--step", type=floatrepro.f32, default="0.05")
    p.add_argument("--eps", type=floatrepro.f32, default="1e-6")
    p.add_argument("--cap", type=int, action=_AtLeastOne, default=None,
                   help=f"iteration cap (default {floatrepro.DEFAULT_ITERATION_CAP}, "
                        f"env {floatrepro.ITERATION_CAP_ENV} overrides)")
    p.add_argument("--csv", metavar="OUT", help="also write rows as CSV")

    p = sub.add_parser("golden", help="decimal golden value from the exact series")
    p.set_defaults(run=_run_golden)
    p.add_argument("--x", type=_rational, required=True)
    p.add_argument("--eps", type=_rational, required=True)
    p.add_argument("--digits", type=int, required=True)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.set_defaults(run=_run_verify)
    p.add_argument("--suite", choices=sorted(verify.SUITES), required=True)
    p.add_argument("--samples", type=int, action=_AtLeastOne, default=None)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key} = {value}")


def _run_oracle(args) -> int:
    cos = args.command == "cos"
    if args.command == "pi":
        payload = oracle.pi_leibniz(args.eps).as_dict()
    elif args.unbounded:
        fn = oracle.cos_unbounded if cos else oracle.sin_unbounded
        value = fn(args.x, args.eps)
        payload = {"value": rat_str(value), "decimal": to_decimal(value, DECIMALS)}
    elif args.zerone:
        fn = oracle.cos_zerone if cos else oracle.sin_zerone
        payload = fn(args.x, args.eps).as_dict()
    else:
        fn = oracle.cos_taylor if cos else oracle.sin_taylor
        payload = fn(args.x, args.eps).as_dict()
    _emit(payload, args.json)
    return EXIT_OK


def _write(path: str, text: str) -> None:
    """Write an output file in UTF-8, with no newline translation on any platform."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _run_fixpoint(args) -> int:
    fmt: FixFormat = args.format
    x = fmt.exact(args.x)
    eps = fmt.exact(args.eps)
    trace = (fixtrig.paired_trace_cos if args.command == "fixcos"
             else fixtrig.paired_trace_sin)(x, eps)
    if args.trace is not None:
        text = (json.dumps(fixtrig.trace_to_json_obj(trace.records), sort_keys=True, indent=2)
                if args.trace.endswith(".json") else fixtrig.trace_to_csv(trace.records))
        _write(args.trace, text)
    _emit(trace.result.as_dict(), args.json)
    if args.trace is not None and not args.json:
        print(f"trace = {len(trace.records)} records -> {args.trace}")
    return EXIT_OK


def _run_scan(args) -> int:
    rows = floatrepro.scan_table(args.min, args.max, args.step, args.eps, cap=args.cap)
    if args.csv is not None:
        _write(args.csv, "x,value\n" + "".join(f"{x:e},{value:e}\n" for x, value in rows))
    print("\n".join(f"{x:e}  {value:e}" for x, value in rows))
    return EXIT_OK


def _run_golden(args) -> int:
    print(to_decimal(oracle.cos_unbounded(args.x, args.eps), args.digits))
    return EXIT_OK


def _run_verify(args) -> int:
    suite_fn = verify.SUITES[args.suite]
    kwargs = {"seed": args.seed}
    if args.samples is not None:
        kwargs["samples"] = args.samples
    report = suite_fn(**kwargs)
    print(report.summary())
    for label in report.failures[:50]:
        print(f"  FAIL {label}")
    return EXIT_OK if report.ok() else EXIT_VERIFICATION


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except VerificationFailure as exc:
        print(f"trigcheck: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ArithmeticError, ValueError, IterationCapExceeded) as exc:
        print(f"trigcheck: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:
        # the consumer closed the pipe (e.g. | head); exit quietly, with stdout on
        # devnull, as the flush at interpreter exit can raise this error again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        # an output file that cannot be written (BrokenPipeError, a subclass, is above)
        print(f"trigcheck: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
