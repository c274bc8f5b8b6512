"""Command-line frontend.

Commands: analyze, generate, verify, lemma-suite, homology, octahedralize.
All file I/O is UTF-8 JSON with versioned schemas.  Exit codes: 0 success,
1 bad input or failed verification, 2 undetermined quantities under
--strict.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io_json
from .bounds import analyze
from .homology import mod2_betti, rational_betti
from .obstruction import MAX_CELLS
from .octa import octahedralize
from .suite import run_suite
from .verify import verify_certificate
from .zoo import build_named


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise io_json.MalformedInput(f"cannot read: {exc.strerror or exc}", path)
    except UnicodeDecodeError as exc:
        raise io_json.MalformedInput(f"not UTF-8 text ({exc.reason})", path)
    except json.JSONDecodeError as exc:
        raise io_json.MalformedInput(f"invalid JSON at line {exc.lineno}, column {exc.colno}", path)
    except RecursionError:
        raise io_json.MalformedInput("JSON nested too deeply", path) from None


def _write(path: str | None, payload: dict) -> None:
    text = io_json.dumps(payload)
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _span(label: str, span) -> str:
    if span is None:
        return f"{label}: not applicable"
    lo, hi = span
    if lo == hi:
        return f"{label} = {lo}"
    return f"{label} in [{lo}, {hi}] (undetermined)"


def _analyze_one(path: str, args) -> int:
    L = io_json.complex_from_json(_load_json(path))
    report = analyze(L, allow_non_flag=args.allow_non_flag, integral=args.integral, max_cells=args.max_cells)
    print(f"complex: {report.vertices} vertices, dimension {report.dim}, "
          f"{'flag' if report.flag else 'NOT flag'}")
    print(f"gd = {report.gd}")
    print(f"l2dim = {report.l2dim if report.l2dim is not None else 'undefined (all reduced Betti numbers vanish)'}")
    print(_span("vkdim(OL)", report.vkdim))
    print(_span("embdim(OL)", report.embdim))
    print(_span("actdim(A_L)", report.actdim))
    if report.conjecture_status:
        print(f"dimension conjecture: {report.conjecture_status}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    data = io_json.report_to_json(report) if args.out else {}
    if args.out:
        _write(args.out, data)
    if args.certificate and report.certificate is not None:
        # The report already holds the certificate's encoding; reuse it.
        _write(args.certificate, data.get("certificate") or io_json.certificate_to_json(report.certificate))
    elif args.certificate:
        print("note: no nonvanishing certificate to write", file=sys.stderr)
    if args.strict and not report.determined:
        return 2
    return 0


def cmd_analyze(args) -> int:
    # Checked here, not by argparse, whose exit code 2 means --strict.
    if args.max_cells < 0:
        print(f"error: --max-cells must be nonnegative, got {args.max_cells}", file=sys.stderr)
        return 1
    # Batch mode: inputs are independent; the exit code is the worst one.
    if len(args.inputs) > 1 and (args.out or args.certificate):
        print("error: --out and --certificate need a single input", file=sys.stderr)
        return 1
    worst = 0
    for i, path in enumerate(args.inputs):
        if i:
            print()
        if len(args.inputs) > 1:
            print(f"== {path}")
        try:
            code = _analyze_one(path, args)
        except ValueError as exc:  # io_json.MalformedInput included
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        worst = max(worst, code)
    return worst


def cmd_generate(args) -> int:
    params = list(args.params)
    ignored = params + ([f"--seed {args.seed}"] if args.seed is not None else [])
    if "(" in args.name and ignored:
        print(f"error: {args.name!r} is an expression, so '{' '.join(ignored)}' would be ignored; "
              "put every parameter inside it", file=sys.stderr)
        return 1
    # Seeded generators take the seed as their final parameter.
    if (args.name, len(params)) in (("tree", 1), ("random_flag", 2)):
        params.append(str(args.seed or 0))
    elif args.seed is not None:
        print(f"error: '--seed {args.seed}' would be ignored: only 'tree N' and 'random_flag N P' take it",
              file=sys.stderr)
        return 1
    expr = args.name if not params else f"{args.name}({','.join(params)})"
    try:
        K = build_named(expr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(args.out, io_json.complex_to_json(K))
    return 0


def cmd_verify(args) -> int:
    cert = io_json.certificate_from_json(_load_json(args.certificate))
    L = io_json.complex_from_json(_load_json(args.complex))
    outcome = verify_certificate(L, cert)
    for check in outcome.checks_run[:-1]:
        print(f"PASS {check}")
    last = outcome.checks_run[-1]
    if outcome.ok:
        print(f"PASS {last}")
        print("certificate verified")
        return 0
    print(f"FAIL {last}: {outcome.detail}")
    return 1


def cmd_lemma_suite(args) -> int:
    if args.count < 0:
        print(f"error: --count must be nonnegative, got {args.count}", file=sys.stderr)
        return 1
    result = run_suite(args.seed, args.count)
    print(f"complexes: {result.complexes}  checks: {result.checks}  "
          f"failures: {len(result.failures)}")
    if result.failures:
        for f in result.failures:
            print(f"FAIL {f.check}: {f.detail}")
            print(f"  minimized complex (maximal faces): {list(f.complex_maximal)}")
        return 1
    if result.complexes < args.count:
        print(f"warning: only {result.complexes} of {args.count} samples generated", file=sys.stderr)
    print("all identities hold")
    return 0


def cmd_homology(args) -> int:
    L = io_json.complex_from_json(_load_json(args.input))
    betti2 = mod2_betti(L)
    bettiq = rational_betti(L)
    print(f"reduced mod-2 Betti numbers: {list(betti2)}")
    print(f"reduced rational Betti numbers: {list(bettiq)}")
    if args.out:
        _write(args.out, {
            "schema": "homology/1",
            "mod2_reduced_betti": list(betti2),
            "rational_reduced_betti": list(bettiq),
        })
    return 0


def cmd_octahedralize(args) -> int:
    L = io_json.complex_from_json(_load_json(args.input))
    octa = octahedralize(L)
    _write(args.out, io_json.complex_to_json(octa.complex))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="raagdim",
                                     description="dimension bounds for right-angled Artin groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full dimension report for one or more complexes")
    p.add_argument("inputs", nargs="+", metavar="input")
    p.add_argument("--out", help="write the report JSON here (single input only)")
    p.add_argument("--certificate", help="write the nonvanishing certificate JSON here")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when any quantity is undetermined")
    p.add_argument("--allow-non-flag", action="store_true")
    p.add_argument("--integral", action="store_true",
                   help="also solve for the top primitive over Z: on L, pulled back "
                        "to the configuration space, else by the full integer solve")
    p.add_argument("--max-cells", type=int, default=MAX_CELLS)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("generate", help="emit a zoo complex as JSON")
    p.add_argument("name", help="generator, e.g. cycle or join(points(2),points(2))")
    p.add_argument("params", nargs="*", help="positional parameters, e.g. 4")
    p.add_argument("--seed", type=int, help="seed of tree and random_flag given by name (default 0)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="re-check a stored certificate from scratch")
    p.add_argument("certificate")
    p.add_argument("complex")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("lemma-suite", help="randomized identity checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.set_defaults(fn=cmd_lemma_suite)

    p = sub.add_parser("homology", help="reduced Betti numbers")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("octahedralize", help="emit the doubled complex as JSON")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_octahedralize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # io_json.MalformedInput included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
