"""Command-line surface: validation, classification, isomorphism testing,
form reduction, variety generation, and the one-shot verification suite."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .fields import (
    QQ,
    ExtensionDepthExceeded,
    ExtensionRequired,
    PrimeField,
    parse_descriptor,
)
from .groebner import (
    Ideal,
    format_polynomial,
    quotient_dimension,
    read_ideal_text,
    write_ideal_text,
)
from .linalg import SkewForm, skew_congruence_reduce, standard_j
from .omega import (
    _parse_scalar,
    algebra_from_json,
    algebra_to_json,
    recover_omega,
    validate,
)
from .classify3 import (
    CanonicalLabel,
    NonIsomorphic,
    NotClassifiable,
    _matrix_rows,
    c_pair_audit,
    canonical_algebra,
    classify,
    iso_witness,
    verify_classification,
)
from .variety import defining_ideal, verify_example51, verify_section3

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK_FAILED = 2
EXIT_EXTENSION = 3

DEFAULT_FIELDS = (QQ, PrimeField(101))


class UnreadableInput(Exception):
    """An input path or stdin could not be read (missing, a directory, ...)."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UnreadableInput(exc) from None


def _load_algebra(path: str):
    return algebra_from_json(_read_text(path))


def _print_matrix(m, indent="  "):
    for i in range(m.rows):
        print(indent + " ".join(x.encode() for x in m.row(i)))


def cmd_check(args) -> int:
    alg = _load_algebra(args.algebra)
    report = validate(alg)
    recovered = None
    recover_ok = False
    if report.ok:
        recovered = recover_omega(alg.sc)
        recover_ok = recovered == alg.omega
    if args.format == "machine":
        print(json.dumps({
            "valid": report.ok,
            "failures": [{"triple": list(t), "residual": [x.encode() for x in r]}
                         for t, r in report.failures],
            "form_recovered": recover_ok,
        }))
    else:
        print(f"bracket identity: {'ok' if report.ok else 'FAILED'}")
        for (t, r) in report.failures[:10]:
            print(f"  triple {t}: residual ({', '.join(x.encode() for x in r)})")
        for msg in report.messages:
            print(f"  {msg}")
        if report.ok:
            print(f"declared form recovered from the bracket: "
                  f"{'ok' if recover_ok else 'MISMATCH'}")
    return EXIT_OK if report.ok and recover_ok else EXIT_INPUT


def cmd_classify(args) -> int:
    alg = _load_algebra(args.algebra)
    res = classify(alg, allow_extension=args.allow_extension,
                   strict_c_labels=args.strict_c_labels)
    if args.format == "machine":
        print(res.to_json())
    else:
        print(f"label: {res.label}")
        print(f"field: {res.field.encode()}")
        if res.extension is not None:
            c0, c1 = res.extension
            print(f"extension minpoly: t^2 + ({c1.encode()})*t + ({c0.encode()})")
        print("witness (acts on the input to give the canonical algebra):")
        _print_matrix(res.witness.matrix)
        print("case trace:")
        if not res.trace:
            print("  already canonical")
        for tag, g in res.trace:
            print(f"  {tag}:")
            _print_matrix(g.matrix, indent="    ")
    return EXIT_OK


def cmd_iso(args) -> int:
    a1 = _load_algebra(args.algebra1)
    a2 = _load_algebra(args.algebra2)
    out = iso_witness(a1, a2, allow_extension=args.allow_extension)
    if isinstance(out, NonIsomorphic):
        if args.format == "machine":
            print(json.dumps({"isomorphic": False, "reason": out.reason,
                              "labels": [str(out.label1) if out.label1 else None,
                                         str(out.label2) if out.label2 else None]}))
        else:
            detail = out.reason
            if out.label1 is not None:
                detail += f" ({out.label1} vs {out.label2})"
            print(f"non-isomorphic: {detail}")
        return EXIT_OK
    if args.format == "machine":
        print(json.dumps({"isomorphic": True,
                          "witness": _matrix_rows(out.matrix)}))
    else:
        print("isomorphic; witness carrying the first algebra onto the second:")
        _print_matrix(out.matrix)
    return EXIT_OK


def cmd_canonical(args) -> int:
    field = parse_descriptor(args.field)
    try:
        if args.label == "C" and args.alpha is None:
            raise ValueError("the C family needs --alpha")
        alpha = None if args.alpha is None else _parse_scalar(field, args.alpha, "--alpha")
        alg = canonical_algebra(CanonicalLabel(args.label, alpha), field)
    except ValueError as exc:
        print(f"bad label: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(algebra_to_json(alg))
    return EXIT_OK


def cmd_omega_reduce(args) -> int:
    alg = _load_algebra(args.algebra)
    res = skew_congruence_reduce(alg.omega)
    if args.format == "machine":
        print(json.dumps({"rank": res.rank, "q": _matrix_rows(res.q)}))
    else:
        print(f"rank: {res.rank}")
        print("congruence matrix Q (Q^t * form * Q is the block canonical form):")
        _print_matrix(res.q)
    return EXIT_OK


def cmd_variety(args) -> int:
    if args.dim != 3:
        print("only --dim 3 is supported", file=sys.stderr)
        return EXIT_INPUT
    field = parse_descriptor(args.field)
    vi = defining_ideal(SkewForm(standard_j(field, 3, 2)))
    ideal = vi.ideal()
    gb = ideal.groebner_basis()
    dim = quotient_dimension(ideal)
    if args.format == "machine":
        print(json.dumps({
            "variables": list(vi.ring.variables),
            "field": field.encode(),
            "generators": [format_polynomial(g) for g in vi.generators],
            "groebner_basis": [format_polynomial(g) for g in gb],
            "dimension": dim,
        }))
    else:
        print(f"defining ideal ({len(vi.generators)} generators):")
        print(write_ideal_text(ideal), end="")
        print(f"reduced groebner basis ({len(gb)} elements):")
        for g in gb:
            print(format_polynomial(g))
        print(f"quotient dimension: {dim}")
    return EXIT_OK


def cmd_gb(args) -> int:
    try:
        ideal = read_ideal_text(_read_text(args.ideal))
    except ValueError as exc:
        print(f"bad ideal file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    reduced = Ideal(ideal.ring, ideal.groebner_basis())
    print(write_ideal_text(reduced), end="")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    fields = DEFAULT_FIELDS if args.field is None else (parse_descriptor(args.field),)
    sections = ("3", "4", "5") if args.section == "all" else (args.section,)
    tables = []
    for section in sections:
        if section == "3":
            tables += [verify_section3(f) for f in fields]
        elif section == "4":
            for f in fields:
                tables.append(verify_classification(f))
                tables.append(c_pair_audit(f))
        elif section == "5":
            tables += [verify_example51(f) for f in fields]
    ok = True
    for table in tables:
        print(table.render(machine=args.format == "machine"))
        if args.format != "machine":
            print()
        ok = ok and table.ok
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegalie",
        description="exact computations with omega-Lie algebras: validation,"
                    " classification, form reduction, and ideal-theoretic"
                    " verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "machine"), default="human")

    p = sub.add_parser("check", help="validate an algebra file")
    p.add_argument("algebra", help="algebra file (JSON), or - for stdin")
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="canonical family of an algebra")
    p.add_argument("algebra")
    p.add_argument("--allow-extension", action="store_true")
    p.add_argument("--strict-c-labels", action="store_true",
                   help="report the computed eigenvalue instead of the"
                        " pair representative")
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("iso", help="isomorphism test with witness")
    p.add_argument("algebra1")
    p.add_argument("algebra2")
    p.add_argument("--allow-extension", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("canonical", help="emit a canonical algebra file")
    p.add_argument("label", choices=("A", "B", "C", "D"))
    p.add_argument("--alpha", help="parameter for the C family")
    p.add_argument("--field", default="Q")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("omega-reduce",
                       help="congruence-reduce the bilinear form of an algebra")
    p.add_argument("algebra")
    add_format(p)
    p.set_defaults(func=cmd_omega_reduce)

    p = sub.add_parser("variety",
                       help="defining ideal of the 3-dimensional structures")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--field", default="Q")
    add_format(p)
    p.set_defaults(func=cmd_variety)

    p = sub.add_parser("gb", help="reduced groebner basis of an ideal file")
    p.add_argument("ideal", help="ideal file, or - for stdin")
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("verify-paper",
                       help="run the built-in verification suites")
    p.add_argument("--section", choices=("3", "4", "5", "all"), default="all")
    p.add_argument("--field", default=None,
                   help="restrict to one field (default: rationals and Fp:101)")
    add_format(p)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            status = args.func(args)
        except UnreadableInput as exc:
            print(f"cannot read input: {exc}", file=sys.stderr)
            status = EXIT_INPUT
        except ExtensionDepthExceeded as exc:
            print(f"not classifiable: {exc}; extension towers are capped at one step",
                  file=sys.stderr)
            status = EXIT_INPUT
        except ExtensionRequired as exc:
            if getattr(args, "format", "human") == "machine":
                print(json.dumps({"error": "extension_required",
                                  "minpoly": [c.encode() for c in exc.minpoly]}))
            else:
                print(f"{exc}; rerun with --allow-extension")
            status = EXIT_EXTENSION
        except NotClassifiable as exc:
            print(f"not classifiable: {exc}", file=sys.stderr)
            status = EXIT_INPUT
        except ValueError as exc:
            print(f"bad input: {exc}", file=sys.stderr)
            status = EXIT_INPUT
        # a refusal's stdout text is flushed here too, under the guard below
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: point its descriptor at the null device, so
        # the interpreter's exit flush of what is still buffered stays silent
        try:
            fd = sys.stdout.fileno()
        except OSError:  # a stream without a descriptor has no exit flush to quiet
            return EXIT_INPUT
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
