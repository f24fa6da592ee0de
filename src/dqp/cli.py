"""Command-line front end.

Subcommands: `invariants` (the full table set for one parameter
triple), `lecycles` (intersection-theory recomputation of each Lê
number), `chow` (raw bidegree intersection numbers), `closure`
(monomial integral-closure membership and reduction tests), `count`
(finite-field point counts), `verify` (the cross-route suites).

Exit codes: 0 when the command and every attached check passed, 1 when
an internal cross-check failed, 2 for invalid input or an --out that
cannot be written, 3 when a computation refuses its size budget.
Reports go to stdout (or --out), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from collections import Counter

from . import chow, core, ffcount, integral_closure, le_engine, verify
from .errors import BudgetError, CheckError, ValidationError, require_within, shown
from .report import DEFAULT_PMAX, SCOPES, Check, Report, dimension_table

__all__ = ["main", "build_parser"]


def _int_text(name: str, text: str) -> int:
    """text read as an int; a refusal names `name` and shows text through `shown`."""
    try:
        return int(text)
    except ValueError:  # not an integer, or past the int string-conversion limit
        limit = sys.get_int_max_str_digits()
        if len(text) > limit > 0:
            message = f"{name} has too many digits (more than {limit})"
        else:
            message = f"{name} must be an integer (got {shown(text)})"
        raise ValidationError(message) from None


def _int(text: str) -> int:
    """Type of every int flag: argparse would print a failed text whole."""
    try:
        return _int_text("value", text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_invariants(args: argparse.Namespace) -> Report:
    params = core.validate_params(args.n, args.q, args.p)
    results = {
        "params": {
            "n": params.n,
            "q": params.q,
            "p": params.p,
            "k": params.k,
            "q1": params.q1,
        },
        "sphere_dimension": core.milnor_sphere_dimension(params),
        "reduced_euler_characteristic": core.reduced_euler_characteristic(params),
        "le_numbers": dimension_table(core.le_numbers(params)),
        "fixed_cycles": [
            {"name": name, "dimension": params.q - codim, "multiplicity": multiplicity}
            for name, codim, multiplicity in core.FIXED_LE_CYCLES
        ],
        "polar_multiplicities_sigma1": dimension_table(
            core.polar_multiplicities_sigma1(params.p)
        ),
        "euler_obstruction_sigma1": core.euler_obstruction_sigma1(params.p),
    }
    if params.p == 1:
        results["euler_obstruction_note"] = (
            "the hypersurface Euler obstruction needs p > 1; for p = 1 the "
            "degenerate-matrix locus is the whole singular locus"
        )
    else:
        results["euler_obstruction_hypersurface"] = (
            core.euler_obstruction_hypersurface(params)
        )
    massey = core.verify_massey_identity(params)
    checks = [
        Check.of(
            "massey-alternating-sum",
            massey,
            "signed Lê sum equals the reduced Euler characteristic",
        )
    ]
    return Report(
        command="invariants",
        inputs={"n": args.n, "q": args.q, "p": args.p},
        results=results,
        checks=checks,
    )


def cmd_lecycles(args: argparse.Namespace) -> Report:
    p = args.p
    if args.i is not None:
        indices = [args.i]
    else:
        le_engine.require_le_systems(p, p)
        indices = list(range(1, p + 1))
    params = core.minimal_params(p)
    closed = core.le_numbers(params)
    polar = core.polar_multiplicities_sigma1(p)
    rows = []
    engine_bad: list[int] = []
    fulton_bad: list[int] = []
    fulton_checked: list[int] = []
    fulton_skipped: list[int] = []
    for i in indices:
        system = le_engine.build_le_system(p, i)
        mult_chow = chow.intersection_number_ring(system)
        # The Lê cycle carries multiplicity 2 (le_engine.le_number_via_chow).
        le_chow = 2 * mult_chow
        dimension = params.q - i
        if le_chow != closed[dimension] or mult_chow != polar[dimension]:
            engine_bad.append(i)
        class_counts = Counter(system.classes)
        try:  # the subset sum refuses before walking a subset: then skip it
            if chow.intersection_number_fulton(system) != mult_chow:
                fulton_bad.append(i)
            fulton_checked.append(i)
        except BudgetError:
            fulton_skipped.append(i)
        rows.append(
            {
                "i": i,
                "dimension": dimension,
                "ambient": [system.ambient_n, system.ambient_m],
                "classes": [
                    [a, b, count] for (a, b), count in sorted(class_counts.items())
                ],
                "le_number_chow": le_chow,
                "le_number_closed_form": closed[dimension],
                "multiplicity_chow": mult_chow,
                "multiplicity_closed_form": polar[dimension],
            }
        )
    checks = [
        Check.of(
            "engine-vs-closed-form",
            not engine_bad,
            f"i = {', '.join(map(str, indices))}",
            f"disagreeing i: {engine_bad}",
        )
    ]
    detail = f"cross-checked i = {', '.join(map(str, fulton_checked)) or 'none'}"
    if fulton_skipped:
        detail += (
            f"; skipped i = {', '.join(map(str, fulton_skipped))} "
            f"(class count exceeds subset budget {chow.FULTON_SUBSET_LIMIT})"
        )
    checks.append(
        Check.of(
            "ring-vs-subset-sum",
            not fulton_bad,
            detail,
            f"disagreeing i: {fulton_bad}",
        )
    )
    return Report(
        command="lecycles",
        inputs={"p": p, "i": args.i},
        results={"systems": rows},
        checks=checks,
    )


def _parse_classes(text: str) -> tuple[tuple[int, int], ...]:
    classes = []
    for piece in text.replace(" ", "").split(";"):
        if not piece:
            continue
        parts = piece.split(",")
        if len(parts) != 2:
            raise ValidationError(
                f"each class must be 'a,b' with classes separated by ';' "
                f"(got {shown(piece)})"
            )
        classes.append(tuple(_int_text("a bidegree entry", part) for part in parts))
    if not classes:
        raise ValidationError("at least one bidegree class is required")
    return tuple(classes)


def cmd_chow(args: argparse.Namespace) -> Report:
    system = chow.BidegreeSystem(
        ambient_n=args.n, ambient_m=args.m, classes=_parse_classes(args.classes)
    )
    # Every coefficient is at most prod(a + b) < 2^bits: refuse, before any
    # route, what could pass the int-to-string digit limit (0: none).
    bits = sum((a + b).bit_length() for a, b in system.classes)
    digits, limit = math.ceil(bits * math.log10(2)), sys.get_int_max_str_digits()
    if limit:
        require_within("the intersection number (digits)", digits, limit)
    results: dict = {
        "ambient": [args.n, args.m],
        "classes": [[a, b] for a, b in system.classes],
    }
    checks: list[Check] = []
    if args.algorithm in ("ring", "both"):
        results["ring"] = chow.intersection_number_ring(system)
    if args.algorithm in ("fulton", "both"):
        results["fulton"] = chow.intersection_number_fulton(system)
    if args.algorithm == "both":
        checks.append(
            Check.of(
                "ring-vs-subset-sum",
                results["ring"] == results["fulton"],
                "both algorithms agree",
                f"ring {results['ring']} != subset-sum {results['fulton']}",
            )
        )
        results["intersection_number"] = results["ring"]
    else:
        results["intersection_number"] = results[args.algorithm]
    return Report(
        command="chow",
        inputs={
            "n": args.n,
            "m": args.m,
            "classes": args.classes,
            "algorithm": args.algorithm,
        },
        results=results,
        checks=checks,
    )


_VARIABLE_TOKEN = re.compile(r"([xy])(\d+)(?:\^(\d+))?")


def _parse_monomial_text(text: str, prefixes: set[str]) -> dict[int, int]:
    compact = re.sub(r"\s+", "", text)
    exponents: dict[int, int] = {}
    pos = 0
    while pos < len(compact):
        if compact[pos] == "*":
            pos += 1
            continue
        match = _VARIABLE_TOKEN.match(compact, pos)
        if match is None:
            raise ValidationError(
                f"cannot parse monomial {shown(text)} near {shown(compact[pos:])}; "
                f"expected variables like y1, y2^3 separated by optional '*'"
            )
        letter, index_text, power_text = match.groups()
        prefixes.add(letter)
        try:
            index, power = int(index_text), int(power_text or 1)
            power += exponents.get(index - 1, 0)
            str(power)  # a repeated variable's sum may pass the limit its parts met
        except ValueError:  # past the interpreter's int string-conversion limit
            raise ValidationError(f"{shown(text)} has too many digits") from None
        if index < 1:
            raise ValidationError(f"variable indices start at 1 (got {letter}{index})")
        exponents[index - 1] = power
        pos = match.end()
    if not exponents:  # no variable read, only whitespace or '*'
        raise ValidationError("empty monomial")
    return exponents


def _parse_ideal_text(text: str, prefixes: set[str]) -> list[dict[int, int]]:
    pieces = [piece for piece in text.split(",") if piece.strip()]
    if not pieces:
        raise ValidationError("an ideal needs at least one generator")
    return [_parse_monomial_text(piece, prefixes) for piece in pieces]


def _build_monomial(exponents: dict[int, int], support: list[int]) -> tuple[int, ...]:
    return tuple(exponents.get(i, 0) for i in support)


def _monomial_string(pairs, prefix: str) -> str:
    """Render (variable index, exponent) pairs, indices from 0."""
    pieces = []
    for i, e in pairs:
        if e == 1:
            pieces.append(f"{prefix}{i + 1}")
        elif e > 1:
            pieces.append(f"{prefix}{i + 1}^{e}")
    return "*".join(pieces) if pieces else "1"


def cmd_closure(args: argparse.Namespace) -> Report:
    prefixes: set[str] = set()
    ideal_exponents = _parse_ideal_text(args.ideal, prefixes)
    monomial_exponents = None
    full_exponents = []
    if args.mode == "membership":
        if args.monomial is None:
            raise ValidationError("membership mode needs --monomial")
        if args.full is not None:
            raise ValidationError("membership mode does not take --full")
        monomial_exponents = _parse_monomial_text(args.monomial, prefixes)
    else:
        if args.full is None:
            raise ValidationError("reduction mode needs --full")
        if args.monomial is not None:
            raise ValidationError("reduction mode does not take --monomial")
        full_exponents = _parse_ideal_text(args.full, prefixes)
    if len(prefixes) > 1:
        raise ValidationError(
            "mixing x- and y-variables in one command is ambiguous; use one prefix"
        )
    prefix = prefixes.pop()
    # The Newton polyhedron is a product with R_{>=0} in each variable no
    # generator of either ideal uses, so both modes read only the rest.
    support = sorted({i for expo in ideal_exponents + full_exponents for i in expo})
    variable_count = 1 + max([*support, *(monomial_exponents or ())])
    # Refuse each list at its parsed count before the g^2 x |support| build.
    for parsed in filter(None, (ideal_exponents, full_exponents)):
        integral_closure.require_newton_tableau(len(support), len(parsed))
    ideal = integral_closure.MonomialIdeal(
        len(support), tuple(_build_monomial(e, support) for e in ideal_exponents)
    )
    checks: list[Check] = []
    results: dict = {
        "ideal": ", ".join(
            _monomial_string(zip(support, g), prefix) for g in ideal.generators
        ),
        "variable_count": variable_count,
        "mode": args.mode,
    }
    if args.mode == "membership":
        m = _build_monomial(monomial_exponents, support)
        member = integral_closure.in_integral_closure_newton(ideal, m)
        results["monomial"] = _monomial_string(
            sorted(monomial_exponents.items()), prefix
        )
        results["member"] = member
        witnesses = integral_closure.default_witnesses(len(support), seed=0)
        battery = integral_closure.in_integral_closure_valuative(ideal, m, witnesses)
        results["witness_battery"] = battery
        checks.append(
            Check.of(
                "witness-refutation-soundness",
                not member or battery,
                "finite curve battery cannot refute a Newton member",
            )
        )
        try:  # the facet route refuses before reading a generator: then skip it
            facets = integral_closure.in_integral_closure_facets(ideal, m)
            results["facet_route"] = facets
            checks.append(
                Check.of(
                    "newton-vs-facet-enumeration",
                    facets == member,
                    "both membership routes agree",
                )
            )
        except BudgetError:
            pass
    else:
        full = integral_closure.MonomialIdeal(
            len(support), tuple(_build_monomial(e, support) for e in full_exponents)
        )
        results["full"] = ", ".join(
            _monomial_string(zip(support, g), prefix) for g in full.generators
        )
        results["reduction"] = integral_closure.is_reduction(ideal, full)
    return Report(
        command="closure",
        inputs={
            "ideal": args.ideal,
            "monomial": args.monomial,
            "full": args.full,
            "mode": args.mode,
        },
        results=results,
        checks=checks,
    )


def cmd_count(args: argparse.Namespace) -> Report:
    spec = ffcount.NormalFormSpec(p=args.p, q1=args.q1)
    budget = ffcount.DEFAULT_BUDGET if args.budget is None else args.budget
    jobs = 1 if args.jobs is None else args.jobs
    report = ffcount.count_points(
        spec, args.prime, target=args.target, budget=budget, jobs=jobs
    )
    predicted = ffcount.predicted_count(spec, args.prime)
    checks = [
        Check.of(
            "observed-equals-predicted",
            report.observed_count == predicted,
            "exhaustive count matches the fibration prediction",
            f"observed {report.observed_count} != predicted {predicted}",
        )
    ]
    return Report(
        command="count",
        inputs={
            "p": args.p,
            "q1": args.q1,
            "prime": args.prime,
            "target": args.target,
            "jobs": args.jobs,
        },
        results={
            "n": spec.n,
            "prime": report.prime,
            "target": report.target,
            "observed": report.observed_count,
            "predicted": predicted,
            "enumerated": report.enumerated,
        },
        checks=checks,
    )


def cmd_verify(args: argparse.Namespace) -> Report:
    return verify.run_verify(args.scope, args.pmax, args.seed)


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="report rendering (default: table)",
    )
    output.add_argument("--out", help="write the report to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="dqp",
        description=(
            "Invariants of D(q,p) hypersurface singularities, with every closed "
            "form cross-checked by an independent computation"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_inv = sub.add_parser(
        "invariants", parents=[output], help="all invariant tables for one (n, q, p)"
    )
    p_inv.add_argument("--n", type=_int, required=True, help="ambient variable count")
    p_inv.add_argument("--q", type=_int, required=True, help="singular locus dimension")
    p_inv.add_argument("--p", type=_int, required=True, help="symmetric matrix size")
    p_inv.set_defaults(handler=cmd_invariants)

    p_le = sub.add_parser(
        "lecycles",
        parents=[output],
        help="Lê numbers of the minimal germ via intersection theory",
    )
    p_le.add_argument("--p", type=_int, required=True, help="symmetric matrix size")
    p_le.add_argument(
        "--i", type=_int, default=None, help="single cycle index (default: all 1..p)"
    )
    p_le.set_defaults(handler=cmd_lecycles)

    p_chow = sub.add_parser(
        "chow", parents=[output], help="bidegree intersection numbers on P^n x P^m"
    )
    p_chow.add_argument("--n", type=_int, required=True, help="first factor dimension")
    p_chow.add_argument("--m", type=_int, required=True, help="second factor dimension")
    p_chow.add_argument(
        "--classes",
        required=True,
        help="semicolon-separated bidegrees, e.g. '1,1;1,1;0,2'",
    )
    p_chow.add_argument(
        "--algorithm", choices=("ring", "fulton", "both"), default="both"
    )
    p_chow.set_defaults(handler=cmd_chow)

    p_closure = sub.add_parser(
        "closure",
        parents=[output],
        help="monomial integral-closure membership and reduction tests",
    )
    p_closure.add_argument(
        "--ideal",
        required=True,
        help="comma-separated monomial generators, e.g. 'y1^2,y2^2'",
    )
    p_closure.add_argument("--monomial", help="membership candidate, e.g. 'y1*y2'")
    p_closure.add_argument("--full", help="larger ideal for reduction mode")
    p_closure.add_argument(
        "--mode", choices=("membership", "reduction"), default="membership"
    )
    p_closure.set_defaults(handler=cmd_closure)

    p_count = sub.add_parser(
        "count", parents=[output], help="finite-field point counts of the normal form"
    )
    p_count.add_argument("--p", type=_int, required=True, help="symmetric matrix size")
    p_count.add_argument(
        "--q1", type=_int, default=0, help="coordinates the normal form ignores"
    )
    p_count.add_argument("--prime", type=_int, required=True, help="odd prime modulus")
    p_count.add_argument("--target", type=_int, default=1, help="nonzero field element")
    p_count.add_argument(
        "--budget",
        type=_int,
        default=None,
        help="maximum prime^n (default 10^8)",
    )
    p_count.add_argument(
        "--jobs",
        type=_int,
        default=None,
        help="worker threads, capped at the available cores (default: 1); the "
        "counter holds the interpreter lock, so more threads do not count "
        "faster, and the count is identical for every value",
    )
    p_count.set_defaults(handler=cmd_count)

    p_verify = sub.add_parser(
        "verify", parents=[output], help="run the cross-route verification suites"
    )
    p_verify.add_argument(
        "--scope", choices=SCOPES, default="all", help="which suites to run"
    )
    p_verify.add_argument(
        "--pmax",
        type=_int,
        default=DEFAULT_PMAX,
        help=f"largest matrix size exercised (default {DEFAULT_PMAX}, max 8)",
    )
    p_verify.add_argument(
        "--seed", default="0", help="seed for the randomized suites (default 0)"
    )
    p_verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except CheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    # verify times each suite; every other command is timed here, as one section.
    report.elapsed = report.elapsed or {args.subcommand: time.perf_counter() - started}
    text = getattr(report, f"render_{args.format}")()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if not report.passed:
        print("one or more checks failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
