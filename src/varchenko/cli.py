"""Command-line front end: face listings, Varchenko matrices and
determinants, verification suites, and explicit matrix files.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad input,
141 the reader of stdout closed it early (as a SIGPIPE death would).
Hyperplane positions on the command line (--subset) are 0-based file
positions; rendered labels (H1, h1^+) are 1-based.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache
from itertools import islice
from pathlib import Path

from .apartments import enumerate_apartments, find_apartment
from .euler import lemma_ch_check, lemma_chm_check
from .faces import enumerate_faces, format_signs
from .files import arrangement_digest, parse_arrangement, parse_matrix
from .geometry import CHAR_SIGNS
from .polyring import format_polynomial, read_terms
from .report import FAIL, PASS, SCHEMA_VERSION, write_json
from .tits import rank, tits_semigroup_check
from .varmatrix import (
    DEFAULT_PRIME,
    DEFAULT_SYMBOLIC_THRESHOLD,
    FactoredDet,
    beta_details,
    beta_independence_check,
    compare_with_product,
    mad_recurrence_check,
    product_formula,
    resolve_apartment,
    v_path_identity_check,
    varchenko_matrix,
    verify_factorization,
)
from .witt import witt_sweep

# Each check's runner: given the complex and the keywords `targets` (a
# callable returning the apartments to check), `seed` and `trials`, an
# iterable of its results, each made when it is read. A runner looks its
# check up by name when called, so a wrapper bound to that name later
# (perfbench's span tracer) is the one run.
CHECKS = {
    "tits": lambda complex_, **_: [tits_semigroup_check(complex_)],
    "witt": lambda complex_, **_: [witt_sweep(complex_)],
    "lemma_ch": lambda complex_, **_: [lemma_ch_check(complex_)],
    "lemma_chm": lambda complex_, **_: [lemma_chm_check(complex_)],
    "v_path": lambda complex_, **_: [v_path_identity_check(complex_)],
    "mad_recurrence": lambda complex_, **_: [mad_recurrence_check(complex_)],
    "beta": lambda complex_, targets, **_: (
        beta_independence_check(complex_, apt) for apt in targets()
    ),
    "factorization": lambda complex_, targets, seed, trials: (
        verify_factorization(complex_, apt, seed=seed, trials=trials)
        for apt in targets()
    ),
}
CHECK_NAMES = tuple(CHECKS)


def _default_seed() -> int:
    env = os.environ.get("VARCHENKO_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"VARCHENKO_SEED must be an integer, got {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process for each threshold its help names."""
    return _parser(DEFAULT_SYMBOLIC_THRESHOLD)


@cache
def _parser(threshold: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varchenko",
        description=(
            "Face posets, apartments and Varchenko determinant "
            "factorizations of affine hyperplane arrangements, in exact "
            "arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_faces = sub.add_parser(
        "faces", help="list faces (sign vector, dim, rank) and chambers"
    )
    p_faces.add_argument("file", help="arrangement file")
    p_faces.add_argument("--json", action="store_true")

    p_var = sub.add_parser(
        "varchenko",
        help="matrix, determinant and factorization for an apartment",
    )
    p_var.add_argument("file", help="arrangement file")
    _apartment_args(p_var)
    p_var.add_argument(
        "--mode",
        choices=("auto", "symbolic", "modular"),
        default="auto",
        help=f"auto picks symbolic up to {threshold} chambers, "
        "modular beyond",
    )
    _trial_args(p_var)
    p_var.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("file", help="arrangement file")
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every suite")
    group.add_argument(
        "--checks",
        help="comma-separated subset of: " + ",".join(CHECK_NAMES),
    )
    p_verify.add_argument(
        "--all-apartments",
        action="store_true",
        help="run apartment-level suites over all apartments of all subsets",
    )
    _apartment_args(p_verify)
    _trial_args(p_verify)
    p_verify.add_argument("--json", action="store_true")

    p_det = sub.add_parser(
        "detfile", help="determinant of an explicitly supplied matrix file"
    )
    p_det.add_argument("file", help="matrix file (vmatrix format)")
    p_det.add_argument(
        "--expected",
        help="factored product to check, e.g. '(1 - h1^+ h1^-)^2 ...'",
    )
    p_det.add_argument("--json", action="store_true")

    return parser


def _apartment_args(parser):
    parser.add_argument(
        "--subset",
        help="comma-separated 0-based hyperplane positions, e.g. 0,2",
    )
    parser.add_argument(
        "--apartment-signs",
        help="comma-separated signs aligned with --subset, e.g. +,-",
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _trial_args(parser):
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=_positive_int, default=10)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load(path: str):
    arrangement = parse_arrangement(_read(path))
    return arrangement, enumerate_faces(arrangement)


def _apartment_from_args(args, complex_):
    """The apartment selected by --subset/--apartment-signs, or None."""
    if args.subset is None and args.apartment_signs is None:
        return None
    if args.subset is None or args.apartment_signs is None:
        raise ValueError("--subset and --apartment-signs must be given together")
    try:
        subset = [int(tok) for tok in args.subset.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"bad --subset {args.subset!r}") from None
    signs = []
    for tok in args.apartment_signs.split(","):
        tok = tok.strip()
        if tok not in ("+", "-"):
            raise ValueError(f"bad sign {tok!r} in --apartment-signs")
        signs.append(CHAR_SIGNS[tok])
    if len(signs) != len(subset):
        raise ValueError("--apartment-signs length must match --subset")
    apartment = find_apartment(complex_, subset, signs)
    if apartment is None:
        raise ValueError(
            "the requested apartment is empty (infeasible sign choice)"
        )
    return apartment


def cmd_faces(args) -> int:
    arrangement, complex_ = _load(args.file)
    rows = [
        {
            "id": f.id,
            "signs": format_signs(f.signs),
            "dim": f.dim,
            "rank": rank(complex_, f),
            "chamber": f.is_chamber,
        }
        for f in complex_.faces
    ]
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "arrangement": arrangement_digest(arrangement),
            "dimension": arrangement.dimension,
            "hyperplanes": arrangement.size,
            "faces": rows,
            "chambers": list(complex_.chamber_ids),
        }
        write_json(payload, sys.stdout)
        return 0
    print(
        f"arrangement {arrangement_digest(arrangement)}: "
        f"dim {arrangement.dimension}, {arrangement.size} hyperplanes"
    )
    print(f"{len(rows)} faces, {len(complex_.chamber_ids)} chambers")
    for row in rows:
        marker = "chamber" if row["chamber"] else "face"
        print(
            f"  {row['id']:3d}  {row['signs']:{2 * arrangement.size + 4}s} "
            f"dim {row['dim']}  rank {row['rank']}  {marker}"
        )
    return 0


def cmd_varchenko(args) -> int:
    arrangement, complex_ = _load(args.file)
    apartment = _apartment_from_args(args, complex_)
    seed = args.seed if args.seed is not None else _default_seed()
    where, ids = resolve_apartment(complex_, apartment)
    chambers, non_chambers = ([complex_.faces[i] for i in part] for part in ids)
    matrix = varchenko_matrix(chambers)
    beta_status, beta = beta_details(complex_, *ids)
    factored = product_formula(complex_, non_chambers, beta["betas"])
    mode, equal, evidence = compare_with_product(
        matrix, factored, args.mode, seed, args.trials
    )
    verified = equal and beta_status == PASS

    payload = {
        "schema": SCHEMA_VERSION,
        "arrangement": arrangement_digest(arrangement),
        "apartment": where,
        "chambers": list(ids[0]),
        "matrix": matrix.entry_texts(),
        "factored": factored.text(),
        "mode": mode,
        "verified": verified,
    }
    if beta_status == FAIL:
        payload["beta_mismatches"] = beta["mismatches"]
    if mode == "symbolic":
        payload["determinant"] = evidence()
        payload["expanded_product"] = format_polynomial(factored.expand())
    else:
        payload["seed"] = seed
        payload["prime"] = DEFAULT_PRIME
        payload["trials"] = [
            {"trial": t.trial, "digest": t.digest, "determinant": t.value,
             "product": t.product, "match": t.match}
            for t in evidence
        ]

    if args.json:
        write_json(payload, sys.stdout)
    else:
        print(f"arrangement {payload['arrangement']}: apartment {where}")
        print(f"chambers ({len(chambers)}): {payload['chambers']}")
        print("matrix:")
        for row in payload["matrix"]:
            print("  " + " | ".join(row))
        print(f"factored determinant: {payload['factored']}")
        if mode == "symbolic":
            print(f"determinant: {payload['determinant']}")
            print(f"expanded product: {payload['expanded_product']}")
        else:
            print(f"modular trials (seed {seed}, prime {DEFAULT_PRIME}):")
            for t in evidence:
                print(f"  trial {t.trial}  {t.digest}  det={t.value}  "
                      f"product={t.product}  {'match' if t.match else 'MISMATCH'}")
        print(f"verified: {verified}")
    return 0 if verified else 1


def cmd_verify(args) -> int:
    if args.all_apartments and (
        args.subset is not None or args.apartment_signs is not None
    ):
        raise ValueError(
            "--all-apartments cannot be combined with --subset/--apartment-signs"
        )
    arrangement, complex_ = _load(args.file)
    apartment = _apartment_from_args(args, complex_)
    seed = args.seed if args.seed is not None else _default_seed()

    if args.checks is not None:
        selected = [tok.strip() for tok in args.checks.split(",") if tok.strip()]
        if not selected:
            raise ValueError(
                f"--checks names no check; valid: {','.join(CHECK_NAMES)}"
            )
        unknown = [tok for tok in selected if tok not in CHECK_NAMES]
        if unknown:
            raise ValueError(
                f"unknown checks {unknown}; valid: {','.join(CHECK_NAMES)}"
            )
        repeated = sorted({tok for tok in selected if selected.count(tok) > 1})
        if repeated:
            raise ValueError(f"--checks repeats {','.join(repeated)}")
    else:
        selected = list(CHECK_NAMES)  # default and --all both run everything

    @cache  # built on first use, then shared by the checks that sweep
    def apartment_targets():
        if not args.all_apartments:
            return [apartment]  # None means the full arrangement
        m = arrangement.size
        subsets = ([h for h in range(m) if mask >> h & 1] for mask in range(1 << m))
        return [apt for subset in subsets for apt in enumerate_apartments(complex_, subset)]

    # Results are made 128 at a time, written, then dropped; only failures
    # are kept, for the text summary. Taking turns between the checks and
    # the writer on every single result cost about 4% more CPU on small sweeps.
    context = {"arrangement": arrangement_digest(arrangement)}
    failures = []

    def results():
        made = (result for name in selected for result in CHECKS[name](
            complex_, targets=apartment_targets, seed=seed, trials=args.trials))
        while batch := list(islice(made, 128)):
            failures.extend(result for result in batch if result.status == FAIL)
            yield from batch

    if args.json:  # sorted keys write "checks" first, as the results come
        entries = ({**r.to_dict(), "context": {**context, **r.context}} for r in results())
        write_json({"schema": SCHEMA_VERSION, "context": context, "checks": entries}, sys.stdout)
    else:
        count = 0
        for count, result in enumerate(results(), 1):
            print(f"[{result.status.upper():7}] {result.name}")
        print(f"{count} checks: {count - len(failures)} ok, {len(failures)} failed")
        for result in failures:
            print(f"failure in {result.name}: {json.dumps(result.details, sort_keys=True)}")
    return 1 if failures else 0


_FACTOR_RE = re.compile(r"\(\s*1\s*-\s*([^()]+?)\s*\)\s*(?:\^(\d+))?")


def parse_expected_product(text: str, nvars: int) -> FactoredDet:
    """Parse '(1 - MONOMIAL)^k (1 - MONOMIAL)^k ...' into factored form,
    each MONOMIAL nonconstant with coefficient 1."""
    factors = []
    consumed = 0
    for match in _FACTOR_RE.finditer(text):
        if text[consumed : match.start()].strip():
            raise ValueError(
                f"unparsed text {text[consumed:match.start()]!r} in expected product"
            )
        terms = read_terms(match.group(1), nvars)
        if len(terms) != 1 or terms[0][0] != 1 or not terms[0][1]:
            raise ValueError(
                f"factor {match.group(0).strip()!r} is not (1 - MONOMIAL) "
                "with a nonconstant monomial of coefficient 1"
            )
        exponent = int(match.group(2)) if match.group(2) else 1
        factors.append((terms[0][1], exponent))
        consumed = match.end()
    if text[consumed:].strip():
        raise ValueError(f"unparsed trailing text {text[consumed:]!r}")
    if not factors:
        raise ValueError("expected product contains no factors")
    return FactoredDet(nvars, factors)


def cmd_detfile(args) -> int:
    matrix = parse_matrix(_read(args.file))
    expected = FactoredDet(matrix.nvars, ())  # 1, when only det V is asked for
    checking = args.expected is not None  # "" is a product with no factors
    if checking:
        expected = parse_expected_product(args.expected, matrix.nvars)
    _, verified, determinant = compare_with_product(matrix, expected, "symbolic", 0, 1)
    payload = {"schema": SCHEMA_VERSION, "size": matrix.size, "determinant": determinant()}
    if checking:
        payload["expected"] = expected.text()
        payload["verified"] = verified

    if args.json:
        write_json(payload, sys.stdout)
    else:
        print(f"matrix size: {matrix.size}")
        print(f"determinant: {payload['determinant']}")
        if checking:
            print(f"expected (factored): {payload['expected']}")
            print(f"verified: {verified}")
    return 0 if verified or not checking else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up by name on each call, so a command rebound later runs
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except ValueError as exc:  # a ParseError names the offending line
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (`| head`): stdout to devnull, so exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
