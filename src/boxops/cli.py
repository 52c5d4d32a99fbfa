"""Command-line driver: enumerate | check <kind> | report.

Exit codes: 0 when every record passes, 1 on any FAIL, 2 on any
INCONCLUSIVE or REFUSED record.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checks
from .graphs import DEFAULT_MAX_BITS
from .reports import exit_code, read_records, summarize, write_records

CHECK_KINDS = (
    "finality",
    "initiality",
    "collapse",
    "grothendieck",
    "duality",
    "axioms",
    "cubes",
    "reedy",
)

STANDARD_TAGS = ("g", "ke", "k", "m", "mup", "mdown")

SAMPLED_KINDS = ("initiality", "finality", "grothendieck")

# the least value of each numeric option: below it a run would be empty
# (no label, no sample) or name no ground set
LEAST = {"n": 1, "k": 0, "lo": 1, "sample": 1}


def _int_list(text: str) -> list[int]:
    return [int(piece) for piece in text.split(",") if piece]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxops",
        description="enumerate labeled-graph families and run verification sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum_p = sub.add_parser("enumerate", help="write sorted key caches")
    enum_p.add_argument("--tag", action="append", choices=STANDARD_TAGS,
                        help="family tag, repeatable (default: all standard tags)")
    enum_p.add_argument("--lo", type=int, default=1, help="label floor")
    enum_p.add_argument("--n", required=True, type=_int_list,
                        help="label bounds, comma separated")
    enum_p.add_argument("--k", required=True, type=_int_list,
                        help="ground sizes, comma separated")
    enum_p.add_argument("--cache-dir", default="cache")
    enum_p.add_argument("--max-bits", type=int, default=DEFAULT_MAX_BITS)
    enum_p.add_argument("--out", default=None, help="records file (default stdout)")

    check_p = sub.add_parser("check", help="run a verification sweep")
    check_p.add_argument("kind", choices=CHECK_KINDS)
    check_p.add_argument("--n", type=int, default=2)
    check_p.add_argument("--k", type=int, default=3)
    check_p.add_argument("--sub", default=None, choices=STANDARD_TAGS,
                         help="sub-family tag for finality/initiality")
    check_p.add_argument("--ambient", default="ke", choices=STANDARD_TAGS,
                         help="ambient family tag (default ke)")
    check_p.add_argument("--sample", type=int, default=None,
                         help="sample this many objects instead of all")
    check_p.add_argument("--seed", type=int, default=None,
                         help="mandatory for any sampled check")
    check_p.add_argument("--jobs", type=int, default=1)
    check_p.add_argument("--out", default=None, help="records file (default stdout)")

    report_p = sub.add_parser("report", help="aggregate record files")
    report_p.add_argument("paths", nargs="+")
    report_p.add_argument("--out", default=None,
                          help="prefix for summary files (.txt and .json)")
    return parser


def _emit(records, out_path) -> None:
    if out_path is None:
        for rec in records:
            sys.stdout.write(rec.to_json() + "\n")
    else:
        write_records(out_path, records)


def _run_check(args) -> list:
    kind = args.kind
    if kind == "collapse":
        return checks.run_collapse(n=args.n, k=args.k, jobs=args.jobs)
    if kind == "initiality":
        return checks.run_initiality(
            args.n, args.k, sub=args.sub or "mdown",
            sample=args.sample, seed=args.seed, jobs=args.jobs,
            ambient=args.ambient,
        )
    if kind == "finality":
        return checks.run_finality(
            args.n, args.k, sub=args.sub or "mup",
            sample=args.sample, seed=args.seed, jobs=args.jobs,
            ambient=args.ambient,
        )
    if kind == "grothendieck":
        return checks.run_grothendieck(
            args.n, args.k, sample=args.sample, seed=args.seed
        )
    if kind == "duality":
        return checks.run_duality(args.n, args.k, seed=args.seed)
    if kind == "axioms":
        return checks.run_axioms(args.seed)
    if kind == "cubes":
        return checks.run_cubes(args.seed)
    if kind == "reedy":
        return checks.run_reedy()
    raise SystemExit(f"unknown check {kind}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # out-of-range values are usage errors (exit 2), found before any work
    for name, least in LEAST.items():
        value = getattr(args, name, None)
        values = value if isinstance(value, list) else [value]
        if any(v is not None and v < least for v in values):
            parser.error(f"--{name} must be at least {least}")
    if args.command == "enumerate":
        tags = args.tag or list(STANDARD_TAGS)
        specs = [
            (tag, args.lo, n, k)
            for tag in tags
            for n in args.n
            for k in args.k
        ]
        records = checks.run_enumerate(specs, args.cache_dir, args.max_bits)
        _emit(records, args.out)
        return exit_code(records)
    if args.command == "check":
        # a missing seed is a usage error (exit 2), found before any work
        sampled = args.sample is not None and args.kind in SAMPLED_KINDS
        if args.seed is None and (sampled or args.kind in ("axioms", "cubes")):
            parser.error(f"check {args.kind}{' --sample' * sampled} requires --seed")
        records = _run_check(args)
        _emit(records, args.out)
        return exit_code(records)
    if args.command == "report":
        records = []
        for path in args.paths:
            records.extend(read_records(path))
        text, data = summarize(records)
        sys.stdout.write(text)
        if args.out:
            import json

            Path(args.out + ".txt").write_text(text)
            Path(args.out + ".json").write_text(
                json.dumps(data, indent=1, sort_keys=True) + "\n"
            )
        return exit_code(records)
    raise SystemExit("unknown command")


if __name__ == "__main__":
    sys.exit(main())
