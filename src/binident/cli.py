"""Command-line interface.

Subcommands: test, akdist, coarse-dist, fingerprint, moments, gen-hard,
verify-claim, overflow, experiment.  All but experiment (always JSON) take
--format json|csv; those that load distributions (test, akdist, coarse-dist,
moments) take --exact; only test takes --seed.  ``binident test`` exits 0
on accept, 1 on reject, 2 on error; the others exit 0 on success, 2 on error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from . import harness, lowerbound
from .binning import coarsening_distance
from .distributions import Distribution, SampleSet, ak_distance, sample
from .fingerprints import fingerprint_of, moment_vector
from .tester import DEFAULT_LEARN_CONSTANT, TestConfig, bin_identity_test

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2


def _load_dist(spec: str, exact: bool) -> Distribution:
    if spec == "-":
        return harness.distribution_from_json(json.load(sys.stdin), exact=exact)
    return harness.load_distribution(spec, exact=exact)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(payload.keys())
        writer.writerow(["" if v is None else v for v in payload.values()])


def _cmd_test(args) -> int:
    q = _load_dist(args.q, args.exact)
    p = _load_dist(args.p, args.exact)
    cfg = TestConfig(
        Fraction(args.eps),
        learn_constant=Fraction(args.constant),
        seed=args.seed,
    )
    source = p if args.samples is None else sample(p, args.samples, cfg.seed)
    report = bin_identity_test(source, q, args.n, cfg)
    _emit(
        {
            "verdict": report.verdict,
            "delta": None if report.delta is None else str(report.delta),
            "threshold": str(report.threshold),
            "witness": None if report.witness is None else list(report.witness.bounds),
            "samples": report.samples_used,
        },
        args.format,
    )
    return EXIT_ACCEPT if report.accepted else EXIT_REJECT


def _cmd_akdist(args) -> int:
    d1 = _load_dist(args.d1, args.exact)
    d2 = _load_dist(args.d2, args.exact)
    value = ak_distance(d1, d2, args.ell)
    _emit({"ell": args.ell, "distance": str(value)}, args.format)
    return 0


def _cmd_coarse_dist(args) -> int:
    p = _load_dist(args.p, args.exact)
    q = _load_dist(args.q, args.exact)
    value = coarsening_distance(p, q)
    _emit({"distance": str(value), "in_property": value == 0}, args.format)
    return 0


def _cmd_fingerprint(args) -> int:
    values = [int(v) for v in args.samples.split(",") if v.strip()]
    fp = fingerprint_of(SampleSet(values))
    _emit({"fingerprint": fp.key(), "s": fp.s, "distinct": fp.t}, args.format)
    return 0


def _cmd_moments(args) -> int:
    d = _load_dist(args.d, args.exact)
    vector = moment_vector(d, args.s)
    table = {"+".join(map(str, comp)): str(value) for comp, value in vector.entries}
    if args.format == "json":
        print(json.dumps({"s": args.s, "moments": table}, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["composition", "probability"])
        for key, value in table.items():
            writer.writerow([key, value])
    return 0


def _cmd_gen_hard(args) -> int:
    pair = lowerbound.make_hard_instance(
        args.m, args.b, Fraction(args.rho), args.k_prime
    )
    harness.store_hard_pair(pair, args.out)
    _emit(
        {
            "x": pair.x.symbols,
            "y": pair.y.symbols,
            "m": pair.m,
            "b": pair.b,
            "k_prime": pair.k_prime,
            "out": args.out,
        },
        args.format,
    )
    return 0


def _cmd_verify_claim(args) -> int:
    pair = harness.load_hard_pair(args.pair)
    value = lowerbound.verify_distance_claim(pair)
    _emit({"distance": str(value), "positive": value > 0}, args.format)
    return 0


def _cmd_overflow(args) -> int:
    value = lowerbound.block_overflow_probability(args.k, args.s, args.m)
    _emit(
        {"k_prime": args.k, "s": args.s, "m": args.m, "probability": str(value)},
        args.format,
    )
    return 0


def _cmd_experiment(args) -> int:
    spec = harness.load_experiment_spec(args.spec)
    if args.out:
        spec = dataclasses.replace(spec, output_path=args.out)
    result = harness.run_experiment(spec)
    print(json.dumps({"rows": len(result.rows), "summary": result.summary}, indent=2))
    return 0


@functools.cache  # built on first use; parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("json", "csv"), default="json")
    loading = argparse.ArgumentParser(add_help=False, parents=[formatted])
    loading.add_argument(
        "--exact",
        action="store_true",
        help="require rational-string entries when loading distributions",
    )

    parser = argparse.ArgumentParser(
        prog="binident",
        description="Identity testing of discrete distributions up to binning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", parents=[loading], help="run the binned identity test")
    p_test.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p_test.add_argument("--p", required=True, help="distribution JSON file, or - for stdin")
    p_test.add_argument("--q", required=True, help="reference distribution JSON file")
    p_test.add_argument("--n", type=int, required=True, help="domain size of p")
    p_test.add_argument("--eps", required=True, help="distance parameter, e.g. 1/10")
    p_test.add_argument("--samples", type=int, default=None, help="override sample count")
    p_test.add_argument(
        "--constant", default=str(DEFAULT_LEARN_CONSTANT), help="sampling constant C"
    )
    p_test.set_defaults(func=_cmd_test)

    p_ak = sub.add_parser("akdist", parents=[loading], help="interval-partition distance")
    p_ak.add_argument("--d1", required=True)
    p_ak.add_argument("--d2", required=True)
    p_ak.add_argument("--ell", type=int, required=True)
    p_ak.set_defaults(func=_cmd_akdist)

    p_cd = sub.add_parser("coarse-dist", parents=[loading], help="coarsening distance")
    p_cd.add_argument("--p", required=True)
    p_cd.add_argument("--q", required=True)
    p_cd.set_defaults(func=_cmd_coarse_dist)

    p_fp = sub.add_parser("fingerprint", parents=[formatted], help="ordered fingerprint of samples")
    p_fp.add_argument("--samples", required=True, help="comma-separated values, e.g. 12,7,98,7")
    p_fp.set_defaults(func=_cmd_fingerprint)

    p_mo = sub.add_parser("moments", parents=[loading], help="fingerprint probabilities")
    p_mo.add_argument("--d", required=True)
    p_mo.add_argument("--s", type=int, required=True)
    p_mo.set_defaults(func=_cmd_moments)

    p_gh = sub.add_parser("gen-hard", parents=[formatted], help="search for a hard instance pair")
    p_gh.add_argument("--m", type=int, required=True)
    p_gh.add_argument("--b", type=int, required=True)
    p_gh.add_argument("--rho", default=str(lowerbound.DEFAULT_RHO))
    p_gh.add_argument("--k-prime", type=int, default=2, dest="k_prime")
    p_gh.add_argument("--out", required=True)
    p_gh.set_defaults(func=_cmd_gen_hard)

    p_vc = sub.add_parser("verify-claim", parents=[formatted], help="blow-up distance of a stored pair")
    p_vc.add_argument("--pair", required=True)
    p_vc.set_defaults(func=_cmd_verify_claim)

    p_of = sub.add_parser("overflow", parents=[formatted], help="exact block-overflow probability")
    p_of.add_argument("--k", type=int, required=True)
    p_of.add_argument("--s", type=int, required=True)
    p_of.add_argument("--m", type=int, required=True)
    p_of.set_defaults(func=_cmd_overflow)

    p_ex = sub.add_parser("experiment", help="run an experiment spec")
    p_ex.add_argument("--spec", required=True, help="experiment spec JSON file")
    p_ex.add_argument("--out", default=None, help="override the spec output path")
    p_ex.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except Exception as exc:  # surface module errors with context, exit 2
        print(f"binident: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
