#!/usr/bin/env python3
"""Stratify sampled tangent directions by their vanishing certificate.

Samples (u, xi) pairs with the package PRNG, classifies each direction,
and prints the resulting stratum counts plus a few example rows; the cone
sweep classifies directions on the conic, each of which the support lemma
(see trigonal4.deformation) certifies as supported on its fiber.

Example:
    python3 scripts/family_scan.py --count 200 --seed 11
"""

import argparse
import sys
from collections import Counter

from trigonal4.deformation import cone_directions, delta_nu_c_test
from trigonal4.errors import Trigonal4Error
from trigonal4.prng import SplitMix64, sample_params, sample_tangent
from trigonal4.scalars import Scalar


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cone-sweep", type=int, default=12)
    args = parser.parse_args()
    if args.count < 0 or args.cone_sweep < 0:
        parser.error("--count and --cone-sweep must be non-negative")

    try:
        rng = SplitMix64(args.seed)
    except Trigonal4Error as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    counts: Counter = Counter()
    examples = []
    for i in range(args.count):
        params = sample_params(rng)
        xi = sample_tangent(rng)
        cert = delta_nu_c_test(params, xi)
        counts[cert.variant] += 1
        if len(examples) < 3:
            examples.append((params, xi, cert))

    print(f"random directions ({args.count} samples, seed {args.seed}):")
    for variant, n in sorted(counts.items()):
        print(f"  {variant:>22}: {n}")
    for params, xi, cert in examples:
        print(f"  e.g. {params} xi={xi}: {cert.variant}, conic value {cert.conic_value}")

    print(f"\ncone sweep (t = 0..{args.cone_sweep - 1}) at one sampled parameter point:")
    params = sample_params(rng)
    cone_counts: Counter = Counter()
    for t in range(args.cone_sweep):
        cert = delta_nu_c_test(params, cone_directions(params, Scalar.of(t)))
        cone_counts[cert.variant] += 1
    for variant, n in sorted(cone_counts.items()):
        print(f"  {variant:>22}: {n}")


if __name__ == "__main__":
    main()
