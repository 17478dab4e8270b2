#!/usr/bin/env python3
"""Print the full 4x4 pairing table for one parameter point and direction,
three ways: closed form, exact residue oracle, floating contour quadrature.

Example:
    python3 scripts/residue_table.py --u 0,2,3 --j 1
"""

import argparse
import sys

from trigonal4.curve import validate_params
from trigonal4.deformation import TangentVector, pairing_matrix, residue_matrix
from trigonal4.errors import Trigonal4Error
from trigonal4.numeric import numeric_residue_matrix, residue_relative_error
from trigonal4.scalars import Scalar


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--u", default="0,2,3")
    parser.add_argument("--j", type=int, choices=(1, 2, 3), default=1)
    parser.add_argument("--nodes", type=int, default=256)
    args = parser.parse_args()

    literals = args.u.split(",")
    if len(literals) != 3:
        parser.error("--u takes three scalar literals")
    direction = [Scalar.zero()] * 3
    direction[args.j - 1] = Scalar.one()
    try:
        params = validate_params(*(Scalar.parse(p) for p in literals))
        matrix = pairing_matrix(params, TangentVector(tuple(direction)))
        oracles = residue_matrix(params, args.j)
        numeric = numeric_residue_matrix(params, args.j, args.nodes)
    except Trigonal4Error as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)

    print(f"pairing table at u = ({args.u}), direction d/du_{args.j}, units 6*pi*i")
    print(f"{'entry':>8} {'closed':>14} {'oracle':>14} {'contour rel err':>16}")
    for l in range(4):
        for k in range(4):
            closed = matrix[l][k]
            oracle = oracles[l][k]
            err = residue_relative_error(closed, numeric[l][k])
            marker = "" if closed == oracle else "  << MISMATCH"
            print(f"  ({l},{k}) {str(closed):>14} {str(oracle):>14} {err:>16.2e}{marker}")


if __name__ == "__main__":
    main()
