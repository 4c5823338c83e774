#!/usr/bin/env python3
"""Census of T-adic ordinariness over diagonal and simplex families.

Two independent detectors run side by side: the certified Newton-polygon
comparison (needs a long enough s- and T-window) and the cone-minor
determinant criterion (sees the failure at tiny cutoffs).  The table makes
the p mod d pattern for x^d visible, plus whatever supports you add.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tadic.arith import field_context
from tadic.dwork import ordinariness_determinants
from tadic.polytope import LaurentPoly
from tadic.sums import np_report


def diagonal(d: int, p: int) -> LaurentPoly:
    ctx = field_context(p, 1)
    return LaurentPoly.make(1, {(d,): ctx.one()}, ctx)


def simplex(p: int) -> LaurentPoly:
    ctx = field_context(p, 1)
    return LaurentPoly.make(
        2, {(1, 0): ctx.one(), (0, 1): ctx.one(), (-1, -1): ctx.one()}, ctx
    )


def verdict_line(label: str, f: LaurentPoly, deg_s: int, M: int, N: int, K: int):
    rep = np_report(f, [1], deg_s, M, N)
    od = ordinariness_determinants(f, K, M)
    dets = "".join("1" if v else "0" for v in od["verdicts"])
    flags = rep["flags"]
    print(
        f"{label:16s} flag={flags['t_ordinary']:12s} "
        f"pi-flag={flags['ordinary']:12s} minors[0..{od['depth']}]={dets}"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dmax", type=int, default=4)
    ap.add_argument("--primes", default="2,3,5,7")
    ap.add_argument("--deg-s", type=int, default=3)
    ap.add_argument("--prec-p", type=int, default=4)
    ap.add_argument("--prec-t", type=int, default=12)
    args = ap.parse_args()
    primes = [int(x) for x in args.primes.split(",")]

    print("== diagonal x^d:  expect ordinary exactly when p = 1 mod d ==")
    for d in range(2, args.dmax + 1):
        for p in primes:
            if p == d or d % p == 0:
                continue  # keep to the tame, nondegenerate range
            verdict_line(
                f"x^{d}, p={p}",
                diagonal(d, p),
                args.deg_s,
                args.prec_p,
                args.prec_t,
                d + 2,
            )
    print("== reflexive simplex x1+x2+1/(x1x2) ==")
    for p in primes:
        # the first nontrivial hull vertex sits at x = 4; reach it when the
        # exact torus sums stay affordable, otherwise accept a short window
        deg_s = 4 if (p**4 - 1) ** 2 <= 4_000_000 else args.deg_s
        verdict_line(
            f"simplex, p={p}",
            simplex(p),
            deg_s,
            args.prec_p,
            max(args.prec_t, 16),
            2,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
