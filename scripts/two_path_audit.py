#!/usr/bin/env python3
"""Audit the sum side against the operator side over a small instance grid.

For each instance the torus-sum route (generating functions in T) and the
transfer-operator route (characteristic series in the uniformizer) are
compared coefficientwise at their shared certified modulus, along with the
trace identity for k = 1, 2.  Any disagreement is a bug somewhere, so the
script exits nonzero on the first failure.
"""

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tadic.arith import field_context
from tadic.dwork import char_c_crosscheck, psi_a_matrix, verify_trace_formula
from tadic.polytope import LaurentPoly


@dataclass(frozen=True)
class Instance:
    label: str
    exps: tuple
    p: int
    a: int = 1
    gen_coeff: bool = False


GRID = (
    Instance("x", ((1,),), 2),
    Instance("x", ((1,),), 3),
    Instance("x", ((1,),), 5),
    Instance("x^3", ((3,),), 2),
    Instance("x^3", ((3,),), 3),
    Instance("x^3", ((3,),), 5),
    Instance("x^2+x", ((2,), (1,)), 3),
    Instance("x1+x2+1/(x1x2)", ((1, 0), (0, 1), (-1, -1)), 2),
    Instance("x1+x2+1/(x1x2)", ((1, 0), (0, 1), (-1, -1)), 3),
    Instance("g*x over F_4", ((1,),), 2, a=2, gen_coeff=True),
)


def build(inst: Instance) -> LaurentPoly:
    ctx = field_context(inst.p, inst.a)
    coeff = ctx.generator if inst.gen_coeff else ctx.one()
    return LaurentPoly.make(len(inst.exps[0]), {u: coeff for u in inst.exps}, ctx)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deg-s", type=int, default=2)
    ap.add_argument("--prec-p", type=int, default=4)
    ap.add_argument("--pi-cap", type=int, default=3)
    args = ap.parse_args()

    failures = 0
    for inst in GRID:
        f = build(inst)
        B = max(1, -(-args.pi_cap // (inst.p - 1)))
        t0 = time.time()
        # one transfer matrix serves both trace checks and the char check
        Mx = psi_a_matrix(f, B, args.prec_p, args.pi_cap)
        parts = []
        for k in (1, 2):
            chk = verify_trace_formula(f, k, B, args.prec_p, args.pi_cap, matrix=Mx)
            parts.append(f"trace k={k}: {'ok' if chk.ok else 'FAIL'}")
            failures += not chk.ok
        cc = char_c_crosscheck(f, args.deg_s, B, args.prec_p, args.pi_cap, matrix=Mx)
        parts.append(
            f"char deg<={cc.deg_s}: {'ok' if cc.ok else 'FAIL ' + str(cc.mismatches)}"
        )
        failures += not cc.ok
        dt = time.time() - t0
        print(
            f"{inst.label:24s} p={inst.p} a={inst.a}  "
            f"{'; '.join(parts)}  (pi^{cc.pi_modulus}, p^{cc.p_modulus}) [{dt:.2f}s]"
        )
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    print("all instances agree on both routes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
