#!/usr/bin/env python3
"""Regenerate src/tadic/_presentations.py, the committed presentations of
the fields F_{p^a}, a >= 2, that tadic.arith.FieldContext reads.

For every prime p and every a >= 2 with p^a <= FIELD_LIMIT, the defining
polynomial is the monic irreducible of degree a whose non-leading
coefficients have the smallest encoding sum c_i p^i, and the generator is
the smallest-encoded element of multiplicative order p^a - 1.  Both come
from the reference searches in tests/oracles.py, which test every
candidate in encoding order.

    python3 scripts/field_presentations.py                          # rewrite the module
    python3 scripts/field_presentations.py --check                  # exit 1 on any difference
    python3 scripts/field_presentations.py --check --limit 4096     # only fields p^a <= 4096
"""

import argparse
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from oracles import oracle_find_poly, oracle_generator  # noqa: E402
from tadic.arith import FIELD_LIMIT, is_prime  # noqa: E402

MODULE = ROOT / "src" / "tadic" / "_presentations.py"

HEADER = f'''"""Presentations of F_(p^a) for every prime p and a >= 2 with p^a <= {FIELD_LIMIT}.

Generated by scripts/field_presentations.py from the reference searches in
tests/oracles.py; do not edit.  Each line of TABLE reads "p a poly gen":
poly is the encoding sum c_i p^i of the defining polynomial's non-leading
coefficients (the first monic irreducible of degree a in that order), gen
that of the generator (the smallest-encoded element of order p^a - 1).
The table stays one string, which compiles and loads faster than any
display of its 242 entries, and a lookup parses only its own line.
"""

TABLE = """
'''

FOOTER = '''"""


def presentation(p: int, a: int):
    """(poly, gen) of F_(p^a), a >= 2."""
    start = TABLE.index(f"\\n{p} {a} ") + 1
    _, _, poly, gen = TABLE[start : TABLE.index("\\n", start)].split()
    return int(poly), int(gen)
'''


def encode(x, p):
    return sum(c * p**i for i, c in enumerate(x))


def fields(limit):
    """(p, a) for every prime p and a >= 2 with p^a <= limit, in order."""
    primes = [p for p in range(2, math.isqrt(limit) + 1) if is_prime(p)]
    return [(p, a) for p in primes for a in range(2, limit.bit_length()) if p**a <= limit]


def search(p, a):
    low = oracle_find_poly(p, a)
    return encode(low, p), encode(oracle_generator(p, low), p)


def render(table) -> str:
    rows = "".join(f"{p} {a} {poly} {gen}\n" for (p, a), (poly, gen) in table.items())
    return HEADER + rows + FOOTER


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--check", action="store_true", help="compare with the committed module instead of writing it")
    ap.add_argument("--limit", type=int, default=FIELD_LIMIT, help="only fields with p^a <= LIMIT (with --check)")
    args = ap.parse_args()
    if not args.check and args.limit < FIELD_LIMIT:
        ap.error("--limit below FIELD_LIMIT writes a partial table; use it with --check")
    table = {(p, a): search(p, a) for p, a in fields(min(args.limit, FIELD_LIMIT))}
    if not args.check:
        MODULE.write_text(render(table))
        print(f"wrote {len(table)} fields to {MODULE.relative_to(ROOT)}")
        return 0
    # imported only here, so that writing works with the module missing
    from tadic._presentations import presentation

    bad = 0
    for (p, a), want in table.items():
        try:
            have = presentation(p, a)
        except ValueError:
            have = None
        if have != want:
            print(f"F_({p}^{a}): committed {have}, search {want}")
            bad += 1
    if args.limit >= FIELD_LIMIT and MODULE.read_text() != render(table):
        print(f"{MODULE.relative_to(ROOT)} differs from the rendered table")
        bad += 1
    if bad:
        return 1
    print(f"{len(table)} fields agree with the committed table")
    return 0


if __name__ == "__main__":
    sys.exit(main())
