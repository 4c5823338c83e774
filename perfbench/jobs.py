"""Workload definitions: fixed multisets of CLI job templates.

A template is one `tadic` command line.  `{c}` stands for a coefficient
`g^e` and `{s}` for a survey seed; both come from a small fixed pool, so
the whole job space of a workload is finite and every job in it has a
recorded golden digest (see goldens.json).  The benchmark seed only picks
the pool entry of each template and the order of the jobs; every seed runs
the same templates, so cost does not depend on the seed.
"""

from __future__ import annotations

import random
import shlex

# pool entries a seed can pick for `{c}` (as g^e) and `{s}`
COEFF_EXPONENTS = (1, 2, 3, 5)
SURVEY_SEEDS = (1, 2, 3, 4)

SIMPLEX = "x1+x2+{c}*x1^-1*x2^-1"

# Short sums-route jobs.  Every field recurs across jobs and `survey`
# rebuilds the same trace table once per sample, so per-field caching and
# the fixed per-job costs (parse, nondegeneracy, exp recurrence, polygons,
# JSON) show here.
FAMILIES = (
    'np "x1^3+{c}*x1" --p 7 --deg-s 4 --m 1',
    'cfun "x1^3+{c}*x1" --p 7 --deg-s 4',
    'lfun "{c}*x1^4+x1^-1" --p 7 --deg-s 4',
    'survey "x1^3+x1" --p 7 --samples 3 --deg-s 4 --seed {s}',
    'np "x1^4+{c}*x1" --p 5 --deg-s 5',
    'cfun "x1^4+{c}*x1" --p 5 --deg-s 5',
    'survey "x1^4+x1" --p 5 --samples 3 --deg-s 5 --seed {s}',
    f'np "{SIMPLEX}" --p 5 --deg-s 3 --m 1',
    f'cfun "{SIMPLEX}" --p 5 --deg-s 3',
    'np "x1^2+{c}*x1^-1" --p 3 --a 2 --deg-s 4',
    'lfun "x1^2+{c}*x1^-1" --p 3 --a 2 --deg-s 4',
    'survey "x1^2+x1^-1" --p 3 --a 2 --samples 3 --deg-s 3 --seed {s}',
    f'lfun "{SIMPLEX}" --p 3 --deg-s 5',
    f'np "{SIMPLEX}" --p 2 --a 2 --deg-s 3',
    f'np "{SIMPLEX}" --p 2 --deg-s 8',
    f'cfun "{SIMPLEX}" --p 2 --deg-s 8',
    'np "x1*x2+x1^-1+{c}*x2^-1" --p 2 --deg-s 8',
    'survey "x1+x2+x1^-1*x2^-1" --p 2 --samples 3 --deg-s 7 --seed {s}',
    'np "x1^2*x2+x2^-1+{c}*x1^-1" --p 3 --deg-s 5 --m 1',
    'cfun "x1^2*x2+x2^-1+{c}*x1^-1" --p 3 --deg-s 5',
    'survey "x1^2*x2+x2^-1+x1^-1" --p 3 --samples 3 --deg-s 4 --seed {s}',
    'np "x1^2+x2^2+{c}*x1^-1*x2^-1" --p 5 --deg-s 3 --m 1',
    'np "x1^3+{c}*x1" --p 2 --a 2 --deg-s 5',
    'lfun "x1^3+{c}*x1" --p 2 --a 2 --deg-s 6',
    'survey "x1^3+x1" --p 2 --a 2 --samples 3 --deg-s 5 --seed {s}',
)

# Sums-route jobs on large tori; no two jobs share their largest field
# (p, a*k), so no cross-job cache can help.  The first half are
# 1-variable (trace table dominates), the rest 2-variable (per-point walk
# and binomial accumulation dominate).
TOWERS = (
    'np "x1^3+{c}*x1" --p 7 --deg-s 5 --prec-t 24',
    'congruence "{c}*x1" --p 5 --m 2 -k 6 --prec-p 3 --prec-t 36',
    'sum "x1^3+{c}*x1" --p 2 -k 13 --prec-t 24',
    'sum "x1^4+{c}*x1" --p 3 --a 2 -k 4',
    'sum "x1^2+{c}*x1^-1" --p 2 --a 2 -k 6',
    'sum "x1^4+{c}*x1^-1" --p 3 -k 9',
    f'sum "{SIMPLEX}" --p 2 -k 9',
    f'sum "{SIMPLEX}" --p 7 -k 3',
    'sum "x1*x2+x1^-1+{c}*x2^-1" --p 5 --a 2 -k 2',
    'sum "x1+{c}*x2" --p 3 -k 6',
    f'np "{SIMPLEX}" --p 2 --a 2 --deg-s 4',
)

# Operator-route jobs: Berkowitz over pi-series (dwork), both routes
# (verify), cap-1 criterion determinants (faces).
OPERATOR = (
    f'dwork "{SIMPLEX}" --p 3 --basis 5 --deg-s 5',
    f'dwork "{SIMPLEX}" --p 3 --basis 4 --deg-s 4',
    f'dwork "{SIMPLEX}" --p 2 --basis 5 --deg-s 5 --prec-t 5',
    'dwork "x1^4+{c}*x1" --p 3 --basis 6 --deg-s 6',
    'dwork "x1^3+{c}*x1" --p 2 --a 2 --basis 6 --deg-s 4',
    'dwork "x1^2+{c}*x1^-1" --p 3 --a 2 --basis 6 --deg-s 6',
    f'verify "{SIMPLEX}" --p 3 --a 2 --deg-s 2',
    'verify "x1^3+{c}*x1" --p 2 --a 2 --deg-s 3',
    f'verify "{SIMPLEX}" --p 3 --basis 5 --deg-s 4',
    f'faces "{SIMPLEX}" --p 3 --hodge-depth 3',
    f'faces "{SIMPLEX}" --p 2 --hodge-depth 3',
    f'faces "{SIMPLEX}" --p 5 --hodge-depth 3',
    f'faces "{SIMPLEX}" --p 3 --a 2 --hodge-depth 2',
)

WORKLOADS = {"families": FAMILIES, "towers": TOWERS, "operator": OPERATOR}


def instantiate(template: str, pick: int) -> str:
    """The job line for pool entry `pick` of a template."""
    return template.format(c=f"g^{COEFF_EXPONENTS[pick]}", s=SURVEY_SEEDS[pick])


def variants(template: str):
    """Every distinct job line a seed can produce from one template."""
    return sorted({instantiate(template, i) for i in range(len(COEFF_EXPONENTS))})


def job_space(workload: str):
    """Every job line of the workload, for recording goldens."""
    return sorted({line for t in WORKLOADS[workload] for line in variants(t)})


def stream(workload: str, seed: int):
    """The seeded job list of one round: a pool pick per template, shuffled."""
    rng = random.Random(f"{workload}/{seed}")
    lines = [instantiate(t, rng.randrange(len(COEFF_EXPONENTS))) for t in WORKLOADS[workload]]
    rng.shuffle(lines)
    return lines


def argv(line: str):
    return shlex.split(line)
