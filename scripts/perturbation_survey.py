#!/usr/bin/env python3
"""Survey obstruction certificates over a family of perturbation candidates.

For the backward shift T (index +1) this sweeps commuting candidates
K = q(T) across small polynomial coefficients and prints the certified
spectral-radius lower bound and the verdict for each.  Candidates with a
nonzero constant term are bounded below on every kernel layer (their
corner blocks are [q(0)]), so they come out obstructed; candidates with
q(0) = 0 are inconclusive for this route.

Usage: python3 scripts/perturbation_survey.py [max_level]
"""

import itertools
import sys

from koszulkit.ell2 import make_catalog_operator
from koszulkit.tower import kernel_tower, obstruction_certificate


def survey(max_level: int = 10):
    T = make_catalog_operator("adjoint_shift")
    tower = kernel_tower(T, max_level)
    print(f"{'q(z)':>16} | {'r':>10} | verdict")
    print("-" * 42)
    for c0, c1, c2 in itertools.product((0, 1, 2), (-1, 0, 1), (0, 1)):
        if c0 == c1 == c2 == 0:
            continue
        K = T.poly([c0, c1, c2])
        cert = obstruction_certificate(tower, K)
        q = " + ".join(
            f"{c}z^{k}" if k else str(c)
            for k, c in enumerate((c0, c1, c2))
            if c
        )
        print(f"{q:>16} | {cert.r:10.6f} | {cert.verdict}")


if __name__ == "__main__":
    survey(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
