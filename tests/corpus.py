"""Seeded corpus of small random line arrangements for sweep-style tests."""

import itertools
import random
from fractions import Fraction

from varchenko.geometry import Arrangement, Hyperplane, canonical

# Degenerate input the bundled files lack: parallel classes, concurrent
# hyperplanes and a pencil of planes in R^3 (it fails lemma_chm by design).
DEGENERATE = {
    "parallel_classes": "dim 2\n1 0 0\n1 0 2\n0 1 0\n0 1 3\n1 1 1\n1 1 5\n",
    "concurrent": "dim 2\n1 0 0\n0 1 0\n1 1 0\n1 0 2\n1 -2 3\n",
    "pencil3": "dim 3\n1 0 0 0\n0 1 0 0\n1 1 0 0\n0 0 1 1\n0 0 1 -2\n",
}


def distinct_hyperplanes(n, coeff_bound) -> int:
    """How many distinct hyperplanes of R^n have integer data in
    [-coeff_bound, coeff_bound]."""
    values = range(-coeff_bound, coeff_bound + 1)
    return len(
        {
            canonical(data[:n], data[n])[0]
            for data in itertools.product(values, repeat=n + 1)
            if any(data[:n])
        }
    )


def random_arrangement(seed, n=2, m=4, coeff_bound=3) -> Arrangement:
    """A random arrangement with small integer data; duplicates rejected.
    Raises ValueError when m exceeds the distinct hyperplanes the bound
    allows, which would leave the draw without an end."""
    # the hyperplanes x_i = b alone are n (2 coeff_bound + 1) distinct ones
    # (none when coeff_bound is 0), so only a larger m needs the full count
    if m > (n * (2 * coeff_bound + 1) if coeff_bound else 0):
        available = distinct_hyperplanes(n, coeff_bound)
        if m > available:
            raise ValueError(
                f"m={m} exceeds the {available} distinct hyperplanes of R^{n} "
                f"with coefficients in [-{coeff_bound}, {coeff_bound}]"
            )
    rng = random.Random(f"arrangement:{seed}")
    hyperplanes = []
    seen = set()
    while len(hyperplanes) < m:
        normal = tuple(
            Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(n)
        )
        if all(a == 0 for a in normal):
            continue
        offset = Fraction(rng.randint(-coeff_bound, coeff_bound))
        candidate = Hyperplane(normal, offset)
        key = candidate.normalized_key()
        if key in seen:
            continue
        seen.add(key)
        hyperplanes.append(candidate)
    return Arrangement(n, hyperplanes)


def sweep_arrangements():
    """The seeded n=2 random corpus: a mix of sizes m = 2..4."""
    specs = [(seed, 4) for seed in (11, 12, 13, 14)]
    specs += [(seed, 3) for seed in (21, 22, 23)]
    specs += [(31, 2)]
    return [
        (f"random-{seed}-m{m}", random_arrangement(seed, n=2, m=m))
        for seed, m in specs
    ]


def all_subsets(m):
    for mask in range(1 << m):
        yield [h for h in range(m) if mask >> h & 1]
