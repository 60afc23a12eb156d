"""Seeded benchmark corpus: arrangement files plus the CLI argv for each item.

Nothing here imports `varchenko`: the program only ever sees the `.arr`
files written by `write_corpus` and the argv a user would type.

Item kinds:
  gp       random integer arrangement in general position (coefficients in
           [-5, 5]); its f-vector, and so its LP and face counts, depend
           only on (n, m), which keeps the work steady across seeds.
  cyclic   general position with the combinatorics fixed as well: the
           hyperplane of parameter t is {x : x1 + t x2 + ... + t^(n-1) xn
           = -t^n}. A point's sign vector is the sign pattern of a monic
           degree-n polynomial at the parameters, so every draw has the same
           face poset. Parameters ascend and every hyperplane has the same
           orientation, so the chamber order is fixed too. `apartments` uses
           it because the symbolic determinant costs about 2^N in an
           apartment's chamber count N and depends on the chamber order,
           both of which a random draw would move from seed to seed. Of the
           two uniform orientations, the negative one is used: at R^2 m=6
           it costs 7 s against 4 s, near the middle of random draws.
  fixed    one of the degenerate arrangements below, or a bundled example.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

COEFF_BOUND = 5

# Degenerate arrangements with parallel classes and concurrent hyperplanes.
# They do not depend on the seed; their oracle is the 3^m brute force.
DEGENERATE = {
    # three parallel classes of two lines each
    "parallel_classes": "dim 2\n1 0 0\n1 0 2\n0 1 0\n0 1 3\n1 1 1\n1 1 5\n",
    # three lines through the origin, one line parallel to x = 0, one generic
    "concurrent": "dim 2\n1 0 0\n0 1 0\n1 1 0\n1 0 2\n1 -2 3\n",
    # a pencil of three planes through the z axis, plus two parallel planes
    "pencil3": "dim 3\n1 0 0 0\n0 1 0 0\n1 1 0 0\n0 0 1 1\n0 0 1 -2\n",
}

IDENTITY_CHECKS = ("tits", "witt", "lemma_ch", "lemma_chm", "v_path", "mad_recurrence")


@dataclass(frozen=True)
class Spec:
    kind: str  # "gp", "cyclic" or "fixed"
    n: int = 0
    m: int = 0
    source: str = ""  # DEGENERATE key, or "bundled:<file stem>" for fixed


# Why each workload exists is recorded in BENCHMARK.json; sizes are set so a
# whole pass over a workload takes a few seconds (see README.md).
WORKLOADS = {
    "enumerate": (
        Spec("gp", 2, 7),
        Spec("gp", 3, 6),
        Spec("fixed", source="parallel_classes"),
        Spec("fixed", source="concurrent"),
        Spec("fixed", source="pencil3"),
    ),
    "identities": (
        Spec("gp", 2, 5),
        Spec("gp", 3, 4),
        Spec("gp", 3, 4),
        Spec("fixed", source="bundled:parallel2"),
        Spec("fixed", source="bundled:generic3"),
        Spec("fixed", source="bundled:two_pairs"),
    ),
    "apartments": (
        Spec("cyclic", 2, 5),
        Spec("cyclic", 2, 6),
        Spec("fixed", source="bundled:two_pairs"),
        Spec("fixed", source="bundled:r3"),
    ),
}


@dataclass
class Item:
    name: str
    path: Path
    argv: list
    n: int
    hyperplanes: list  # [(normal tuple of Fraction, offset Fraction)]
    general_position: bool


def rank(rows) -> int:
    """Rank over Q by fraction Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    r = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            factor = rows[i][col] / rows[r][col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def in_general_position(n, hyperplanes) -> bool:
    """Any k <= n normals independent and no n + 1 hyperplanes concurrent."""
    m = len(hyperplanes)
    for k in range(2, min(n, m) + 1):
        for subset in combinations(hyperplanes, k):
            if rank([a for a, _ in subset]) < k:
                return False
    for subset in combinations(hyperplanes, n + 1):
        if rank([list(a) + [b] for a, b in subset]) < n + 1:
            return False
    return True


def random_general_position(rng, n, m):
    while True:
        hyperplanes = []
        while len(hyperplanes) < m:
            normal = tuple(
                Fraction(rng.randint(-COEFF_BOUND, COEFF_BOUND)) for _ in range(n)
            )
            if any(normal):
                offset = Fraction(rng.randint(-COEFF_BOUND, COEFF_BOUND))
                hyperplanes.append((normal, offset))
        if in_general_position(n, hyperplanes):
            return hyperplanes


def random_cyclic(rng, n, m):
    hyperplanes = []
    for t in sorted(rng.sample(range(-4, 5), m)):
        scale = -rng.randint(1, 3)
        normal = tuple(Fraction(scale * t**i) for i in range(n))
        hyperplanes.append((normal, Fraction(-scale * t**n)))
    return hyperplanes


def parse_text(text):
    """Minimal reader for the corpus's own `dim n` files (no comments kept)."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0][1])
    hyperplanes = []
    for tokens in lines[1:]:
        values = [Fraction(tok) for tok in tokens]
        hyperplanes.append((tuple(values[:n]), values[n]))
    return n, hyperplanes


def arrangement_text(n, hyperplanes) -> str:
    rows = [f"dim {n}"]
    rows += [" ".join(str(v) for v in (*a, b)) for a, b in hyperplanes]
    return "\n".join(rows) + "\n"


def argv_for(workload, path, n, cli_seed):
    if workload == "enumerate":
        return ["faces", str(path), "--json"]
    if workload == "identities":
        # lemma_chm is a plane-level lemma and fails by design for n = 3.
        checks = [c for c in IDENTITY_CHECKS if n == 2 or c != "lemma_chm"]
        return ["verify", str(path), "--checks", ",".join(checks), "--json",
                "--seed", str(cli_seed)]
    if workload == "apartments":
        return ["verify", str(path), "--checks", "beta,factorization",
                "--all-apartments", "--json", "--seed", str(cli_seed)]
    raise ValueError(f"unknown workload {workload!r}")


def write_corpus(workload, seed, directory: Path, data_dir: Path):
    """Draw the workload's arrangements from `seed`, write them, return items."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    cli_seed = rng.randrange(2**31)
    items = []
    for index, spec in enumerate(WORKLOADS[workload]):
        if spec.kind == "fixed":
            if spec.source.startswith("bundled:"):
                stem = spec.source.split(":", 1)[1]
                text = (data_dir / f"{stem}.arr").read_text()
            else:
                stem, text = spec.source, DEGENERATE[spec.source]
            n, hyperplanes = parse_text(text)
            name = stem
        else:
            draw = random_general_position if spec.kind == "gp" else random_cyclic
            n, hyperplanes = spec.n, draw(rng, spec.n, spec.m)
            text = arrangement_text(n, hyperplanes)
            name = f"{spec.kind}_r{n}_m{spec.m}"
        name = f"{index}_{name}"
        path = directory / f"{name}.arr"
        path.write_text(text)
        items.append(
            Item(name, path, argv_for(workload, path, n, cli_seed), n,
                 hyperplanes, in_general_position(n, hyperplanes))
        )
    return items


# -- closed forms for arrangements in general position ------------------------


def f_vector(n, m):
    """Faces per dimension k: C(m, n-k) * sum_{i<=k} C(m-n+k, i)."""
    return [
        comb(m, n - k) * sum(comb(m - n + k, i) for i in range(k + 1))
        for k in range(n + 1)
    ]


def nested_pairs(n, m):
    """Pairs (F, C), C a chamber and F <= C: a codim-c face lies in 2^c closures."""
    return sum(f * 2 ** (n - k) for k, f in enumerate(f_vector(n, m)))


def apartment_total(n, m):
    """Apartments over all subsets: s hyperplanes make sum_{i<=n} C(s, i) chambers."""
    return sum(
        comb(m, s) * sum(comb(s, i) for i in range(n + 1)) for s in range(m + 1)
    )
