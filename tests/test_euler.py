import random

from varchenko.euler import (
    BOUNDED,
    TYPE1,
    TYPE3,
    UNKNOWN,
    _panel_masks,
    classify,
    euler_closure,
    lemma_ch_check,
    lemma_chm_check,
)
from varchenko.faces import enumerate_faces
from varchenko.files import parse_arrangement
from varchenko.geometry import Arrangement, Hyperplane, MINUS, PLUS, ZERO
from corpus import DEGENERATE, random_arrangement
from oracles import plane_chamber_type_scan


def test_euler_closure_examples(r1, crossing, generic3):
    triangle = generic3.find((PLUS, PLUS, MINUS))
    assert euler_closure(generic3, triangle) == 1  # 1 - 3 + 3
    assert euler_closure(r1, r1.find((PLUS,))) == 0
    assert euler_closure(crossing, crossing.find((PLUS, PLUS))) == 0


def test_classify_examples(r1, generic3, parallel2):
    assert classify(generic3, generic3.find((PLUS, PLUS, MINUS))) == BOUNDED
    assert classify(r1, r1.find((PLUS,))) == TYPE1
    slab = parallel2.find((PLUS, MINUS))
    assert classify(parallel2, slab) == TYPE3
    assert euler_closure(parallel2, slab) == -1


def test_classify_full_space_is_unknown():
    complex_ = enumerate_faces(Arrangement(2, []))
    assert classify(complex_, complex_.faces[0]) == UNKNOWN


def _one_parallel_class(seed, m):
    """m distinct lines of R^2 with one seeded normal: its inner chambers
    are the only ones with two whole walls."""
    rng = random.Random(f"parallel:{seed}")
    normal = (rng.randint(-2, 2) or 1, rng.randint(-2, 2))
    offsets = rng.sample(range(-4, 5), m)
    return Arrangement(2, [Hyperplane(normal, b) for b in offsets])


def _plane_corpus():
    for seed in range(8):
        yield random_arrangement(seed, 1, 1 + seed % 4, coeff_bound=2)
        yield random_arrangement(seed, 2, 3 + seed % 4, coeff_bound=1)
        yield random_arrangement(seed, 2, 4 + seed % 3, coeff_bound=2)
        yield _one_parallel_class(seed, 2 + seed % 3)
    for text in (DEGENERATE["parallel_classes"], DEGENERATE["concurrent"]):
        yield parse_arrangement(text)
    yield Arrangement(2, [])


def test_plane_types_match_the_sign_vector_scan():
    tags = set()
    concurrent = False
    for arrangement in _plane_corpus():
        complex_ = enumerate_faces(arrangement)
        for chamber in complex_.chambers():
            tag = classify(complex_, chamber)
            assert tag == plane_chamber_type_scan(complex_, chamber), (arrangement, chamber)
            tags.add(tag)
        concurrent |= any(f.signs.count(ZERO) >= 3 for f in complex_.faces if f.dim == 0)
    # the corpus reaches every type a line arrangement has, and a point on three lines
    assert tags == {BOUNDED, TYPE1, TYPE3, UNKNOWN}
    assert concurrent


def test_classify_r3_types(r3):
    tags = {classify(r3, c) for c in r3.chambers()}
    assert BOUNDED in tags and TYPE1 in tags
    assert UNKNOWN not in tags


def minus_panels(complex_, chamber, subset):
    """chi of the closed chamber minus the closed panels of subset, read
    off the chamber's memoized panel masks."""
    masks = _panel_masks(complex_, chamber)
    return masks.chi_minus(sum(1 << masks.panels.index(f) for f in subset))


def test_minus_panels_crossing_single_ray(crossing):
    chamber = crossing.find((PLUS, PLUS))
    ray = crossing.find((ZERO, PLUS))
    assert minus_panels(crossing, chamber, [ray]) == 0


def test_minus_panels_triangle_single_edge(generic3):
    triangle = generic3.find((PLUS, PLUS, MINUS))
    edge = generic3.find((PLUS, PLUS, ZERO))
    assert minus_panels(generic3, triangle, [edge]) == 0


def test_minus_panels_type1_bounded_union(generic3):
    # The chamber across the triangle's hypotenuse is unbounded with a
    # single bounded panel; removing it leaves chi = -1.
    chamber = generic3.find((PLUS, PLUS, PLUS))
    assert classify(generic3, chamber) == TYPE1
    edge = generic3.find((PLUS, PLUS, ZERO))
    assert generic3.face_is_bounded(edge)
    assert minus_panels(generic3, chamber, [edge]) == -1


def test_lemma_checks_pass_on_plane_corpus(complexes):
    for name in ("r1", "crossing", "generic3", "parallel2", "two_pairs"):
        complex_ = complexes[name]
        assert lemma_ch_check(complex_).status == "pass"
        assert lemma_chm_check(complex_).status == "pass"


def test_lemma_ch_parallel_two_lines(parallel2):
    result = lemma_ch_check(parallel2)
    assert result.status == "pass"
    assert result.details["skipped"] == []


def test_lemma_ch_passes_r3(r3):
    assert lemma_ch_check(r3).status == "pass"


def test_lemma_chm_counterexample_in_r3(r3):
    # In R^3 two unbounded panels can satisfy the codimension-2 adjacency
    # hypothesis and still disconnect the chamber's frontier; the two-case
    # prediction does not cover that configuration, and the check reports
    # it rather than papering over it. Frozen: the six symmetric instances
    # in the bundled four-plane arrangement.
    result = lemma_chm_check(r3)
    assert result.status == "fail"
    failures = result.details["failures"]
    assert len(failures) == 6
    assert all(f["chi"] == 1 and f["expected"] == 0 for f in failures)
    assert all(len(f["panels"]) == 2 for f in failures)
    chamber = r3.face(6)
    assert chamber.signs == (PLUS, PLUS, MINUS, PLUS)
    assert {tuple(f["panels"]) for f in failures} >= {(3, 7)}
