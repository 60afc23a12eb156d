import pytest

from varchenko.apartments import (
    chambers_in,
    enumerate_apartments,
    faces_in,
    find_apartment,
)
from varchenko.faces import centralization, closure_faces
from varchenko.geometry import MINUS, PLUS, ZERO
from oracles import central_apartment_around, touching_hyperplanes


def test_empty_subset_single_apartment(crossing):
    apartments = enumerate_apartments(crossing, [])
    assert len(apartments) == 1
    assert faces_in(crossing, apartments[0]) == list(crossing.faces)
    assert chambers_in(crossing, apartments[0]) == crossing.chambers()


def test_single_hyperplane_two_apartments(r1, crossing):
    assert len(enumerate_apartments(r1, [0])) == 2
    assert len(enumerate_apartments(crossing, [0])) == 2


def test_faces_in_half_plane(crossing):
    apartment = find_apartment(crossing, (0,), (PLUS,))
    # base signs are one +1 or -1 per subset member, or there is no apartment
    assert find_apartment(crossing, (0,), (-7,)) is None
    assert find_apartment(crossing, (0,), (ZERO,)) is None
    assert find_apartment(crossing, (0,), (PLUS, MINUS)) is None
    assert find_apartment(crossing, (0, 1), (PLUS,)) is None
    inside = {f.signs for f in faces_in(crossing, apartment)}
    assert inside == {(PLUS, PLUS), (PLUS, ZERO), (PLUS, MINUS)}
    assert len(chambers_in(crossing, apartment)) == 2


def test_chambers_in_deterministic_order(two_pairs):
    apartment = find_apartment(two_pairs, (0,), (MINUS,))
    chambers = chambers_in(two_pairs, apartment)
    assert len(chambers) == 6
    assert [c.id for c in chambers] == sorted(c.id for c in chambers)


def test_apartments_partition_chambers(crossing, generic3, two_pairs):
    for complex_ in (crossing, generic3, two_pairs):
        m = complex_.arrangement.size
        for mask in range(1 << m):
            subset = [h for h in range(m) if mask >> h & 1]
            apartments = enumerate_apartments(complex_, subset)
            for chamber in complex_.chambers():
                homes = [a for a in apartments if a.matches(chamber)]
                assert len(homes) == 1


def test_faces_in_closed_under_closure_within_chambers(generic3):
    m = generic3.arrangement.size
    for mask in range(1 << m):
        subset = [h for h in range(m) if mask >> h & 1]
        for apartment in enumerate_apartments(generic3, subset):
            inside = set(faces_in(generic3, apartment))
            for chamber in chambers_in(generic3, apartment):
                for face in closure_faces(generic3, chamber):
                    if apartment.matches(face):
                        assert face in inside


def test_central_apartment_around_vertex_is_everything(crossing):
    vertex = crossing.find((ZERO, ZERO))
    apartment = central_apartment_around(crossing, vertex)
    assert apartment.subset == ()
    assert len(faces_in(crossing, apartment)) == len(crossing.faces)


def test_central_apartment_around_ray(crossing):
    ray = crossing.find((ZERO, PLUS))
    apartment = central_apartment_around(crossing, ray)
    assert apartment.subset == (1,)
    assert apartment.base_signs == (PLUS,)


def test_central_apartment_around_generic_vertex(generic3):
    vertex = generic3.find((ZERO, ZERO, MINUS))
    assert vertex is not None and vertex.dim == 0
    apartment = central_apartment_around(generic3, vertex)
    assert apartment.subset == (2,)
    assert apartment.base_signs == (MINUS,)
    assert apartment.matches(vertex)


def test_central_apartment_rejects_chamber(crossing):
    with pytest.raises(ValueError):
        central_apartment_around(crossing, crossing.find((PLUS, PLUS)))


def test_central_apartment_is_central_with_center(generic3, two_pairs):
    # Inside the apartment around E, every non-chamber face lies only on
    # hyperplanes through E.
    for complex_ in (generic3, two_pairs):
        for face in complex_.faces:
            if face.is_chamber:
                continue
            apartment = central_apartment_around(complex_, face)
            center = centralization(face)
            for inner in faces_in(complex_, apartment):
                if not inner.is_chamber:
                    assert centralization(inner) <= center


def test_touching_hyperplanes_half_plane(two_pairs):
    apartment = find_apartment(two_pairs, (0,), (MINUS,))
    # H1 carries the apartment's own wall; H2, H3, H4 all cross y < 0.
    assert touching_hyperplanes(two_pairs, apartment) == {0, 1, 2, 3}


def test_touching_hyperplanes_quadrant(crossing):
    apartment = find_apartment(crossing, (0, 1), (PLUS, PLUS))
    assert touching_hyperplanes(crossing, apartment) == {0, 1}


def test_subset_validation(crossing):
    with pytest.raises(ValueError):
        enumerate_apartments(crossing, [5])
    with pytest.raises(ValueError):
        enumerate_apartments(crossing, [0, 0])


@pytest.mark.parametrize("subset", [(-1,), (5,), (0, -1)])
def test_find_apartment_checks_the_subset_before_its_mask(r1, crossing, subset):
    # a negative index would make a negative shift in the apartment's mask
    for complex_ in (r1, crossing):
        m = complex_.arrangement.size
        bad = min(subset) if min(subset) < 0 else max(subset)
        with pytest.raises(ValueError, match=rf"^hyperplane index {bad} out of range 0\.\.{m - 1}$"):
            find_apartment(complex_, subset, (PLUS,) * len(subset))
