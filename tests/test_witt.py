from hypothesis import given, settings, strategies as st

from varchenko.euler import classify
from varchenko.faces import closure_faces
from varchenko.geometry import MINUS, PLUS, ZERO
from varchenko.report import verdict
from varchenko.tits import rank
from varchenko.witt import unpack, witt2_check, witt_lhs, witt_rhs, witt_sums, witt_sweep
from oracles import witt_pair_failures
from test_tits import corrupted_generic3


def test_witt_equal_faces(crossing):
    # With A = D the interval is {D} and DC = D for every chamber, so
    # both sides are (-1)^{rk D} on the whole chamber line.
    d = crossing.find((PLUS, PLUS))
    sign = -1 if rank(crossing, d) % 2 else 1
    lhs = witt_lhs(crossing, d, d)
    assert lhs == [sign] * len(crossing.chamber_ids)
    assert lhs == witt_rhs(crossing, d, d)


def test_witt_r1_hand_expansion(r1):
    # A = (0), D = (+): chambers ordered (+), (-).
    a, d = r1.find((ZERO,)), r1.find((PLUS,))
    assert witt_lhs(r1, a, d) == [0, -1]
    assert witt_rhs(r1, a, d) == [0, -1]


def test_witt_crossing_vertex(crossing):
    a = crossing.find((ZERO, ZERO))
    d = crossing.find((PLUS, PLUS))
    assert witt_lhs(crossing, a, d) == witt_rhs(crossing, a, d)


def test_witt_all_nested_pairs(complexes):
    for complex_ in complexes.values():
        for d in complex_.chambers():
            for a in closure_faces(complex_, d):
                assert witt_lhs(complex_, a, d) == witt_rhs(complex_, a, d)


def test_witt2_skips_type1(r1):
    for d in r1.chambers():
        assert witt2_check(r1, d).status == "skipped"


def test_witt2_slab_diagonal(parallel2):
    slab = parallel2.find((PLUS, MINUS))
    result = witt2_check(parallel2, slab)
    assert result.status == "pass"
    # c_A = 1 and chi(closure) = -1, so the diagonal is +1
    assert result.details["diagonal"] == 1


def test_witt2_triangle_diagonal(generic3):
    triangle = generic3.find((PLUS, PLUS, MINUS))
    result = witt2_check(generic3, triangle)
    assert result.status == "pass"
    assert result.details["diagonal"] == 1


def test_witt2_eligible_statuses(complexes):
    for complex_ in complexes.values():
        for d in complex_.chambers():
            result = witt2_check(complex_, d)
            eligible = classify(complex_, d) in ("bounded", "type2", "type3")
            assert result.status == ("pass" if eligible else "skipped")


def test_witt_sweep_passes(complexes):
    for complex_ in complexes.values():
        result = witt_sweep(complex_)
        assert result.status == "pass"
        assert result.details["nested_pairs"] > 0


def test_witt_sweep_reports_a_corrupted_table_entry():
    complex_, corrupted = corrupted_generic3()
    expected = witt_pair_failures(complex_, corrupted)
    assert expected == [{"A": 4, "D": 0}, {"A": 4, "D": 8}]
    result = witt_sweep(complex_)
    assert result.status == "fail"
    assert result.details["pair_failures"] == expected


def test_verdict_passes_when_every_list_is_empty():
    details = {"checked": 3}
    result = verdict("example", details, violations=[], failures=[])
    assert (result.name, result.status, result.details) == ("example", "pass", details)
    assert details == {"checked": 3}


def test_verdict_fails_with_every_list_when_one_is_nonempty():
    result = verdict("example", {"checked": 3}, violations=[1], failures=[])
    assert result.status == "fail"
    assert result.details == {"checked": 3, "violations": [1], "failures": []}
    # the corrupted entry breaks nested pairs only, yet the empty closure
    # list is reported beside them
    result = witt_sweep(corrupted_generic3()[0])
    assert result.status == "fail"
    assert result.details["pair_failures"] and result.details["closure_failures"] == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_fields_round_trip(complexes, data):
    # Every coefficient a Witt sum can hold, up to len(closure D) in size,
    # packs at the width `witt_sums` chose for D and unpacks unchanged.
    complex_ = complexes[data.draw(st.sampled_from(sorted(complexes)))]
    d = data.draw(st.sampled_from(complex_.chambers()))
    bound = len(closure_faces(complex_, d))
    width = witt_sums(complex_, d)[0]
    count = len(complex_.chamber_ids)
    extreme = st.sampled_from([bound, -bound, 0])
    coefficient = st.one_of(extreme, st.integers(-bound, bound))
    vector = data.draw(st.lists(coefficient, min_size=count, max_size=count))
    packed = sum(k << width * i for i, k in enumerate(vector))
    assert unpack(packed, width, count) == vector
