import pytest

from varchenko.euler import lemma_ch_check, lemma_chm_check
from varchenko.faces import enumerate_faces
from varchenko.files import bundled_text, parse_arrangement
from varchenko.tits import tits_semigroup_check
from varchenko.varmatrix import mad_recurrence_check, v_path_identity_check
from varchenko.witt import witt_sweep

BUNDLED = ("r1", "crossing", "generic3", "parallel2", "two_pairs", "r3")

# the checks that run on a whole face complex
CHECKS = (
    tits_semigroup_check,
    witt_sweep,
    lemma_ch_check,
    lemma_chm_check,
    v_path_identity_check,
    mad_recurrence_check,
)


def check_counts(complex_):
    """Per check in CHECKS, its status and the counts in its details, which
    stay the same when faces are renumbered, unlike face ids."""
    return [
        (
            result.status,
            {
                key: len(value) if isinstance(value, list) else value
                for key, value in result.details.items()
                if isinstance(value, (int, list))
            },
        )
        for result in (check(complex_) for check in CHECKS)
    ]


@pytest.fixture(scope="session")
def complexes():
    """One face complex per bundled arrangement, built once per session."""
    return {
        name: enumerate_faces(parse_arrangement(bundled_text(f"{name}.arr")))
        for name in BUNDLED
    }


@pytest.fixture(scope="session")
def r1(complexes):
    return complexes["r1"]


@pytest.fixture(scope="session")
def crossing(complexes):
    return complexes["crossing"]


@pytest.fixture(scope="session")
def generic3(complexes):
    return complexes["generic3"]


@pytest.fixture(scope="session")
def parallel2(complexes):
    return complexes["parallel2"]


@pytest.fixture(scope="session")
def two_pairs(complexes):
    return complexes["two_pairs"]


@pytest.fixture(scope="session")
def r3(complexes):
    return complexes["r3"]
