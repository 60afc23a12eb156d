"""The seeded test corpus refuses draws it cannot finish."""

import signal

import pytest

from corpus import distinct_hyperplanes, random_arrangement


@pytest.fixture
def deadline():
    """Fail a test that runs past 5 s instead of letting it hang."""

    def expire(signum, frame):
        raise TimeoutError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_random_arrangement_raises_when_the_bound_allows_too_few(deadline):
    # with coefficients in [-1, 1] the only points of the line are -1, 0, 1
    assert distinct_hyperplanes(1, 1) == 3
    with pytest.raises(ValueError, match="exceeds the 3 distinct hyperplanes"):
        random_arrangement(0, n=1, m=4, coeff_bound=1)
    with pytest.raises(ValueError, match="exceeds the 0 distinct hyperplanes"):
        random_arrangement(0, n=2, m=1, coeff_bound=0)


def test_random_arrangement_draws_every_hyperplane_the_bound_allows(deadline):
    # 4 directions times 3 offsets: the lines of R^2 with data in [-1, 1]
    assert distinct_hyperplanes(2, 1) == 12
    lines = random_arrangement(0, n=2, m=12, coeff_bound=1).hyperplanes
    assert len({h.normalized_key() for h in lines}) == 12
    assert len(random_arrangement(0, n=1, m=3, coeff_bound=1).hyperplanes) == 3
