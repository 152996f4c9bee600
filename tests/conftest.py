from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

# every invariant runs under at least 200 generated cases
settings.register_profile(
    "laws",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
# ten times the examples, for a run that exercises the term compiler harder:
# pytest tests/test_term_program.py --hypothesis-profile=deep
settings.register_profile(
    "deep",
    parent=settings.get_profile("laws"),
    max_examples=2000,
)
settings.load_profile("laws")


@pytest.fixture
def rng_seed():
    return 0


def nonzero(fr: Fraction) -> bool:
    return fr != 0
