from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from mpmath import libmp

# every invariant runs under at least 200 generated cases
settings.register_profile(
    "laws",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
# ten times the examples, for a run that exercises the term compiler harder
# (pytest tests/test_term_program.py --hypothesis-profile=deep); the pi law
# in test_functions.py also draws precisions up to 10^5 bits under it, and
# CI runs the from_quotient and sin/cos laws under it too
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


# pi from arctangent formulas, kept here apart from the library's pi
MACHIN = ((16, 5), (-4, 239))  # pi = 16 arctan(1/5) - 4 arctan(1/239)
EULER = ((4, 2), (4, 3))  # pi = 4 arctan(1/2) + 4 arctan(1/3)


def arctan_recip_bracket(m: int, bits: int) -> tuple[int, int]:
    """Integers lo <= arctan(1/m) 2^bits <= hi for an integer m >= 2.

    The j-th term of sum_j (-1)^j/((2j+1) m^(2j+1)), scaled by 2^bits, is
    floored by nested integer division, so each of the J terms summed errs by
    less than 1; the alternating tail after them is below the first omitted
    term, under 1 as 2^bits/m^(2J+1) floors to 0.  So the sum is within J + 1
    of the value.
    """
    total, power, j = 0, (1 << bits) // m, 0
    while power:
        term = power // (2 * j + 1)
        total += -term if j & 1 else term
        power //= m * m
        j += 1
    return total - j - 1, total + j + 1


def arctan_pi(formula, prec: int):
    """pi correctly rounded to nearest at prec bits, as a libmp value, from an
    arctangent formula of (coefficient, m) pairs such as ``MACHIN``; or None
    when the bracket the formula gives straddles a rounding boundary."""
    bits, lo, hi = prec + 64, 0, 0
    for c, m in formula:
        a, b = arctan_recip_bracket(m, bits)
        lo, hi = (lo + c * a, hi + c * b) if c > 0 else (lo + c * b, hi + c * a)
    low = libmp.from_man_exp(lo, -bits, prec, "n")
    return low if low == libmp.from_man_exp(hi, -bits, prec, "n") else None
