"""The stopping rule of the infinite sums, on hand-made magnitude streams.

Each stream is a list (or generator) of exact dyadic magnitudes man*2^exp,
written as pairs (man, exp); ``_mag`` gives them the form the rule reads.
"""

import itertools

import pytest
from mpmath import libmp

from hyperq.scalars import HighPrecision
from hyperq.series import NonGeometricTailError, _decidable, _NotSplit, _stopping_index

WP = 66  # the working precision of the magnitudes


def _mag(man, exp):
    """|t| = man*2^exp in the form the stopping rule reads."""
    return man, exp


def _stop(mags, prec, budget=10 ** 6, check=None):
    """The stopping index K of the rule on ``mags``."""
    return _stopping_index((_mag(*m) for m in mags), _mag(1, -prec - 4), budget, check)


def _geometric(start=0):
    """|t_k| = 2^-(k+start), every ratio 1/2."""
    return ((1, -k - start) for k in itertools.count())


def _walk(first, ratios):
    """The magnitudes from ``first`` by the ratios (num, shift) = num/2^shift."""
    man, exp = first
    out = [first]
    for num, shift in ratios:
        man, exp = man * num, exp - shift
        out.append((man, exp))
    return out


CAP = (63, 6)  # the admission cap 63/64 as a ratio
ABOVE_CAP = (63 * 2 ** 20 + 1, 26)  # 63/64 + 2^-26


def _threshold_case(prec, man, tail_steps=3):
    """Thirty-nine halving terms, then |t_40| = man*2^(-prec-4-71), then halving."""
    head = [(1, -k) for k in range(40)]
    exp = -prec - 4 - 71
    return head + [(man, exp - j) for j in range(tail_steps)] + list(
        itertools.islice(_geometric(-exp + tail_steps), 40))


class TestRatioCap:
    @pytest.mark.parametrize("ratios, expected", [
        ([CAP] * 40, 32),                                  # equal to the cap: capped
        ([CAP] * 19 + [ABOVE_CAP] + [CAP] * 20, 36),       # above it at k = 20: the run restarts
        ([CAP] * 19 + [(1, 0)] + [CAP] * 20, 36),          # ratio 1 at k = 20
        ([CAP] * 35 + [ABOVE_CAP] + [CAP] * 20, 32),       # after K: never read
    ])
    def test_capped_run(self, ratios, expected):
        # prec 10: 63*|t_k| < 2^-14 from k = 1, so only the cap and the warm-up decide
        assert _stop(_walk((1, -20), ratios), prec=10) == expected

    def test_first_ratio_after_a_zero_is_not_capped(self):
        mags = [(1, -k) for k in range(40)] + [(0, 0)] + [(1, -40 - k) for k in range(40)]
        # below the threshold from k = 40, but the run restarts at k = 41 (a
        # ratio from a zero term) and reaches 16 only at k = 57
        assert _stop(mags, prec=30) == 57


class TestThreshold:
    def test_geometric_stops_at_the_first_bound_below_the_threshold(self):
        # 63*2^-K < 2^-104 first at K = 110
        assert _stop(_geometric(), prec=100) == 110

    def test_bound_on_the_threshold_does_not_stop(self):
        # 63*man = 2^71 + 31, within half an ulp of 2^71 at 66 bits: the rule
        # does not stop at k = 40, where 63*|t_40| lies on 2^(-prec-4) to 66
        # bits, and stops at k = 41
        man = (2 ** 71 + 31) // 63
        assert 63 * man == 2 ** 71 + 31 and man.bit_length() <= WP
        assert _stop(_threshold_case(31, man), prec=31) == 41

    def test_bound_below_the_threshold_stops(self):
        man = 2 ** 71 // 63 - 2 ** 20  # 63*|t_40| about 2^-51 below 2^(-prec-4), relatively
        assert _stop(_threshold_case(31, man), prec=31) == 40


class TestWarmUp:
    def test_no_stop_before_the_warm_up_ends(self):
        # capped from k = 1 and below the threshold from k = 10: K = 32
        assert _stop(_geometric(), prec=0) == 32

    def test_run_restarted_inside_the_warm_up(self):
        mags = [(1, -k) for k in range(30)] + [(1, -29)] + [(1, -29 - k) for k in range(1, 40)]
        assert _stop(mags, prec=0) == 46


class TestZeroRun:
    def test_sixty_four_zeros_past_the_warm_up(self):
        mags = [(1, -k) for k in range(5)] + [(0, 0)] * 100
        assert _stop(mags, prec=1000) == 68  # zeros at k = 5..68

    def test_zeros_from_the_start(self):
        assert _stop([(0, 0)] * 100, prec=1000) == 63

    def test_a_nonzero_term_restarts_the_zero_run(self):
        mags = [(0, 0)] * 50 + [(1, -2000)] + [(0, 0)] * 100
        assert _stop(mags, prec=1000) == 50 + 64

    def test_zero_run_short_of_sixty_four_is_not_a_zero_tail(self):
        mags = ([(0, 0)] * 63 + [(1, -2000)]) * 3
        with pytest.raises(NonGeometricTailError):
            _stop(mags, prec=1000)


class TestBudget:
    def test_constant_terms_exhaust_the_budget(self):
        with pytest.raises(NonGeometricTailError, match="within 100 terms"):
            _stop(itertools.repeat((1, 0)), prec=10, budget=100)

    @pytest.mark.parametrize("budget", [110, 111, 10 ** 6])
    def test_stop_at_the_budget_itself(self, budget):
        assert _stop(_geometric(), prec=100, budget=budget) == 110

    def test_stop_past_the_budget(self):
        with pytest.raises(NonGeometricTailError):
            _stop(_geometric(), prec=100, budget=109)


class TestDecidable:
    @pytest.mark.parametrize("x, y, refused", [
        ((2 ** 32 + 1, 0), (1, 32), True),     # |x - y| = 2^-32*y
        ((2 ** 32 - 1, 0), (1, 32), True),
        ((2 ** 32, 0), (1, 32), True),         # equal
        ((2 ** 32 + 2, 0), (1, 32), False),
        ((2 ** 32 - 2, 0), (1, 32), False),
        ((1, 0), (1, 1), False),
        ((3, -1), (1, 0), False),
    ])
    def test_refusal_within_two_to_the_minus_32(self, x, y, refused):
        if refused:
            with pytest.raises(_NotSplit):
                _decidable(_mag(*x), _mag(*y))
        else:
            _decidable(_mag(*x), _mag(*y))

    def test_ratio_on_the_cap_is_refused_by_the_check(self):
        with pytest.raises(_NotSplit):
            _stop(_walk((1, -20), [CAP] * 40), prec=10, check=_decidable)

    def test_bound_near_the_threshold_is_refused_by_the_check(self):
        with pytest.raises(_NotSplit):
            _stop(_threshold_case(31, (2 ** 71 + 31) // 63), prec=31, check=_decidable)

    def test_clear_decisions_pass_the_check(self):
        assert _stop(_geometric(), prec=100, check=_decidable) == 110


class TestExactThreshold:
    def test_bound_just_below_the_threshold_stops(self):
        # 63*|t_40| = (2^72 - 1)*2^-107, one unit below 2^-35 = 2^(-prec-4):
        # the exact comparison stops at k = 40.  Rounded to 67 bits, as
        # 63*|t_K| once was, it lands on 2^-35 itself and does not stop; this
        # is the only kind of case where the two comparisons part.
        man = (2 ** 72 - 1) // 63
        assert 63 * man == 2 ** 72 - 1 and man.bit_length() == 67
        rounded = HighPrecision(libmp.from_man_exp(man, -107), 67) * 63
        assert rounded.raw == libmp.from_man_exp(1, -35)
        mags = [(1, -k) for k in range(40)] + [(man, -107)] + list(
            itertools.islice(_geometric(108), 40))
        assert _stop(mags, prec=31) == 40
