"""``Law.fold`` evaluates a residual once per distinct hashable draw in a case, and counts every sample."""
import math

import pytest

import hopfdeform as hd
from hopfdeform.core import NonFiniteError


def _box(bound=0):
    """A sampler on Z¹ whose keys lie in [−bound, bound]; bound 0 is a box of one key."""
    return hd.ElementSampler(hd.group_algebra_zd(1), seed=3, coord_bound=bound)


def _counted(residual):
    calls = []

    def counted(case, *args):
        calls.append((case, args))
        return residual(case, *args)

    return counted, calls


def test_a_one_key_box_evaluates_once_per_case_and_counts_every_sample():
    residual, calls = _counted(lambda t, u: abs(t) * (1 + len(u)))
    law = hd.Law("box", "one key", residual, 1.0, cases=(0.5, 1.0, -1.0), per_case=7, salt=11,
                 draw=lambda s: (s.keys(2),))
    assert law.fold(_box()) == (21, 3.0)
    assert calls == [(t, (((0,), (0,)),)) for t in (0.5, 1.0, -1.0)]


def test_repeats_in_a_larger_box_are_evaluated_once_each():
    sampler = _box(1)
    residual, calls = _counted(lambda _, k: float(k[0][0]))
    law = hd.Law("box", "three keys", residual, 1.0, per_case=40, salt=5, draw=lambda s: (s.keys(1),))
    samples, worst = law.fold(sampler)
    stream = sampler.spawn(5)
    drawn = [stream.keys(1) for _ in range(40)]
    assert (samples, worst) == (40, 1.0)
    assert [args[0] for _, args in calls] == list(dict.fromkeys(drawn))
    assert len(calls) == 3


def test_an_element_draw_evaluates_every_sample():
    residual, calls = _counted(lambda _, a: a.norm_inf())
    law = hd.Law("elements", "unhashable draws", residual, 10.0, cases=(0.0, 1.0), per_case=5, salt=3,
                 draw=lambda s: (s.element(),))
    samples, _ = law.fold(_box())
    assert samples == len(calls) == 10


def test_a_nan_residual_on_a_repeated_draw_still_folds_to_nan():
    residual, calls = _counted(lambda t, _: math.nan if t == 0.5 else 2.0)
    law = hd.Law("nan", "a NaN case", residual, 1.0, cases=(0.5, 1.0), per_case=4, salt=7,
                 draw=lambda s: (s.keys(1),))
    samples, worst = law.fold(_box())
    assert samples == 8 and math.isnan(worst)
    assert len(calls) == 2


def test_a_residual_that_raises_does_so_at_its_first_occurrence():
    drawn = []

    def draw(stream):
        drawn.append(None)
        return (stream.keys(1),)

    def residual(t, _):
        if t == 1.0:
            raise NonFiniteError("at t = 1")
        return 0.0

    law = hd.Law("raises", "the second case raises", residual, 1.0, cases=(0.5, 1.0), per_case=3, salt=7,
                 draw=draw)
    with pytest.raises(NonFiniteError, match="at t = 1"):
        law.fold(_box())
    assert len(drawn) == 4  # three draws of the first case, then the second case's first


def test_the_cases_zero_and_minus_zero_never_share_a_residual():
    residual, calls = _counted(lambda t, _: 1.0 if math.copysign(1.0, t) < 0 else 0.0)
    law = hd.Law("signed", "signed zeros", residual, 0.5, cases=(0.0, -0.0), per_case=3, salt=7,
                 draw=lambda s: (s.keys(1),))
    assert law.fold(_box()) == (6, 1.0)
    assert [math.copysign(1.0, t) for t, _ in calls] == [1.0, -1.0]


def _scripted(draws):
    it = iter(draws)
    return lambda _: next(it)


def test_an_unhashable_draw_after_hashable_ones_is_evaluated():
    residual, calls = _counted(lambda _, x: float(len(x)))
    draws = [((1,),), ((1,),), ([1, 2],), ([1, 2],), ((1,),)]
    law = hd.Law("mixed", "a list among tuples", residual, 5.0, per_case=5, draw=_scripted(draws))
    assert law.fold(None) == (5, 2.0)
    assert [args for _, args in calls] == [((1,),), ([1, 2],), ([1, 2],)]


def test_draws_are_not_kept_when_the_first_draw_is_unhashable():
    # whether draws are kept is decided once, on the first draw
    residual, calls = _counted(lambda _, x: float(len(x)))
    draws = [([1, 2],), ((1,),), ((1,),)]
    law = hd.Law("mixed", "a list first", residual, 5.0, per_case=3, draw=_scripted(draws))
    assert law.fold(None) == (3, 2.0)
    assert len(calls) == 3


def test_one_sample_per_case_evaluates_every_case():
    residual, calls = _counted(lambda t: t)
    law = hd.Law("fixed", "repeated cases", residual, 5.0, cases=(1.0, 1.0, 2.0))
    assert law.fold(None) == (3, 2.0)
    assert len(calls) == 3
