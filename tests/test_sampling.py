"""The seeded sample stream of ``ElementSampler``, pinned draw for draw.

``tests/golden/sampler_stream.json`` holds, for each case below, the first
40 keys and then the next 15 elements (keys, exact coefficients and term
order) of a fresh sampler, and the same for its ``spawn(7)`` child.  Every
sampled law draws through this stream, so any change to it moves report
bytes; the pin names which draw moved first.
"""
import json
import random
from pathlib import Path

import pytest

import hopfdeform as hd

STREAM = Path(__file__).parent / "golden" / "sampler_stream.json"

_OSC = dict(generators=("x", "xstar"), involution={"x": "xstar", "xstar": "x"})

CASES = {
    "z2_coord_bound_0": (lambda: hd.group_algebra_zd(2), dict(seed=101, coord_bound=0)),
    "z2_coord_bound_2": (lambda: hd.group_algebra_zd(2), dict(seed=102, coord_bound=2)),
    "oscillator_max_degree_4": (lambda: hd.symmetric_star_algebra(**_OSC), dict(seed=103, max_degree=4)),
    "sweedler_h4": (hd.sweedler_h4, dict(seed=104)),
}


def _key(k):
    return list(k) if isinstance(k, tuple) else k


def _draws(sampler) -> dict:
    keys = [_key(k) for k in sampler.keys(40)]
    elements = [
        [[_key(k), c.real, c.imag] for k, c in e.terms.items()] for e in sampler.elements(15)
    ]
    return {"keys": keys, "elements": elements}


def _stream(case: str) -> dict:
    make, kwargs = CASES[case]
    inst = make()
    return {
        "root": _draws(hd.ElementSampler(inst, **kwargs)),
        "spawn_7": _draws(hd.ElementSampler(inst, **kwargs).spawn(7)),
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(STREAM.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("branch", ["root", "spawn_7"])
def test_sample_stream_is_pinned(pinned, case, branch):
    got = _stream(case)[branch]
    want = pinned[case][branch]
    assert got["keys"] == want["keys"]
    for i, (g, w) in enumerate(zip(got["elements"], want["elements"])):
        assert g == w, f"element {i} moved"
    assert len(got["elements"]) == len(want["elements"]) == 15


@pytest.mark.parametrize(
    "bounds", [dict(coord_bound=-1), dict(max_degree=-1), dict(max_support=0)], ids=lambda b: next(iter(b))
)
def test_an_empty_draw_range_is_refused_up_front(bounds):
    # an empty range would make the rejection loop spin forever
    with pytest.raises(ValueError, match="max_support >= 1"):
        hd.ElementSampler(hd.group_algebra_zd(2), seed=1, **bounds)


def test_an_empty_finite_basis_is_refused_up_front():
    empty = hd.BialgebraInstance(
        "empty", hd.Kind.FINITE, "1", lambda a, b: (), lambda k: (), lambda k: 0.0, basis_iter=lambda: iter(())
    )
    with pytest.raises(ValueError, match="empty basis"):
        hd.ElementSampler(empty, seed=1)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("coord_bound", [1, 3, 4])
def test_grouplike_draws_match_the_stdlib_calls(d, coord_bound):
    # rejection widths 3, 7 and 9, which the pinned stream does not cover
    seed, max_support = 500 + 10 * d + coord_bound, 3
    sampler = hd.ElementSampler(hd.group_algebra_zd(d), seed, coord_bound=coord_bound, max_support=max_support)
    rng = random.Random(seed)

    def key():
        return tuple(rng.randint(-coord_bound, coord_bound) for _ in range(d))

    assert [sampler.key() for _ in range(40)] == [key() for _ in range(40)]
    for _ in range(15):
        want: dict = {}
        for _ in range(1 + rng.randrange(max_support)):
            k = key()
            want[k] = want.get(k, 0j) + complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        got = sampler.element().terms
        assert list(got) == list(want)
        assert all(got[k] == want[k] for k in want)
