"""Block draws of the xoshiro stream against its one-word-at-a-time form."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglens.rng import Rng

seeds = st.integers(min_value=0, max_value=2 ** 64 - 1)
# crosses the 512-word block edge and leaves every tail length
sizes = st.integers(min_value=0, max_value=2000)


def scalar_shuffle(rng: Rng, items: list) -> list:
    for i in range(len(items) - 1, 0, -1):
        j = rng.integer(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=sizes)
@example(seed=1, n=1023)
@example(seed=2, n=1025)
def test_uniform_matches_scalar_stream(seed, n):
    block, scalar = Rng(seed), Rng(seed)
    drawn = block.uniform(-0.25, 1.5, (n,))
    expected = [-0.25 + (1.5 - -0.25) * scalar.random() for _ in range(n)]
    assert drawn.tolist() == expected
    assert block.next_u64() == scalar.next_u64()


# a shuffle of n items takes n - 1 words: these cross the block edge too
@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=0, max_value=3000))
@example(seed=3, n=511)
@example(seed=3, n=512)
@example(seed=3, n=513)
@example(seed=4, n=1024)
@example(seed=5, n=1)
def test_permutation_matches_scalar_shuffle(seed, n):
    block, scalar = Rng(seed), Rng(seed)
    assert block.permutation(n).tolist() == scalar_shuffle(scalar, list(range(n)))
    assert block.next_u64() == scalar.next_u64()


def test_uniform_shape_and_scalar_form():
    rng = Rng(7)
    assert rng.uniform(0.0, 1.0, (3, 700)).shape == (3, 700)
    assert isinstance(Rng(7).uniform(0.0, 1.0), float)
    assert Rng(7).uniform(0.0, 1.0, (1,))[0] == Rng(7).uniform(0.0, 1.0)
