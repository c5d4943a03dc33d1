"""Permutation arithmetic pinned to hand-checked values and brute oracles."""

import itertools
import random

import pytest

from tripaths.errors import DegreeMismatch, InvalidPermutation, RankOutOfRange
from tripaths.perms import (
    Family,
    Permutation,
    Transposition,
    apply_generator,
    compose,
    generator_set,
    identity,
    inverse,
    parse_family,
    parse_permutation,
    permutation_text,
    rank,
    unrank,
)


def test_identity_images():
    assert identity(4).images == (1, 2, 3, 4)
    assert identity(3)(2) == 2


def test_compose_hand_checked():
    # (sigma tau)(i) = sigma(tau(i))
    sigma = Permutation((2, 1, 3, 4))
    tau = Permutation((4, 2, 3, 1))
    assert compose(sigma, tau).images == (4, 1, 3, 2)


def test_compose_brute_oracle():
    rng = random.Random(91)
    for _ in range(200):
        n = rng.randint(3, 7)
        sigma = unrank(rng.randrange(0, _fact(n)), n)
        tau = unrank(rng.randrange(0, _fact(n)), n)
        expected = tuple(sigma(tau(i)) for i in range(1, n + 1))
        assert compose(sigma, tau).images == expected


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_apply_generator_swaps_positions():
    e = identity(4)
    assert apply_generator(e, Transposition(1, 4)).images == (4, 2, 3, 1)
    sigma = Permutation((3, 1, 4, 2))
    # right-multiplication swaps the ENTRIES at positions i and j
    got = apply_generator(sigma, Transposition(2, 3))
    assert got.images == (3, 4, 1, 2)


def test_apply_generator_is_right_multiplication():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(3, 6)
        sigma = unrank(rng.randrange(0, _fact(n)), n)
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        t = Transposition(i, j)
        as_perm = Permutation(tuple(
            j if p == i else i if p == j else p for p in range(1, n + 1)))
        assert apply_generator(sigma, t) == compose(sigma, as_perm)


@pytest.mark.parametrize("i, j", [(0, 2), (2, 2), (3, 2)])
def test_transposition_needs_ordered_positions(i, j):
    with pytest.raises(ValueError):
        Transposition(i, j)


def test_involution():
    for t in generator_set(Family.WHEEL, 5):
        sigma = unrank(77, 5)
        assert apply_generator(apply_generator(sigma, t), t) == sigma


def test_rank_endpoints():
    assert rank(identity(4)) == 0
    assert rank(Permutation((4, 3, 2, 1))) == 23
    assert rank(identity(5)) == 0
    assert rank(Permutation((5, 4, 3, 2, 1))) == 119


def test_rank_unrank_roundtrip_exhaustive_n4():
    perms = [Permutation(p) for p in itertools.permutations((1, 2, 3, 4))]
    ranks = sorted(rank(p) for p in perms)
    assert ranks == list(range(24))
    for p in perms:
        assert unrank(rank(p), 4) == p


def test_unrank_is_lexicographic():
    ordered = [unrank(k, 4).images for k in range(24)]
    assert ordered == sorted(ordered)


def test_unrank_out_of_range():
    with pytest.raises(RankOutOfRange):
        unrank(24, 4)
    with pytest.raises(RankOutOfRange):
        unrank(-1, 4)


def test_inverse():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(3, 7)
        sigma = unrank(rng.randrange(0, _fact(n)), n)
        assert compose(sigma, inverse(sigma)) == identity(n)
        assert compose(inverse(sigma), sigma) == identity(n)


def test_generator_set_members_n4():
    s1 = generator_set(Family.BUBBLE_SORT_STAR, 4)
    assert set(s1) == {
        Transposition(1, 2), Transposition(1, 3), Transposition(1, 4),
        Transposition(2, 3), Transposition(3, 4)}
    s2 = generator_set(Family.WHEEL, 4)
    assert set(s2) == set(s1) | {Transposition(2, 4)}


def test_generator_set_sizes():
    for n in range(3, 9):
        assert len(generator_set(Family.BUBBLE_SORT_STAR, n)) == 2 * n - 3
    for n in range(4, 9):
        assert len(generator_set(Family.WHEEL, n)) == 2 * n - 2


def test_parse_permutation_forms():
    assert parse_permutation("[2,1,3,4]").images == (2, 1, 3, 4)
    assert parse_permutation(" 2 1 3 4 ").images == (2, 1, 3, 4)
    assert parse_permutation("[ 2, 1 ,3,4 ]", n=4).images == (2, 1, 3, 4)


def test_parse_permutation_rejects():
    with pytest.raises(InvalidPermutation):
        parse_permutation("[2,2,3,4]")
    with pytest.raises(InvalidPermutation):
        parse_permutation("[0,1,2,3]")
    with pytest.raises(InvalidPermutation):
        parse_permutation("[]")
    with pytest.raises(InvalidPermutation):
        parse_permutation("[a,b]")
    with pytest.raises(DegreeMismatch):
        parse_permutation("[2,1,3]", n=4)


def test_text_roundtrip():
    sigma = Permutation((3, 1, 4, 2, 5))
    assert parse_permutation(permutation_text(sigma)) == sigma


def test_parse_family():
    assert parse_family("wheel") is Family.WHEEL
    assert parse_family("bss") is Family.BUBBLE_SORT_STAR
    with pytest.raises(ValueError):
        parse_family("pancake")
