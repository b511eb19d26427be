import itertools
import random

import pytest

from btkit.permutations import Permutation, enumerate_permutations
from oracles import braid_move_sites, from_word, random_braid_walk


def inversions(images):
    return sum(1 for a, b in itertools.combinations(range(len(images)), 2)
               if images[a] > images[b])


def test_compose_convention():
    s1 = Permutation.transposition(1, 3)
    s2 = Permutation.transposition(2, 3)
    assert s1 * s1 == Permutation.identity(3)
    # s_2 after s_1: 1 -> 3, 2 -> 1, 3 -> 2
    assert (s2 * s1).images == (3, 1, 2)
    v = Permutation((2, 3, 1))
    assert v * Permutation.identity(3) == v


def test_enumeration():
    for n in (1, 2, 3, 4):
        perms = enumerate_permutations(n)
        assert len(perms) == len(set(perms))
        assert len(perms) == [1, 1, 2, 6, 24][n]
        assert [p.images for p in perms] == sorted(p.images for p in perms)


def test_reduced_word_properties_exhaustive():
    for n in range(1, 6):
        for w in enumerate_permutations(n):
            word = w.reduced_word()
            assert len(word) == inversions(w.images)
            assert from_word(word, n) == w


def test_reduced_word_examples():
    assert Permutation.identity(3).reduced_word() == ()
    assert Permutation.transposition(1, 3).reduced_word() == (1,)
    w0 = Permutation((3, 2, 1))
    assert len(w0.reduced_word()) == 3


def test_length_changes_by_one():
    for n in (2, 3, 4, 5):
        for w in enumerate_permutations(n):
            for i in range(1, n):
                length = inversions(w.images)
                assert abs(inversions(w.right_mul_gen(i).images) - length) == 1


def test_descents_match_length():
    for n in (2, 3, 4):
        for w in enumerate_permutations(n):
            for i in range(1, n):
                length = inversions(w.images)
                assert w.has_right_descent(i) == (
                    inversions(w.right_mul_gen(i).images) < length)


def test_inverse():
    for n in (2, 3, 4, 5):
        for w in enumerate_permutations(n):
            assert w * w.inverse() == Permutation.identity(n)
            # the reversed word of w spells w^-1 and is reduced
            word = w.reduced_word()
            assert from_word(word[::-1], n) == w.inverse()
            assert len(w.inverse().reduced_word()) == len(word)


def test_braid_moves_preserve_the_permutation():
    rng = random.Random(3)
    for n in (3, 4, 5):
        for w in enumerate_permutations(n):
            word = w.reduced_word()
            for _ in range(4):
                other = random_braid_walk(word, steps=8, rng=rng)
                assert len(other) == len(word)
                assert from_word(other, n) == w


def test_braid_move_sites_are_valid_rewrites():
    w = Permutation((3, 2, 1))
    word = w.reduced_word()
    for k, repl in braid_move_sites(word):
        rewritten = word[:k] + repl + word[k + len(repl):]
        assert from_word(rewritten, 3) == w


def test_validation_and_round_trip():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(IndexError):
        Permutation.transposition(3, 3)
    assert str(Permutation((2, 1, 3))) == "[2,1,3]"
