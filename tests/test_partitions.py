import itertools
from math import comb

import pytest

from btkit import partitions as pt
from btkit.partitions import (SetPartition, arc_partition, bell_number,
                              enumerate_partitions, generator_partition)
from btkit.permutations import Permutation, enumerate_permutations
from oracles import compose, from_word


def bell_oracle(n):
    """Independent Bell numbers via the Bell triangle (Bell(n) is the last
    entry of row n-1)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def test_enumeration_counts_against_triangle():
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        assert len(parts) == bell_oracle(n) == bell_number(n)
        assert len(set(parts)) == len(parts)
        rgs = [p.rgs for p in parts]
        assert rgs == sorted(rgs)  # lexicographic order


def test_known_counts():
    assert [bell_number(n) for n in range(1, 6)] == [1, 2, 5, 15, 52]


def test_rgs_validation():
    with pytest.raises(ValueError):
        SetPartition((1, 0))
    with pytest.raises(ValueError):
        SetPartition((0, 2))
    assert SetPartition((0, 0, 1)).blocks() == ((1, 2), (3,))


def test_join_examples():
    p1 = generator_partition(1, 3)
    p2 = generator_partition(2, 3)
    assert p1.join(p2) == SetPartition.full(3)
    unit = SetPartition.unit(3)
    for I in enumerate_partitions(3):
        assert I.join(unit) == I
        assert I.join(I) == I


def test_monoid_laws_exhaustive():
    for n in (2, 3, 4):
        parts = enumerate_partitions(n)
        unit = SetPartition.unit(n)
        for I in parts:
            assert I.join(unit) == I
            assert I.join(I) == I
            for J in parts:
                assert I.join(J) == J.join(I)
        for I, J, K in itertools.product(parts, repeat=3):
            assert I.join(J).join(K) == I.join(J.join(K))


def test_action_laws_exhaustive():
    for n in (2, 3, 4):
        parts = enumerate_partitions(n)
        perms = enumerate_permutations(n)
        for w in perms:
            for I in parts:
                for J in parts:
                    assert I.join(J).apply(w) == I.apply(w).join(J.apply(w))
        for v in perms:
            for w in perms:
                for I in parts:
                    assert I.apply(compose(v, w)) == I.apply(w).apply(v)


def test_action_examples():
    s2 = Permutation.transposition(2, 3)
    assert generator_partition(1, 3).apply(s2) == arc_partition(1, 3, 3)
    ident = Permutation.identity(3)
    for I in enumerate_partitions(3):
        assert I.apply(ident) == I
    # w = s_2 s_1 (s_1 applied first) maps {{2,3},{1}} to {{1,2},{3}}
    w = from_word([2, 1], 3)
    assert generator_partition(2, 3).apply(w) == generator_partition(1, 3)


def test_generator_partitions():
    assert str(generator_partition(1, 3)) == "{{1,2},{3}}"
    assert str(generator_partition(2, 3)) == "{{1},{2,3}}"
    with pytest.raises(IndexError):
        generator_partition(3, 3)
    with pytest.raises(IndexError):
        arc_partition(2, 2, 3)


def join_closure(n, gens):
    seen = set(gens) | {SetPartition.unit(n)}
    frontier = list(seen)
    while frontier:
        I = frontier.pop()
        for J in list(seen):
            K = I.join(J)
            if K not in seen:
                seen.add(K)
                frontier.append(K)
    return seen


def test_adjacent_generators_span_interval_partitions():
    # join-closure of the adjacent one-arc partitions is the interval
    # partitions: 2^(n-1) of them, not all of P_n
    for n in range(2, 6):
        gens = [generator_partition(i, n) for i in range(1, n)]
        closed = join_closure(n, gens)
        assert len(closed) == 2 ** (n - 1)
        for I in closed:
            for block in I.blocks():
                assert list(block) == list(range(block[0], block[-1] + 1))


def test_all_arc_generators_span_everything():
    for n in range(2, 6):
        gens = [arc_partition(i, j, n)
                for i in range(1, n) for j in range(i + 1, n + 1)]
        assert len(join_closure(n, gens)) == bell_number(n)


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        SetPartition.unit(3).join(SetPartition.unit(4))
    with pytest.raises(ValueError):
        SetPartition.unit(3).apply(Permutation.identity(4))


def test_every_route_returns_the_one_instance():
    # the constructor interns, so each rgs has one SetPartition, equality
    # is identity and hashing is the object's own
    assert "__eq__" not in vars(SetPartition)
    assert "__hash__" not in vars(SetPartition)
    for n in (1, 2, 3, 4):
        parts = enumerate_partitions(n)
        routes = [SetPartition.unit(n), SetPartition.full(n), *parts]
        routes += [arc_partition(i, j, n)
                   for i in range(1, n) for j in range(i + 1, n + 1)]
        for I in parts:
            routes += [I.apply(w) for w in enumerate_permutations(n)]
            routes += [I.join(J) for J in parts]
            routes += [I.join_arc(a, b)
                       for a in range(1, n) for b in range(a + 1, n + 1)]
        for I in routes:
            assert SetPartition(list(I.rgs)) is I
    size = len(pt._INTERN)
    for bad in ((1, 0), (0, 2), (0, -1), (0, 0, 2)):
        with pytest.raises(ValueError):
            SetPartition(bad)
    assert len(pt._INTERN) == size
