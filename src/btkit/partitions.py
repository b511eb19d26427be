"""The commutative monoid P_n of set partitions of {1..n}.

The product is the join: I * J is the finest partition coarser than both.
Partitions are stored as restricted growth strings (rgs), the canonical
labelling where block labels appear in order of first occurrence; this makes
equality and hashing O(n) and enumeration lexicographic.
"""

from functools import cache
from math import comb


class SetPartition:
    """A set partition of {1..n} in restricted growth form."""

    __slots__ = ("n", "rgs", "_hash")

    def __init__(self, rgs):
        rgs = tuple(rgs)
        mx = -1
        for label in rgs:
            if label > mx + 1 or label < 0:
                raise ValueError("not a restricted growth string: %r" % (rgs,))
            if label == mx + 1:
                mx = label
        self.n = len(rgs)
        self.rgs = rgs
        self._hash = None

    @staticmethod
    def unit(n):
        """The finest partition, all singletons (the monoid unit)."""
        return SetPartition(range(n))

    @staticmethod
    def full(n):
        """The coarsest partition, one block."""
        return SetPartition([0] * n)

    def blocks(self):
        """Blocks as tuples, ordered by their minimum."""
        nblocks = max(self.rgs) + 1
        out = [[] for _ in range(nblocks)]
        for m, label in enumerate(self.rgs, start=1):
            out[label].append(m)
        return tuple(tuple(b) for b in out)

    def block_count(self):
        return max(self.rgs) + 1

    @cache
    def join(self, other):
        """Finest common coarsening: each position of other joined by an arc
        to the first position of its block; commutative, associative,
        idempotent; memoized, as is :meth:`join_arc`: Bell(n)^2 pairs."""
        if self.n != other.n:
            raise ValueError("mismatched n: %d vs %d" % (self.n, other.n))
        out, first = self, {}
        for pos, label in enumerate(other.rgs, start=1):
            a = first.setdefault(label, pos)
            if a != pos:
                out = out.join_arc(a, pos)
        return out

    @cache
    def join_arc(self, a, b):
        """Join with the one-arc partition {{a, b}} (fast path for the
        multiplication engine)."""
        la, lb = self.rgs[a - 1], self.rgs[b - 1]
        if la == lb:
            return self
        lo, hi = (la, lb) if la < lb else (lb, la)
        return intern_partition(
            _canonical_rgs([lo if l == hi else l for l in self.rgs]))

    def apply(self, w):
        """The interned image partition {w(block)}; blocks map elementwise."""
        if self.n != w.n:
            raise ValueError("mismatched n: %d vs %d" % (self.n, w.n))
        labels = [0] * self.n
        for m, label in enumerate(self.rgs, start=1):
            labels[w.apply(m) - 1] = label
        return intern_partition(_canonical_rgs(labels))

    def __eq__(self, other):
        return isinstance(other, SetPartition) and self.rgs == other.rgs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rgs)
        return self._hash

    def __str__(self):
        return "{%s}" % ",".join(
            "{%s}" % ",".join(str(m) for m in block) for block in self.blocks())

    def __repr__(self):
        return "SetPartition(rgs=%s)" % (self.rgs,)


def _canonical_rgs(labels):
    relabel = {}
    return [relabel.setdefault(label, len(relabel)) for label in labels]


# interning cache: the engine churns through few distinct partitions, and
# shared instances reuse their cached hashes
_INTERN = {}


def intern_partition(rgs):
    rgs = tuple(rgs)
    part = _INTERN.get(rgs)
    if part is None:
        part = _INTERN[rgs] = SetPartition(rgs)
    return part


def generator_partition(i, n):
    """The one-arc partition {{i, i+1}, singletons}."""
    return arc_partition(i, i + 1, n)


def arc_partition(i, j, n):
    """The one-arc partition {{i, j}, singletons} for i < j."""
    if not 1 <= i < j <= n:
        raise IndexError("need 1 <= i < j <= n, got (%d, %d), n=%d" % (i, j, n))
    labels = list(range(n))
    labels[j - 1] = labels[i - 1]
    return SetPartition(_canonical_rgs(labels))


def enumerate_partitions(n):
    """All partitions of {1..n} in lexicographic rgs order; Bell(n) many."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []

    def grow(prefix, mx):
        if len(prefix) == n:
            out.append(SetPartition(prefix))
            return
        for label in range(mx + 2):
            grow(prefix + [label], max(mx, label))

    grow([0], 0)
    return out


def bell_number(n):
    """Number of set partitions of an n-set (recurrence over the last block)."""
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]
