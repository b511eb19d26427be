"""The symmetric group S_n on {1..n}.

Composition is function composition: ``(v * w)(m) = v(w(m))``, so in a
product the rightmost factor acts first.  A word [i1, ..., ik] denotes the
product s_{i1} ... s_{ik} under that convention (s_{ik} applied first).
This is the convention that makes conjugation of tie elements by braid
elements come out as the natural action on set partitions.
"""

import itertools
from functools import cache


class Permutation:
    """A permutation in one-line notation ``images = (w(1), ..., w(n))``."""

    __slots__ = ("n", "images", "_word", "_hash")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a bijection of 1..n: %r" % (images,))
        self.n = len(images)
        self.images = images
        self._word = None
        self._hash = None

    @staticmethod
    def identity(n):
        return Permutation(range(1, n + 1))

    @staticmethod
    def transposition(i, n):
        """The adjacent transposition s_i swapping i and i+1."""
        if not 1 <= i <= n - 1:
            raise IndexError("generator index %d out of range for n=%d" % (i, n))
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(images)

    def apply(self, m):
        return self.images[m - 1]

    def __mul__(self, other):
        """Function composition; ``other`` acts first."""
        if self.n != other.n:
            raise ValueError("mismatched n: %d vs %d" % (self.n, other.n))
        img = self.images
        return Permutation(tuple(img[m - 1] for m in other.images))

    def has_right_descent(self, i):
        """True iff length(w * s_i) < length(w)."""
        return self.images[i - 1] > self.images[i]

    @cache
    def right_mul_gen(self, i):
        """w * s_i (swaps the entries at positions i, i+1), memoized."""
        img = list(self.images)
        img[i - 1], img[i] = img[i], img[i - 1]
        return intern_perm(img)

    def inverse(self):
        """w^-1, which any reduced word of w spells read backwards."""
        img = [0] * self.n
        for m, image in enumerate(self.images, start=1):
            img[image - 1] = m
        return intern_perm(img)

    def reduced_word(self):
        """Canonical reduced word: repeatedly strip the smallest right
        descent; the letters come out right-to-left.  Reading the word left
        to right and applying the rightmost letter first recovers w."""
        if self._word is None:
            img = list(self.images)
            rev = []
            while True:
                for i in range(len(img) - 1):
                    if img[i] > img[i + 1]:
                        img[i], img[i + 1] = img[i + 1], img[i]
                        rev.append(i + 1)
                        break
                else:
                    break
            self._word = tuple(reversed(rev))
        return self._word

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash

    def __str__(self):
        return "[%s]" % ",".join(str(m) for m in self.images)

    def __repr__(self):
        return "Permutation(%s)" % (self.images,)


# interning cache shared by the multiplication engine; instances are
# immutable and reuse their cached hash and reduced word
_INTERN = {}


def intern_perm(images):
    images = tuple(images)
    w = _INTERN.get(images)
    if w is None:
        w = _INTERN[images] = Permutation(images)
    return w


def enumerate_permutations(n):
    """All of S_n in lexicographic one-line order, interned."""
    return [intern_perm(p) for p in itertools.permutations(range(1, n + 1))]
