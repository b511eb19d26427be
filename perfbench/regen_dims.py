"""Regenerate the reference ideal dimensions that the quotient checks use.

The quotient suite builds each two-sided ideal by closing the span of its
generator under multiplication by the generators T_i, E_i.  This command takes
another route: it forms the literal span of b1 * g * b2 over every pair of
basis elements b1, b2 of E_n(u), with g = E_1 E_2 T_{12} (tied) or the bare
Steinberg element T_{12}, and ranks that span with the modular elimination in
this file.  Products come from the btkit engine, specialized at each
(point, prime) combination the suites use; g is assembled here from T_1, T_2,
E_1 and E_2.

    python3 perfbench/regen_dims.py            # writes perfbench/reference_dims.json

A specialized rank never exceeds the generic one, so every number written is
a lower bound on the generic dimension; the combinations agreeing is the
genericity evidence the suites also rely on.  Every run writes both n = 3 and
n = 4, the n at which the benchmark checks the quotient suite; at n = 4 the
run takes a few minutes.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from btkit import algebra, domains, suites  # noqa: E402

OUT = os.path.join(HERE, "reference_dims.json")
NS = (3, 4)
# the (sqrt(u) point, prime) pairs of the quotient suite's default combinations
COMBOS = tuple(zip(suites.DEFAULT_POINTS, domains.PRIMES))


class ModPRank:
    """Row space over GF(p) in reduced row echelon form, fed in batches.
    Entries stay below p < 2^24, so a product of two entries summed over at
    most 6240 columns fits in int64."""

    def __init__(self, width, p):
        if width * (p - 1) ** 2 >= 2 ** 63:
            raise ValueError("int64 overflow: width %d, p %d" % (width, p))
        self.p = p
        self.basis = np.zeros((0, width), dtype=np.int64)
        self.pivots = []

    @property
    def rank(self):
        return len(self.pivots)

    def add_batch(self, rows):
        p = self.p
        m = np.asarray(rows, dtype=np.int64) % p
        if self.pivots:
            m = (m - m[:, self.pivots] @ self.basis) % p
        m = m[m.any(axis=1)]
        new_rows, new_pivots = [], []
        for col in range(m.shape[1]):
            if not m.size:
                break
            nz = np.nonzero(m[:, col])[0]
            if nz.size == 0:
                continue
            r = int(nz[0])
            row = m[r] * pow(int(m[r, col]), p - 2, p) % p
            m = (m - np.outer(m[:, col], row)) % p
            # earlier new rows must be zero at this pivot column as well
            for k, prev in enumerate(new_rows):
                if prev[col]:
                    new_rows[k] = (prev - prev[col] * row) % p
            new_rows.append(row)
            new_pivots.append(col)
            m = m[m.any(axis=1)]
        if new_rows:
            new = np.stack(new_rows)
            if self.pivots:
                self.basis = (self.basis
                              - self.basis[:, new_pivots] @ new) % p
            self.basis = np.concatenate([self.basis, new])
            self.pivots.extend(new_pivots)


def generator(n, dom, tied):
    t1, t2 = algebra.T(1, n, dom), algebra.T(2, n, dom)
    st = algebra.one(n, dom) + t1 + t2 + t1 * t2 + t2 * t1 + t1 * t2 * t1
    if not tied:
        return st
    return algebra.E(1, n, dom) * algebra.E(2, n, dom) * st


def ideal_dim_by_pairs(n, dom, tied):
    index = algebra.BasisIndex(n, dom)
    basis = [index.basis_elem(k) for k in range(len(index))]
    g = generator(n, dom, tied)
    span = ModPRank(len(index), dom.p)
    for b1 in basis:
        left = b1 * g
        rows = np.zeros((len(basis), len(index)), dtype=np.int64)
        for r, b2 in enumerate(basis):
            for key, c in (left * b2).terms.items():
                rows[r, index.index[key]] = c.v
        span.add_batch(rows)
    return span.rank, len(index)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=OUT)
    args = parser.parse_args(argv)
    result = {"method": "rank mod p of the span of b1*g*b2 over all basis "
                        "pairs, g = E_1E_2T_12 (tied) or T_12 (steinberg)",
              "dims": {}}
    for n in NS:
        per_n = {}
        for point, p in COMBOS:
            dom = domains.PrimeDomain(point, p)
            label = "s=%s p=%d" % (point, p)
            t0 = time.perf_counter()
            tied, dim = ideal_dim_by_pairs(n, dom, tied=True)
            untied, _ = ideal_dim_by_pairs(n, dom, tied=False)
            per_n[label] = {"algebra_dim": dim,
                            "ideal_dim": tied, "quotient_dim": dim - tied,
                            "steinberg_ideal_dim": untied,
                            "steinberg_quotient_dim": dim - untied}
            print("n=%d %s: %s (%.1f s)" % (n, label, per_n[label],
                                          time.perf_counter() - t0),
                  file=sys.stderr, flush=True)
        result["dims"][str(n)] = per_n
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
