"""Seeded Matrix Market generator for the end-to-end benchmark.

Three families, chosen because the SpArch model reacts to each
differently (see perfbench/README.md):

  rmat     R-MAT power-law graph: a few heavy rows and columns, so the
           merge tree and the row prefetcher see skewed partial
           matrices and the slowest grid point sets the sweep's tail.
  banded   FEM-like banded matrix: short, regular rows close to the
           diagonal, high prefetch reuse, and an even nnz per row that
           ShardPlan can cut cleanly.
  uniform  uniform random: no locality, the worst case for the row
           prefetcher's reuse.

Every matrix is square (the program squares each input, C = A x A) and
is a pure function of (family, size, seed): Python's random.Random is
stable across versions for integer seeds, so a seed reproduces the
same bytes on any host.

Usage as a script (writes one file):

    python3 perfbench/gen.py rmat:12x8 out.mtx --seed 7
"""

import argparse
import random


def _value(rng):
    # Four decimals keep the text short and make every value exactly
    # reproducible through the Matrix Market round trip.
    return round(0.5 + rng.random(), 4)


def rmat(scale, edge_factor, rng, probs=(0.5, 0.2, 0.2, 0.1)):
    """Distinct R-MAT edges of a 2^scale-vertex graph."""
    n = 1 << scale
    target = edge_factor * n
    a, b, c, _ = probs
    ab, abc = a + b, a + b + c
    edges = set()
    draw = rng.random
    while len(edges) < target:
        r = col = 0
        for _ in range(scale):
            p = draw()
            r <<= 1
            col <<= 1
            if p >= abc:
                r |= 1
                col |= 1
            elif p >= ab:
                r |= 1
            elif p >= a:
                col |= 1
        edges.add((r, col))
    return n, edges


def banded(n, half_width, per_row, rng):
    """Diagonal plus per_row - 1 distinct in-band entries per row."""
    edges = set()
    for r in range(n):
        lo, hi = max(0, r - half_width), min(n - 1, r + half_width)
        cols = {r}
        want = min(per_row, hi - lo + 1)
        while len(cols) < want:
            cols.add(rng.randint(lo, hi))
        edges.update((r, col) for col in cols)
    return n, edges


def uniform(n, nnz, rng):
    """nnz distinct uniformly random coordinates of an n x n matrix."""
    edges = set()
    while len(edges) < nnz:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return n, edges


def parse_spec(spec):
    """'rmat:<scale>x<ef>', 'banded:<n>x<half>x<per_row>' or
    'uniform:<n>:<nnz>' -> (family, integer arguments)."""
    family, _, args = spec.partition(":")
    if family == "rmat":
        scale, ef = args.split("x")
        return family, (int(scale), int(ef))
    if family == "banded":
        n, half, per_row = args.split("x")
        return family, (int(n), int(half), int(per_row))
    if family == "uniform":
        n, nnz = args.split(":")
        return family, (int(n), int(nnz))
    raise ValueError(f"unknown matrix spec '{spec}'")


def write_mtx(spec, path, seed):
    """Generate `spec` from `seed` and write it to `path`; returns nnz."""
    family, args = parse_spec(spec)
    # The spec text salts the seed so files of one run differ.
    rng = random.Random(f"{seed}/{spec}")
    n, edges = {"rmat": rmat, "banded": banded,
                "uniform": uniform}[family](*args, rng)
    lines = [f"%%MatrixMarket matrix coordinate real general\n"
             f"% perfbench {spec} seed={seed}\n{n} {n} {len(edges)}\n"]
    lines.extend(f"{r + 1} {c + 1} {_value(rng)}\n"
                 for r, c in sorted(edges))
    with open(path, "w") as out:
        out.writelines(lines)
    return len(edges)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("spec")
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(write_mtx(args.spec, args.out, args.seed))


if __name__ == "__main__":
    main()
