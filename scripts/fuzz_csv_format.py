#!/usr/bin/env python3
"""Compare the CSV writer's three renderers with Python's % on about 6 million doubles.

    PYTHONPATH=src python3 scripts/fuzz_csv_format.py

Each renderer gets 10^6 random doubles (seed _SEED) and its exact ties:
- %.17e (power columns): half of the random doubles are any 64-bit pattern
  (nan, inf, subnormals and negatives included), half are positive doubles
  between 2^-330 and 2^333, the range the renderer computes rather than hands
  to %; the ties are every q / 2^18 in [1, 10), q odd (1,179,648 values).
- %.10g (l): half any 64-bit pattern, half of either sign between 2^-17 and
  2^34, around the fixed-notation range [1e-4, 1e10); the ties are q / 2^(10-X)
  for odd q in each decade [10^X, 10^(X+1)), X = -5 ... 9, exactly halfway
  between two 10-digit decimals (all 4,608 in [1, 10), 20,000 random ones in
  every other decade), and the carries are doubles just below each 10^(X+1)
  whose 10 digits round up to it, all of either sign.
- %.6f (dB): half any 64-bit pattern, half of either sign below 2^15 in
  magnitude, around the rendered range |x| < 10^4; the ties are every
  q / 2^7 below 10^4, q odd, of either sign (1,280,000 values).

They go through in blocks of 10^5 to keep memory small.  Prints one summary
line per renderer; exits 1 on any mismatch, after printing the first few.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from coexsim.csvtext import DB, L, LIN, _TEXT, _cells

_BLOCK = 10 ** 5
_SEED = 20161


def _doubles(rng, exponents: tuple[int, int], signed: bool):
    """_BLOCK doubles with random mantissas and binary exponents in [lo, hi), of random sign."""
    exponent = rng.integers(1023 + exponents[0], 1023 + exponents[1], _BLOCK, dtype=np.uint64)
    bits = (exponent << np.uint64(52)) | rng.integers(0, 2 ** 52, _BLOCK, dtype=np.uint64)
    if signed:
        bits |= rng.integers(0, 2, _BLOCK, dtype=np.uint64) << np.uint64(63)
    return bits.view(np.float64)


def _random_blocks(rng, exponents: tuple[int, int], signed: bool, count: int = 10 ** 6):
    for _ in range(count // _BLOCK // 2):
        yield rng.integers(0, 2 ** 64, _BLOCK, dtype=np.uint64).view(np.float64)
        yield _doubles(rng, exponents, signed)


def _blocks(values: np.ndarray):
    for start in range(0, len(values), _BLOCK):
        yield values[start:start + _BLOCK]


def _l_edges(rng) -> np.ndarray:
    """Ties and carries of %.10g, of either sign.

    The ties are odd q / 2^(10-X) in [10^X, 10^(X+1)), halfway between two
    decimals of 10 digits; the carries are 2,000 random doubles within 5e-11
    relative below each 10^(X+1), whose 10 digits round up to it.
    """
    edges = []
    for x in range(-5, 10):
        scale = 2.0 ** (10 - x)
        lo, hi = int(np.ceil(10.0 ** x * scale)), int(10.0 ** (x + 1) * scale)
        q = (np.arange(lo, hi) if x == 0 else rng.integers(lo, hi, 20_000)) | 1
        edges += [q[q < hi] / scale, 10.0 ** (x + 1) * (1 - 5e-11 * rng.random(2_000))]
    edges = np.concatenate(edges)
    return np.concatenate([edges, -edges])


def _cases(rng):
    """(spec, blocks of values) for each renderer."""
    lin_ties = np.arange((1 << 18) + 1, 10 << 18, 2) / 2.0 ** 18
    db_ties = np.arange(1, 10 ** 4 << 7, 2) / 2.0 ** 7
    return [(LIN, itertools.chain(_random_blocks(rng, (-330, 333), False), _blocks(lin_ties))),
            (L, itertools.chain(_random_blocks(rng, (-17, 34), True), _blocks(_l_edges(rng)))),
            (DB, itertools.chain(_random_blocks(rng, (-30, 15), True),
                                  _blocks(np.concatenate([db_ties, -db_ties]))))]


def main() -> int:
    rng = np.random.default_rng(_SEED)
    failed = False
    for spec, blocks in _cases(rng):
        checked, mismatches = 0, []
        template = f"%{spec}"
        for block in blocks:
            rendered = _cells(_TEXT[spec](block))
            for v, got in zip(block.tolist(), rendered):
                if got != (template % v).encode():
                    mismatches.append((v, got))
            checked += len(block)
        print(f"{template}: {checked} values, {len(mismatches)} mismatches against % (seed {_SEED})")
        for v, got in mismatches[:10]:
            print(f"  {v!r}: rendered {got.decode()}, % gives {template % v}")
        failed |= bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
