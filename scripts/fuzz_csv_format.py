#!/usr/bin/env python3
"""Compare the CSV writer's %.17e renderer with Python's % on 2.2 million doubles.

    PYTHONPATH=src python3 scripts/fuzz_csv_format.py

The values are 10^6 random doubles (seed _SEED) and every exact 18-digit tie
q / 2^18 in [1, 10) (q odd, 1,179,648 values).  Half of the random doubles
are any 64-bit pattern (nan, inf, subnormals and negatives included); the
other half are positive doubles between 2^-330 and 2^333, the range the
renderer computes rather than hands to %.  They go through in blocks of
10^5 to keep memory small.  Prints one summary line; exits 1 on any
mismatch, after printing the first few.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from coexsim.cli import _render_lin

_BLOCK = 10 ** 5
_SEED = 20161


def _random_blocks(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count // _BLOCK // 2):
        yield rng.integers(0, 2 ** 64, _BLOCK, dtype=np.uint64).view(np.float64)
        exponent = rng.integers(1023 - 330, 1023 + 333, _BLOCK, dtype=np.uint64)
        mantissa = rng.integers(0, 2 ** 52, _BLOCK, dtype=np.uint64)
        yield ((exponent << np.uint64(52)) | mantissa).view(np.float64)


def _tie_blocks():
    q = np.arange((1 << 18) + 1, 10 << 18, 2)
    for start in range(0, len(q), _BLOCK):
        yield q[start:start + _BLOCK] / 2.0 ** 18


def main() -> int:
    checked, mismatches = 0, []
    for block in itertools.chain(_random_blocks(_SEED, 10 ** 6), _tie_blocks()):
        rendered = _render_lin(block)
        for v, got in zip(block.tolist(), rendered):
            if got != ("%.17e" % v).encode():
                mismatches.append((v, got))
        checked += len(block)
    print(f"{checked} values, {len(mismatches)} mismatches against %.17e (seed {_SEED})")
    for v, got in mismatches[:10]:
        print(f"  {v!r}: rendered {got.decode()}, % gives {'%.17e' % v}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
