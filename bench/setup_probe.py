"""Set-up time in a fresh interpreter: import coexsim.cli, load the config, build the taps.

    python3 bench/setup_probe.py <src dir> <config.yaml>

prints the seconds from the start of this script to K=4 taps at the config's
M, i.e. what every CLI invocation pays before it computes anything.
"""

import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from coexsim import cli
    from coexsim.filterbank import phydyas_k4, sample_taps
    config = cli.load_config(sys.argv[2])
    sample_taps(phydyas_k4(), config.M)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
