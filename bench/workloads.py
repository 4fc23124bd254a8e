"""The three benchmark workloads: seeded YAML configs and the CLI calls they make.

Each workload is one batch run of the coexsim CLI.  The benchmark seed only
reaches the program through the generated config file; the CLI arguments are
fixed.  Reasons are copied into BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

MC_SYMBOLS = 10_000
TABLE_GRID = ("--lmin", "-50", "--lmax", "50", "--lstep", "0.01")  # 10,001 points


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    incumbent_set: str    # YAML value of the incumbent (CP-OFDM) subcarrier set
    secondary_set: str    # YAML value of the secondary (OQAM) subcarrier set
    seed_used: bool

    def config_text(self, seed: int) -> str:
        """The scenario file the program reads; only `seed` depends on the workload seed."""
        return (
            f"# {self.name}: generated by bench/workloads.py from workload seed {seed}\n"
            "M: 512\n"
            "cp_ratio: 1/8\n"
            f"incumbent_set: {self.incumbent_set}\n"
            f"secondary_set: {self.secondary_set}\n"
            "var_qam: 1.0\n"
            "var_pam: 0.5\n"
            "delta_f: 0.0\n"
            f"seed: {config_seed(seed)}\n"
        )

    def calls(self, config: Path, out: Path) -> list[tuple[str, list[str]]]:
        """(label, argv) for each CLI call of one workload run; outputs go under `out`."""
        cfg = ["--config", str(config)]
        if self.name == "mc_s2i":
            return [("simulate", ["simulate", *cfg, "--direction", "s2i",
                                  "--symbols", str(MC_SYMBOLS), "--out", str(out / "mc.csv")])]
        if self.name == "mc_i2s":
            return [("simulate", ["simulate", *cfg, "--direction", "i2s",
                                  "--symbols", str(MC_SYMBOLS), "--out", str(out / "mc.csv")])]
        return [("verify", ["verify", *cfg]),
                ("table_s2i", ["table", *cfg, "--direction", "s2i", *TABLE_GRID,
                               "--out", str(out / "table_s2i.csv")]),
                ("table_i2s", ["table", *cfg, "--direction", "i2s", *TABLE_GRID,
                               "--out", str(out / "table_i2s.csv")])]


def config_seed(seed: int) -> int:
    """Map any integer workload seed onto the non-negative seeds the program accepts."""
    return seed % (1 << 63)


WORKLOADS = {w.name: w for w in (
    Workload("mc_s2i",
             "simulate s2i at 1e4 windows: OQAM synthesis (txrx.oqam_modulate) dominates, "
             "plus 1e4 single-window FFTs and the OQAM PSD overlay",
             "{range: [-25, 25]}", "[0]", True),
    Workload("mc_i2s",
             "simulate i2s at 1e4 slots: same layers the other way round, OQAM demodulation "
             "dominates; must not move when OQAM synthesis or the OQAM PSD changes",
             "[0]", "{range: [-25, 25]}", True),
    Workload("validate",
             "verify plus s2i/i2s tables at 10,001 fractional l: closedform, oracle and "
             "checks only, no txrx/montecarlo; has no random input, its seed is unused",
             "{range: [-25, 25]}", "[0]", False),
)}
