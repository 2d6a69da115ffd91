"""LP → KP → PE mapping strategies.

"It is beneficial to assign adjacent LPs to the same KP and adjacent KPs to
the same PE in order to minimize [inter-PE and inter-KP communication].
Therefore, the hot-potato simulation uses an LP/KP/PE mapping which divides
up the network into rectangular areas of LPs and rectangular areas of KPs"
(§3.2.3).  Three strategies are provided:

* ``block``  — rectangular tiles of the grid per KP, KP tiles grouped into
  rectangular PE regions (the report's mapping; minimises boundary length),
* ``striped`` — contiguous row-major ranges (locality in one dimension),
* ``random`` — the §3.2.3 strawman: adjacent LPs land on arbitrary KPs/PEs,
  maximising inter-PE traffic.  Used by the ABL-MAP ablation.

A mapping is valid for *any* LP population, but ``block`` needs the grid
dimensions; non-grid models fall back to ``striped``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.rng.lcg import splitmix64

__all__ = [
    "Mapping",
    "build_mapping",
    "balanced_tile_counts",
    "check_mapping_strategy",
    "kp_count_for",
]


def check_mapping_strategy(strategy: str) -> None:
    """Refuse an unknown strategy name (the engine configs call this, so
    a typo is a configuration error up front, not a failure at build)."""
    if strategy not in ("block", "striped", "random"):
        raise ConfigurationError(
            f"unknown mapping strategy {strategy!r}; "
            "choose 'block', 'striped' or 'random'"
        )


@dataclass(frozen=True)
class Mapping:
    """Assignment of every LP to a KP and every KP to a PE."""

    lp_to_kp: tuple[int, ...]
    kp_to_pe: tuple[int, ...]

    @property
    def n_lps(self) -> int:
        return len(self.lp_to_kp)

    @property
    def n_kps(self) -> int:
        return len(self.kp_to_pe)

    @property
    def n_pes(self) -> int:
        return max(self.kp_to_pe) + 1 if self.kp_to_pe else 1

    def lp_to_pe(self, lp: int) -> int:
        """PE hosting a given LP."""
        return self.kp_to_pe[self.lp_to_kp[lp]]

    def validate(self) -> None:
        """Check that every KP and PE id is in range and non-empty enough.

        Empty KPs are legal (ROSS allows them); empty PEs are not, since
        the executive schedules every PE.
        """
        n_kps = self.n_kps
        for lp, kp in enumerate(self.lp_to_kp):
            if not 0 <= kp < n_kps:
                raise ConfigurationError(f"LP {lp} mapped to invalid KP {kp}")
        used_pes = set(self.kp_to_pe)
        if used_pes != set(range(self.n_pes)):
            raise ConfigurationError(
                f"PE ids must be contiguous 0..{self.n_pes - 1}, got {sorted(used_pes)}"
            )


def balanced_tile_counts(n: int) -> tuple[int, int]:
    """Factor ``n`` into (rows, cols) as close to square as possible."""
    r = int(math.isqrt(n))
    while n % r:
        r -= 1
    return r, n // r


def kp_count_for(n: int, requested: int, n_pes: int) -> int:
    """Largest KP count <= ``requested`` whose block mapping tiles an n×n grid.

    Block mapping needs the balanced factorisation of the KP count to tile
    the grid and the PE count to tile the KPs.  Powers of four (1, 4, 16,
    64) tile any even grid; an odd or prime side (a 6×6 mesh, say) rounds
    down to a count that fits, so no caller has to pick a divisor by hand.
    """

    def fits(k: int) -> bool:
        if k < n_pes or k % n_pes or k > n * n:
            return False
        kr, kc = balanced_tile_counts(k)
        if n % kr or n % kc:
            return False
        pr, pc = balanced_tile_counts(n_pes)
        return kr % pr == 0 and kc % pc == 0

    for k in range(requested, n_pes - 1, -1):
        if fits(k):
            return k
    raise ConfigurationError(
        f"no usable KP count <= {requested} for the {n}x{n} grid on "
        f"{n_pes} PE(s); name the KP (and possibly PE) count explicitly"
    )


def _block_mapping(rows: int, cols: int, n_kps: int, n_pes: int) -> Mapping:
    """Rectangular KP tiles grouped into rectangular PE regions."""
    kp_r, kp_c = balanced_tile_counts(n_kps)
    if rows % kp_r or cols % kp_c:
        raise ConfigurationError(
            f"block mapping needs the {rows}x{cols} grid divisible into "
            f"{kp_r}x{kp_c} KP tiles; pick a KP count whose balanced "
            f"factorisation divides the grid (the report requires N to be a "
            f"multiple of 8 for its 64 KPs for the same reason, §3.3.1)"
        )
    tile_h, tile_w = rows // kp_r, cols // kp_c
    lp_to_kp = []
    for r in range(rows):
        for c in range(cols):
            lp_to_kp.append((r // tile_h) * kp_c + (c // tile_w))
    # Group the kp_r x kp_c grid of KPs into rectangular PE regions.
    pe_r, pe_c = balanced_tile_counts(n_pes)
    if kp_r % pe_r or kp_c % pe_c:
        raise ConfigurationError(
            f"cannot tile {kp_r}x{kp_c} KPs into {pe_r}x{pe_c} PE regions; "
            f"choose n_kps divisible by n_pes with compatible shapes"
        )
    reg_h, reg_w = kp_r // pe_r, kp_c // pe_c
    kp_to_pe = []
    for kr in range(kp_r):
        for kc in range(kp_c):
            kp_to_pe.append((kr // reg_h) * pe_c + (kc // reg_w))
    return Mapping(tuple(lp_to_kp), tuple(kp_to_pe))


def _striped_mapping(n_lps: int, n_kps: int, n_pes: int) -> Mapping:
    """Contiguous row-major ranges of LPs per KP, of KPs per PE."""
    lp_to_kp = tuple(min(lp * n_kps // n_lps, n_kps - 1) for lp in range(n_lps))
    kp_to_pe = tuple(min(kp * n_pes // n_kps, n_pes - 1) for kp in range(n_kps))
    return Mapping(lp_to_kp, kp_to_pe)


def _random_mapping(n_lps: int, n_kps: int, n_pes: int, seed: int) -> Mapping:
    """Deterministic pseudo-random scatter (the locality strawman)."""
    lp_to_kp = tuple(splitmix64(seed ^ (lp + 1)) % n_kps for lp in range(n_lps))
    # KPs stay grouped on PEs round-robin so each PE gets KPs.
    kp_to_pe = tuple(kp % n_pes for kp in range(n_kps))
    return Mapping(lp_to_kp, kp_to_pe)


def build_mapping(
    n_lps: int,
    n_kps: int,
    n_pes: int,
    strategy: str = "block",
    *,
    grid: tuple[int, int] | None = None,
    seed: int = 0,
) -> Mapping:
    """Build and validate an LP→KP→PE mapping.

    Parameters
    ----------
    n_lps, n_kps, n_pes:
        Population sizes.  ``n_kps`` must be a multiple of ``n_pes`` (each
        PE owns a whole number of KPs, as in ROSS).
    strategy:
        ``"block"`` (needs ``grid``), ``"striped"``, or ``"random"``.
    grid:
        (rows, cols) of the LP grid for the block strategy.
    seed:
        Seed for the random strategy.
    """
    check_mapping_strategy(strategy)
    if n_lps <= 0:
        raise ConfigurationError("model has no LPs")
    if n_kps <= 0 or n_pes <= 0:
        raise ConfigurationError("n_kps and n_pes must be positive")
    if n_kps < n_pes:
        raise ConfigurationError(
            f"need at least one KP per PE: n_kps={n_kps} < n_pes={n_pes}"
        )
    if n_kps % n_pes:
        raise ConfigurationError(
            f"n_kps ({n_kps}) must be a multiple of n_pes ({n_pes})"
        )
    if n_kps > n_lps:
        raise ConfigurationError(
            f"more KPs ({n_kps}) than LPs ({n_lps}) is pointless"
        )

    if strategy == "block":
        if grid is None:
            mapping = _striped_mapping(n_lps, n_kps, n_pes)
        else:
            rows, cols = grid
            if rows * cols != n_lps:
                raise ConfigurationError(
                    f"grid {rows}x{cols} does not match n_lps={n_lps}"
                )
            mapping = _block_mapping(rows, cols, n_kps, n_pes)
    elif strategy == "striped":
        mapping = _striped_mapping(n_lps, n_kps, n_pes)
    else:
        mapping = _random_mapping(n_lps, n_kps, n_pes, seed)
    mapping.validate()
    return mapping
