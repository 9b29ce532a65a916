"""Per-trial bookkeeping: sum LLRs, rankings, and declarations.

A :class:`SearchState` tracks, for each of the M cells, the running sum of
log-likelihood ratios of every observation taken from that cell, plus which
cells have been declared so far. The scalar step rules in ``policies`` are
pure functions of this state; a caller stepping one trial owns exactly one
state and mutates it in place. The lockstep engine in ``sim`` keeps the
same sums for many trials at once as arrays.

Cells are ranked by sum LLR, largest first. Equal sums are ordered by
ascending cell index: the tie direction is arbitrary in principle, but
fixing it makes every policy deterministic and every golden test replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .models import ObservationModel

__all__ = ["Declaration", "SearchState", "update", "ranked_cells"]


@dataclass(frozen=True)
class Declaration:
    """One declaration event: cell index, round it happened, and which verdict."""

    cell: int
    time: int
    kind: str  # "abnormal" or "normal"


class SearchState:
    """Sum-LLR ledger for one trial.

    Attributes
    ----------
    n: rounds elapsed (each round probes a fixed-size set of cells).
    s: per-cell sum of observation LLRs; zero for never-probed cells.
    declared: append-only list of Declaration events, times non-decreasing.
    """

    __slots__ = ("n", "s", "declared", "_abnormal", "_normal")

    def __init__(self, num_cells: int) -> None:
        if num_cells < 2:
            raise ValueError("need at least two cells to search")
        self.n = 0
        self.s = [0.0] * num_cells
        self.declared: list[Declaration] = []
        self._abnormal: set[int] = set()
        self._normal: set[int] = set()

    @property
    def num_cells(self) -> int:
        return len(self.s)

    @property
    def declared_abnormal(self) -> set[int]:
        """Cells declared abnormal so far. Treat as read-only."""
        return self._abnormal

    @property
    def declared_normal(self) -> set[int]:
        return self._normal

    def declare(self, cells: Iterable[int], kind: str) -> None:
        """Record declaration events at the current round; append-only."""
        if kind == "abnormal":
            target = self._abnormal
        elif kind == "normal":
            target = self._normal
        else:
            raise ValueError(f"declaration kind must be 'abnormal' or 'normal', got {kind!r}")
        for cell in cells:
            if not 0 <= cell < self.num_cells:
                raise ValueError(f"declared cell {cell} out of range [0, {self.num_cells})")
            if cell in self._abnormal or cell in self._normal:
                raise ValueError(f"cell {cell} was already declared")
            target.add(cell)
            self.declared.append(Declaration(cell=cell, time=self.n, kind=kind))


def update(
    state: SearchState,
    probes: Iterable[int],
    observations: Mapping[int, float],
    model: ObservationModel,
) -> SearchState:
    """Fold one round of observations into the state (in place).

    Every probed cell m gets s[m] += llr(y_m); the round counter advances
    by one. Probes must be distinct, in range, and carry
    exactly one observation each. Returns the same state object.
    """
    cells = tuple(probes)
    m_total = state.num_cells
    seen = set()
    for m in cells:
        if not 0 <= m < m_total:
            raise ValueError(f"probe index {m} out of range [0, {m_total})")
        if m in seen:
            raise ValueError(f"duplicate probe of cell {m}")
        seen.add(m)
    if seen != set(observations.keys()):
        raise ValueError("observations must be keyed exactly by the probed cells")
    llr = model.llr
    for m in cells:
        state.s[m] += llr(observations[m])
    state.n += 1
    return state


def ranked_cells(state: SearchState) -> list[int]:
    """Cell indices sorted by sum LLR, highest first; ties by ascending index.

    Position i-1 holds the i-th ranked cell. Stable sort keeps equal sums in
    index order, which is exactly the tie rule above.
    """
    return sorted(range(len(state.s)), key=state.s.__getitem__, reverse=True)

