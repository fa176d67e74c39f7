"""Market descriptions and dynamic-state containers.

Goods always have unit supply. Fisher markets carry fixed money budgets;
exchange markets carry good endowments (a partition of the goods among the
agents) plus a per-agent laziness parameter alpha in (0, 1).

A DynamicsTrace stores the PR state of the recorded iterations, the state a
full dump holds, as stacked TraceBlocks; x = b / p and e = alpha * B are
derived when read. This module owns the trace's layout and bookkeeping:
the rows a block holds (``block_rows``), the budget drift
(``budget_drift``) and, on a run that entered an exact cycle, which blocks
hold its distinct rows and how rows are tiled by whole cycles
(``DynamicsTrace.distinct_blocks``, ``tile_cycle`` and ``per_row``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    EndowmentNotPartition,
    LazinessOutOfRange,
    NonPositiveBudget,
    UtilityParamInvalid,
)
from .utilities import UtilitySpec, share_row

# Bids in one block of a trace, and at most in one block of steps that the
# run driver settles at once (prdyn.dynamics gives its block schedule). A
# block holds as many rows as fit in BLOCK_ENTRIES (at least one), so each
# stacked array stays near 256 KB whatever the trace length or market size.
# A fixed row count does not bound memory: blocks of 1024 records raised the
# peak memory of `prdyn run --diagnostics` and `verify` on 60x60 Fisher
# markets by 16 %.
BLOCK_ENTRIES = 1 << 15


def block_rows(market: MarketSpec) -> int:
    """The rows of one block of market's trace; the run driver steps at most
    this many at once (see prdyn.dynamics)."""
    return max(1, BLOCK_ENTRIES // (market.n_buyers * market.n_goods))


class Mode(Enum):
    FISHER = "fisher"
    EXCHANGE = "exchange"


@dataclass(frozen=True)
class MarketSpec:
    """Immutable market description.

    Fisher mode: ``budgets`` set, ``endowments``/``laziness`` None.
    Exchange mode: the converse; ``endowments[i]`` is the tuple of 0-based
    good indices owned by agent i, and the tuples partition range(n_goods).
    """

    n_buyers: int
    n_goods: int
    utilities: Tuple[UtilitySpec, ...]
    mode: Mode
    budgets: Optional[np.ndarray] = None
    endowments: Optional[Tuple[Tuple[int, ...], ...]] = None
    laziness: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "utilities", tuple(self.utilities))
        if self.budgets is not None:
            object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
        if self.laziness is not None:
            object.__setattr__(self, "laziness", np.asarray(self.laziness, dtype=float))
        if self.endowments is not None:
            object.__setattr__(
                self, "endowments", tuple(tuple(int(j) for j in g) for g in self.endowments)
            )

    @cached_property
    def ownership(self) -> np.ndarray:
        """One-hot matrix O (exchange mode): O[i, j] = 1 when agent i owns good j."""
        O = np.zeros((self.n_buyers, self.n_goods))
        for i, goods in enumerate(self.endowments):
            O[i, list(goods)] = 1.0
        return O

    @cached_property
    def share_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """n x m arrays (C, R); row i is buyer i's ``utilities.share_row``."""
        C, R = zip(*(share_row(u) for u in self.utilities))
        return np.stack(C), np.stack(R)


def income(market: MarketSpec, p: np.ndarray) -> np.ndarray:
    """Money each agent receives at prices p: the fixed budget in a Fisher
    market, the revenue O @ p of the owned goods in an exchange market."""
    if market.mode is Mode.FISHER:
        return market.budgets
    return market.ownership @ p


def validate_market(spec: MarketSpec) -> MarketSpec:
    """Check all structural invariants; return the market unchanged if they hold."""
    n, m = spec.n_buyers, spec.n_goods
    if n < 1 or m < 1:
        raise UtilityParamInvalid(f"market must have at least one buyer and one good, got {n}x{m}")
    if len(spec.utilities) != n:
        raise UtilityParamInvalid(f"expected {n} utilities, got {len(spec.utilities)}")
    for i, u in enumerate(spec.utilities):
        if u.n_goods != m:
            raise UtilityParamInvalid(f"buyer {i}: utility covers {u.n_goods} goods, market has {m}")

    if spec.mode is Mode.FISHER:
        if spec.budgets is None:
            raise NonPositiveBudget("Fisher market requires budgets")
        if spec.endowments is not None or spec.laziness is not None:
            raise UtilityParamInvalid("Fisher market must not carry endowments or laziness")
        if spec.budgets.shape != (n,):
            raise NonPositiveBudget(f"budgets shape {spec.budgets.shape}, expected ({n},)")
        if not np.all(np.isfinite(spec.budgets) & (spec.budgets > 0)):
            raise NonPositiveBudget(
                f"budgets must be finite and strictly positive, got {spec.budgets}"
            )
    else:
        if spec.budgets is not None:
            raise UtilityParamInvalid("exchange market must not carry budgets")
        if spec.endowments is None or spec.laziness is None:
            raise EndowmentNotPartition("exchange market requires endowments and laziness")
        if len(spec.endowments) != n:
            raise EndowmentNotPartition(f"expected {n} endowment sets, got {len(spec.endowments)}")
        for i, goods in enumerate(spec.endowments):
            if not goods:
                raise EndowmentNotPartition(f"agent {i} owns no goods, so it never has income")
        owned = [j for g in spec.endowments for j in g]
        if sorted(owned) != list(range(m)):
            raise EndowmentNotPartition(
                f"endowment sets must partition the {m} goods, got {spec.endowments}"
            )
        if spec.laziness.shape != (n,):
            raise LazinessOutOfRange(f"laziness shape {spec.laziness.shape}, expected ({n},)")
        if not np.all((spec.laziness > 0) & (spec.laziness < 1)):
            raise LazinessOutOfRange(f"laziness must lie in (0, 1), got {spec.laziness}")
    return spec


@dataclass(frozen=True)
class FisherState:
    """Bid matrix b[i, j] (currency) at one iteration of the Fisher dynamics."""

    bids: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bids", np.asarray(self.bids, dtype=float))


@dataclass(frozen=True)
class ExchangeState:
    """Per-agent bank balance B, spendable money e = alpha * B, and bids."""

    budgets_B: np.ndarray
    spend_e: np.ndarray
    bids: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "budgets_B", np.asarray(self.budgets_B, dtype=float))
        object.__setattr__(self, "spend_e", np.asarray(self.spend_e, dtype=float))
        object.__setattr__(self, "bids", np.asarray(self.bids, dtype=float))


_STACKED = ("iteration", "prices", "bids", "stop_delta", "budgets_B")


@dataclass(frozen=True)
class TraceBlock:
    """Recorded rows of the PR state, stacked along a leading time axis:
    iteration (k,), prices (k, m), bids (k, n, m), stop_delta (k,) and, in
    exchange mode, budgets_B (k, n). stop_delta is the infinity-norm change of
    the stop quantity (the prices in a Fisher market, the allocation in an
    exchange market) from the step before, inf at the first step of a run.
    ``row(k)`` gives one row, the same fields without the time axis."""

    iteration: np.ndarray
    prices: np.ndarray
    bids: np.ndarray
    stop_delta: np.ndarray
    budgets_B: Optional[np.ndarray]
    laziness: Optional[np.ndarray]

    @classmethod
    def empty(cls, market: MarketSpec, rows: int) -> "TraceBlock":
        """Uninitialized rows, for the run driver to fill."""
        n, m = market.n_buyers, market.n_goods
        B = np.empty((rows, n)) if market.mode is Mode.EXCHANGE else None
        return cls(np.empty(rows), np.empty((rows, m)), np.empty((rows, n, m)), np.empty(rows),
                   B, market.laziness)

    def __len__(self) -> int:
        return len(self.iteration)

    def take(self, rows) -> "TraceBlock":
        """The rows `rows` as read-only arrays: views for a slice, a copy for a mask."""
        return self.map(lambda stacked: stacked[rows])

    def map(self, f) -> "TraceBlock":
        """The block of f(a) for each stacked array a, made read-only."""
        taken = {name: f(a) for name in _STACKED if (a := getattr(self, name)) is not None}
        for a in taken.values():
            a.flags.writeable = False
        return replace(self, **taken)

    def row(self, k: int) -> "TraceBlock":
        B = self.budgets_B
        return TraceBlock(int(self.iteration[k]), self.prices[k], self.bids[k],
                          float(self.stop_delta[k]), None if B is None else B[k], self.laziness)

    @property
    def allocation(self) -> np.ndarray:
        """x = b / p, bit for bit as the PR map computes it."""
        with np.errstate(divide="ignore", invalid="ignore"):  # p = 0: its bids fail diagnostics
            return self.bids / self.prices[..., None, :]

    @property
    def spend_e(self) -> Optional[np.ndarray]:
        """e = laziness * B, bit for bit as the PR map computes it."""
        return None if self.budgets_B is None else self.laziness * self.budgets_B


class _Rows(Sequence):
    """The rows of a list of blocks as one read-only sequence."""

    def __init__(self, blocks: List[TraceBlock]):
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(len(block) for block in self.blocks)

    def __getitem__(self, k):
        """Row k, or the list of the rows of a slice."""
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # IndexError when out of range
        for block in self.blocks:
            if k < len(block):
                return block.row(k)
            k -= len(block)

    def __iter__(self):
        for block in self.blocks:
            for k in range(len(block)):
                yield block.row(k)


def tile_cycle(rows: np.ndarray, count: int) -> np.ndarray:
    """The first `count` rows of a cycle whose P rows, from its first, are
    `rows`: whole tiles of them along the leading axis, the last cut short."""
    return np.tile(rows, (-(-count // len(rows)),) + (1,) * (rows.ndim - 1))[:count]


def budget_drift(budgets_B: np.ndarray, drift: float = 0.0) -> float:
    """drift widened to cover one vector of bank balances, or a stack of
    them along a leading axis: the worst deviation of sum_i B_i from 1. A
    NaN balance makes it NaN."""
    deviation = np.abs(np.add.reduce(budgets_B, axis=-1) - 1.0)
    return float(np.maximum.reduce(deviation, None, initial=drift))


@dataclass(frozen=True)
class DynamicsTrace:
    """The PR state of the recorded iterations, in TraceBlocks of at most
    ``block_rows`` rows, plus run-level bookkeeping. The run driver and
    ``stacked`` build it with one constructor call, and it is frozen: no
    field can be set afterwards.

    ``budget_drift`` is the worst deviation of sum_i B_i from 1 seen at any
    iteration of an exchange run (0.0 for Fisher runs); a trace built by
    ``stacked`` takes it from the given B_i.

    ``cycle`` is (onset, period) when the run driver found that the run's
    state repeats bit for bit: from iteration onset on, the bids, bank
    balances and prices of iteration t are those of iteration
    onset + (t - onset) mod period. The driver stepped the iterations
    before onset + period, and its later blocks are read-only views of one
    buffer of the cycle's rows. It is None on a trace that did not cycle
    and on one built by ``stacked``. ``distinct_blocks`` and ``per_row`` read
    it to evaluate each distinct row of a cycling trace once.
    """

    mode: Mode
    blocks: List[TraceBlock] = field(default_factory=list)
    stop_reason: str = ""
    n_steps: int = 0
    budget_drift: float = 0.0
    cycle: Optional[Tuple[int, int]] = None

    @classmethod
    def stacked(cls, market: MarketSpec, iteration, prices, bids, stop_delta,
                budgets_B=None) -> "DynamicsTrace":
        """The one constructor of a trace from whole stacked arrays, such as a
        full dump read back: the fields of a TraceBlock of every row. The
        blocks are read-only views of these arrays. n_steps is the last
        iteration + 1."""
        whole = TraceBlock(*(None if a is None else np.asarray(a, dtype=float)
                             for a in (iteration, prices, bids, stop_delta, budgets_B)),
                           market.laziness)
        size = block_rows(market)
        blocks = [whole.take(slice(k, k + size)) for k in range(0, len(whole), size)]
        drift = 0.0 if budgets_B is None else budget_drift(whole.budgets_B)
        return cls(market.mode, blocks, n_steps=int(whole.iteration[-1]) + 1, budget_drift=drift)

    @property
    def records(self) -> Sequence[TraceBlock]:
        """Every recorded row, oldest first, as views of the stored blocks."""
        return _Rows(self.blocks)

    def distinct_blocks(self) -> List[TraceBlock]:
        """The blocks that hold every distinct row: on a trace that cycles
        from iteration onset on with period P, the blocks up to the one that
        holds row onset + P - 1; on any other trace, every block."""
        done = 0
        for k, block in enumerate(self.blocks):
            done += len(block)
            if self.cycle is not None and done >= sum(self.cycle):
                return self.blocks[:k + 1]
        return self.blocks

    def per_row(self, series) -> np.ndarray:
        """series(block, after), the values of each row of a block (an array
        with a leading axis of its rows) given the block after it (None
        after the last), for every row of a consecutive trace. It evaluates
        the distinct_blocks only: on a trace that cycles from iteration
        onset on with period P, the rows from onset on are whole tiles of
        the values of rows onset to onset + P - 1 (tile_cycle), so row t
        takes those of row onset + (t - onset) mod P. A row has the same bits
        alone or inside a block, so this is bit for bit what evaluating every
        row gives."""
        blocks = self.distinct_blocks()
        values = np.concatenate([series(block, after)
                                 for block, after in zip(blocks, [*self.blocks[1:], None])])
        done, total = len(values), len(self.records)
        if done < total:
            onset, period = self.cycle
            cycle = tile_cycle(values[onset:onset + period], total - onset)
            values = np.concatenate((values[:onset], cycle))
        return values

    def is_consecutive(self) -> bool:
        """Whether the rows are the iterations 0, 1, 2, ... with none missing."""
        if not self.blocks:
            return False
        iterations = np.concatenate([block.iteration for block in self.blocks])
        return np.array_equal(iterations, np.arange(len(iterations)))
