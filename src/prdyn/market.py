"""Market descriptions and dynamic-state containers.

Goods always have unit supply. Fisher markets carry fixed money budgets;
exchange markets carry good endowments (a partition of the goods among the
agents) plus a per-agent laziness parameter alpha in (0, 1).

A DynamicsTrace stores the PR state of the recorded iterations, the state a
full dump holds, as stacked TraceBlocks; x = b / p and e = alpha * B are
derived when read. This module owns the trace's layout and bookkeeping:
the rows a block holds (``block_rows``), the budget drift
(``budget_drift``) and, on a run that entered an exact cycle, the rows
after the stepped ones: the cycle's P rows, from which each later block is
gathered by phase when it is read (``CycleTail``, ``TraceBlocks``) and
each later row takes the per-row values of its phase
(``DynamicsTrace.repeats``, ``per_stored_row``, ``per_row``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from enum import Enum
from typing import Optional, Tuple

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


def check_size(n: int, m: int):
    """Raise UtilityParamInvalid unless a market of n buyers and m goods has one of each."""
    if n < 1 or m < 1:
        raise UtilityParamInvalid(f"market must have at least one buyer and one good, got {n}x{m}")


def validate_market(spec: MarketSpec) -> MarketSpec:
    """Check all structural invariants; return the market unchanged if they hold."""
    n, m = spec.n_buyers, spec.n_goods
    check_size(n, m)
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


@dataclass(frozen=True)
class CycleTail:
    """The rows of a run after the ones it stepped, which repeat its exact
    cycle: the iterations start to end - 1, of which the trace keeps each
    multiple of record_every and the last. `cycle` is the cycle's P rows
    as the run driver stepped them, read-only, from its first row and with
    the stop delta of each of its steps, so iteration t is its row
    (t - start) mod P; its iteration array is not read. Block i of the tail
    is its kept rows i * block_rows to (i + 1) * block_rows - 1, the layout
    DynamicsTrace.stacked gives rows, each gathered from `cycle` by phase
    when it is read."""

    cycle: TraceBlock
    start: int
    end: int
    record_every: int
    block_rows: int

    def __len__(self) -> int:
        """The rows the trace keeps."""
        k = self.record_every
        return len(range(self.start + -self.start % k, self.end, k)) + ((self.end - 1) % k > 0)

    def iterations(self, j: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """The iteration of each kept row j, j + 1, ... up to stop - 1 or the
        last: the j-th multiple of record_every from start, or end - 1 past
        the last multiple."""
        k, stop = self.record_every, len(self) if stop is None else min(stop, len(self))
        return np.minimum(np.arange(j, stop) * k + (self.start + -self.start % k), self.end - 1)

    def row(self, j: int) -> TraceBlock:
        """Kept row j, a row of the cycle."""
        t = int(self.iterations(j, j + 1)[0])
        return replace(self.cycle.row((t - self.start) % len(self.cycle)), iteration=t)

    def block(self, i: int) -> TraceBlock:
        t = self.iterations(i * self.block_rows, (i + 1) * self.block_rows)
        rows = self.cycle.take((t - self.start) % len(self.cycle))
        return replace(rows, iteration=t.astype(float)).take(slice(None))  # all read-only


class TraceBlocks(Sequence):
    """A trace's blocks as one read-only sequence: the stored blocks, then
    the blocks of the run's CycleTail, if it has one, each built when it is
    read."""

    def __init__(self, stored=(), tail: Optional[CycleTail] = None):
        self.stored, self.tail = tuple(stored), tail

    def __len__(self) -> int:
        tail = self.tail
        return len(self.stored) + (0 if tail is None else -(-len(tail) // tail.block_rows))

    def __getitem__(self, k):
        """Block k, or the list of the blocks of a slice."""
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # IndexError when out of range
        return self.stored[k] if k < len(self.stored) else self.tail.block(k - len(self.stored))


class _Rows(Sequence):
    """The rows of a trace's blocks as one read-only sequence; the rows of
    its tail are read from the tail, with no block built."""

    def __init__(self, blocks: TraceBlocks):
        self.blocks = blocks

    def __len__(self) -> int:
        tail = self.blocks.tail
        return sum(len(block) for block in self.blocks.stored) + (0 if tail is None else len(tail))

    def __getitem__(self, k):
        """Row k, or the list of the rows of a slice."""
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # IndexError when out of range
        for block in self.blocks.stored:
            if k < len(block):
                return block.row(k)
            k -= len(block)
        return self.blocks.tail.row(k)

    def __iter__(self):
        for block in self.blocks:
            for k in range(len(block)):
                yield block.row(k)


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
    field can be set afterwards. ``blocks`` is a read-only TraceBlocks; a
    list given for it is taken as its stored blocks.

    ``budget_drift`` is the worst deviation of sum_i B_i from 1 seen at any
    iteration of an exchange run (0.0 for Fisher runs); a trace built by
    ``stacked`` takes it from the given B_i.

    ``cycle`` is (onset, period) when the run driver found that the run's
    state repeats bit for bit: from iteration onset on, the bids, bank
    balances and prices of iteration t are those of iteration
    onset + (t - onset) mod period. The driver stepped the iterations
    before onset + period, which are the stored blocks; the later ones are
    the blocks' CycleTail, the cycle's P rows, from which each later block
    is gathered when it is read. It is None on a trace that did not cycle
    and on one built by ``stacked``. ``records``, ``is_consecutive`` and
    ``per_stored_row`` read the stored blocks and the tail's extent, and
    ``per_stored_row`` evaluates each distinct row of a cycling trace once.
    """

    mode: Mode
    blocks: TraceBlocks = field(default_factory=TraceBlocks)
    stop_reason: str = ""
    n_steps: int = 0
    budget_drift: float = 0.0
    cycle: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if not isinstance(self.blocks, TraceBlocks):
            object.__setattr__(self, "blocks", TraceBlocks(self.blocks))

    @classmethod
    def stacked(cls, market: MarketSpec, iteration, prices, bids, stop_delta,
                budgets_B=None) -> "DynamicsTrace":
        """The one constructor of a trace from whole stacked arrays, such as a
        full dump read back: the fields of a TraceBlock of every row. The
        blocks are read-only views of these arrays. n_steps is the last
        iteration + 1; a trace of no rows is the empty trace of the mode,
        as read_trace gives for a dump with no rows."""
        whole = TraceBlock(*(None if a is None else np.asarray(a, dtype=float)
                             for a in (iteration, prices, bids, stop_delta, budgets_B)),
                           market.laziness)
        if not len(whole):
            return cls(market.mode)
        size = block_rows(market)
        blocks = [whole.take(slice(k, k + size)) for k in range(0, len(whole), size)]
        drift = 0.0 if budgets_B is None else budget_drift(whole.budgets_B)
        return cls(market.mode, blocks, n_steps=int(whole.iteration[-1]) + 1, budget_drift=drift)

    @property
    def records(self) -> Sequence[TraceBlock]:
        """Every recorded row, oldest first, as views of the blocks."""
        return _Rows(self.blocks)

    def repeats(self, rows: int) -> np.ndarray:
        """The row whose values each of the rows 0 .. rows - 1 of a
        consecutive trace takes: on a trace that cycles from iteration onset
        on with period P, row t >= onset takes those of row
        onset + (t - onset) mod P, a stored row; every other row its own.
        Step t, from row t to row t + 1, likewise repeats step repeats[t]."""
        onset, period = self.cycle or (rows, 1)
        return np.r_[:onset, onset + np.arange(rows - onset) % period]

    def per_stored_row(self, series) -> np.ndarray:
        """series(block, after), the values of each row of a block (an array
        with a leading axis of its rows) given the row after it (None after
        the last), for every stored row of a consecutive trace and, on one
        with a CycleTail, for the row after them, which repeats the cycle's
        first row. On a trace that cycles from iteration onset on with period
        P the stored rows are those up to onset + P - 1, so this costs the
        stepped rows, whatever the trace's length. A row has the same bits
        alone or inside a block, so each value is bit for bit what
        evaluating its row gives."""
        blocks, tail = self.blocks.stored, self.blocks.tail
        afters = [*(block.row(0) for block in blocks[1:]), None if tail is None else tail.row(0)]
        values = np.concatenate([series(block, after) for block, after in zip(blocks, afters)])
        return values if tail is None else values[self.repeats(len(values) + 1)]

    def per_row(self, series) -> np.ndarray:
        """per_stored_row's values for every row of a consecutive trace, row
        t's gathered from those of row repeats(...)[t]: an array of
        len(records) rows, for a quantity built on them that differs on
        every row even where the state repeats, such as the running mean of
        the prices. The diagnostics reports read per_stored_row instead, and
        their later entries repeat the cycle's P values."""
        values = self.per_stored_row(series)
        return values if self.blocks.tail is None else values[self.repeats(len(self.records))]

    def is_consecutive(self) -> bool:
        """Whether the rows are the iterations 0, 1, 2, ... with none missing."""
        stored, tail = self.blocks.stored, self.blocks.tail
        if not stored:
            return False
        iterations = np.concatenate([block.iteration for block in stored])
        return np.array_equal(iterations, np.arange(len(iterations))) and (
            tail is None or tail.start == len(iterations) == tail.end - len(tail))
