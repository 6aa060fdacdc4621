"""Deterministic counter-based random streams and the trial driver.

Built on the Philox bit generator, whose output is a pure function of
(key, counter).  The key is the (seed, stream_id) pair and each
simulation trial owns one counter block of four 64-bit words, so trial
i's randomness depends only on (seed, stream_id, i), on every platform.

numpy draws a double as ``(w >> 11) * 2**-53``, so ``u < p`` holds
exactly when ``(w >> 11) < threshold(p)``, that is when the raw word
``w <= (threshold(p) << 11) - 1``: simulations compare raw words against
integer bounds and every trial keeps the outcome the float draw gives it.
A simulation declares its coins (draw, threshold); bit k of a trial's
world code is set when coin k came up.  In both simulations a common
cause (the hidden sign, or the source's executive algorithm) fixes a
registered sign pair, and each lists what its world codes mean as
:class:`World` records.  :func:`fold` adds each world's mass, its
probability or its count, into per-cause sign-pair cells in table order,
so the exact report and the simulated one are the same sum.

The driver cuts the trials into fixed chunks of :data:`CHUNK_TRIALS`
whatever the worker count, so memory does not grow with the trial count.
:func:`simulate`, each simulation's one call, folds its world counts:
:func:`count_worlds` runs the chunks on at most ``os.cpu_count()``
threads and sums their exact histograms, so the result is the same for
every worker count; given a CSV path, :func:`write_trials` runs them in
order on one thread, writing each chunk's rows before drawing the next.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import require_count, require_path, require_probability, require_u64

#: Draws available per counter block (one Philox block is 4 x 64 bits).
BLOCK_DRAWS = 4

#: Trials per chunk: the unit of work a thread picks up.
CHUNK_TRIALS = 1 << 16

#: (draw index within the trial's block, threshold): the coin comes up
#: when that draw's 53-bit integer is below the threshold.
Coin = tuple[int, np.uint64]

#: Registered sign pairs, in the order cells and reports list them.
SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def glyph(*signs: int) -> str:
    """The signs as text: ``glyph(1, -1)`` is ``"+-"``."""
    return "".join("+" if s > 0 else "-" for s in signs)


@dataclass(frozen=True, slots=True)
class World:
    """One outcome of a trial's coins."""

    code: int  # bit k is set when coin k came up
    prob: float  # the product of its coin probabilities
    cause: int  # 0 or 1: the value the trial's common cause took
    signs: tuple[int, int] | None  # the registered sign pair; None unless both register
    row: str  # CSV row text after the trial number


def fold(worlds: list[World], mass=None) -> tuple[tuple[dict, dict], list]:
    """Per-cause sign-pair cells and registered totals, adding masses in table order.

    A world's mass is ``mass[world.code]``, or its probability when
    ``mass`` is None; unregistered worlds add nothing.
    """
    cells = ({pair: 0 for pair in SIGN_PAIRS}, {pair: 0 for pair in SIGN_PAIRS})
    registered = [0, 0]
    for world in worlds:
        if world.signs is not None:
            m = world.prob if mass is None else mass[world.code]
            cells[world.cause][world.signs] += m
            registered[world.cause] += m
    return cells, registered


def threshold(p: float) -> np.uint64:
    """``ceil(p * 2**53)``: ``(w >> 11) < threshold(p)`` exactly when numpy's ``u < p``."""
    return np.uint64(math.ceil(require_probability(p, "p") * 9007199254740992.0))


@dataclass(frozen=True, slots=True)
class RngStream:
    """A named, reproducible stream of uniform draws."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", require_u64(self.seed, "seed"))
        object.__setattr__(self, "stream_id", require_u64(self.stream_id, "stream_id"))

    def _bit_generator(self, block: int) -> np.random.Philox:
        block = require_u64(block, "block")
        bg = np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        if block:
            bg.advance(block)
        return bg

    def trial_words(self, n_trials: int, start: int = 0) -> np.ndarray:
        """Raw uint64 words of trials [start, start + n_trials), shape (n_trials, 4).

        Row i is counter block ``start + i``, so chunks with matching
        offsets concatenate to the sequential stream.
        """
        n_trials = require_u64(n_trials, "n_trials")
        words = self._bit_generator(start).random_raw(n_trials * BLOCK_DRAWS)
        return words.reshape(n_trials, BLOCK_DRAWS)


def _chunk_codes(stream: RngStream, lo: int, trials: int, coins: tuple[Coin, ...]) -> np.ndarray:
    """World code of each trial in the chunk at ``lo``: bit k is set when coin k came up."""
    draws = stream.trial_words(min(CHUNK_TRIALS, trials - lo), lo)
    codes = np.zeros(len(draws), dtype=np.uint8)
    for bit, (draw, limit) in enumerate(coins):
        if limit:  # (w >> 11) < t is w <= (t << 11) - 1; t = 0 never comes up and has no bound
            bound = np.uint64((int(limit) << 11) - 1)
            codes |= (draws[:, draw] <= bound).view(np.uint8) << np.uint8(bit)
    return codes


def count_worlds(
    stream: RngStream, trials: int, coins: tuple[Coin, ...], workers: int = 1
) -> np.ndarray:
    """Exact int64 histogram of the world codes of trials [0, trials).

    ``workers`` caps the threads, one pool task each taking chunks from one iterator,
    as do the chunk count and the CPU count; the histogram is the same for any value.
    """
    require_count(workers, "workers")
    starts, lock = iter(range(0, trials, CHUNK_TRIALS)), threading.Lock()

    def count(_) -> np.ndarray:
        histogram = np.zeros(1 << len(coins), dtype=np.int64)
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return histogram
            codes = _chunk_codes(stream, lo, trials, coins)
            histogram += np.bincount(codes, minlength=len(histogram))

    threads = max(1, min(workers, -(-trials // CHUNK_TRIALS), os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(count, range(threads)), np.zeros(1 << len(coins), dtype=np.int64))


def write_trials(
    path, header: str, stream: RngStream, trials: int, coins: tuple[Coin, ...],
    row_text: list[str],
) -> np.ndarray:
    """Write a CSV of trials [0, trials) and return :func:`count_worlds`' histogram.

    The file is opened before anything is simulated.  Trial i's line is
    ``f"{i}{row_text[code]}"`` for its world code, built as a head,
    ``str(i // 100)`` (empty below 100), and a tail looked up by
    ``(i % 100, code)`` in a table of 100 * len(row_text) lines made once
    per file.  A chunk's tails are gathered with numpy in one call, and
    the rows of each block of trials [100h, 100h + 100) are written as
    ``head + head.join(tails)``; rows are written one chunk at a time, so
    memory does not grow with ``trials``.
    """
    worlds = np.zeros(1 << len(coins), dtype=np.int64)
    # Tails "00".."99": trials 0-9 drop the "0", since their head is empty.
    padded = np.array([f"{r:02d}{t}" for r in range(100) for t in row_text], dtype=object)
    offsets = np.arange(CHUNK_TRIALS + 100) % 100 * len(row_text)
    with open(require_path(path, "csv_out"), "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, trials, CHUNK_TRIALS):
            codes = _chunk_codes(stream, lo, trials, coins)
            worlds += np.bincount(codes, minlength=len(worlds))
            n = len(codes)
            tail = offsets[lo % 100:lo % 100 + n] + codes
            tails = padded[tail].tolist()
            if lo == 0:
                tails[:10] = [t[1:] for t in tails[:10]]
            cuts = [0, *range(-lo % 100 or 100, n, 100), n]
            heads = [str(h) if h else "" for h in range(lo // 100, (lo + n - 1) // 100 + 1)]
            fh.write("".join([h + h.join(tails[a:b]) for h, a, b in zip(heads, cuts, cuts[1:])]))
    return worlds


def simulate(stream: RngStream, trials: int, coins: tuple[Coin, ...], worlds: list[World],
             workers: int = 1, csv_out=None, header: str = "") -> tuple[tuple[dict, dict], list]:
    """:func:`fold` of the world counts of trials [0, trials), written to ``csv_out`` if given.

    Counting runs on up to ``workers`` threads; writing, under ``header``,
    runs on one, so the file's bytes do not depend on ``workers``.  Both
    paths take only a positive integer ``workers``.
    """
    require_count(workers, "workers")
    if csv_out is None:
        histogram = count_worlds(stream, trials, coins, workers)
    else:
        rows = [world.row for world in sorted(worlds, key=lambda world: world.code)]
        histogram = write_trials(csv_out, header, stream, trials, coins, rows)
    return fold(worlds, histogram.tolist())
