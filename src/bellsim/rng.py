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
whatever the worker count, so memory does not grow with the trial count:
a chunk's raw words are 512 KB, which stay in a core's L2 cache for the
coin compares, and it keeps one boolean array per coin.  Its histogram is
exact integer arithmetic on subset counts: for every subset of coins, the
number of trials in which all of them came up (``count_nonzero`` of their
AND); inclusion-exclusion turns those 2**k counts into the trials of each
world.  :func:`simulate`, the one entry point, returns those world counts
and its callers fold them.  The chunks' exact histograms add up, so the
counts are the same for every worker count: on up to ``os.cpu_count()``
threads, the calling thread and the plain helper threads it starts and
joins, each drawing from one Philox generator of its own; a CSV export's
rows are written in order on the calling thread alone, one chunk before the
next is drawn.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from threading import Lock, Thread

import numpy as np

from .errors import (is_real, require, require_coins, require_count, require_path,
                     require_probability, require_trial_count, require_type, require_u64)

#: Draws available per counter block (one Philox block is 4 x 64 bits).
BLOCK_DRAWS = 4

#: Trials per chunk: the unit of work a thread picks up.
CHUNK_TRIALS = 1 << 14

#: (draw index within the trial's block, threshold): the coin comes up
#: when that draw's 53-bit integer is below the threshold.
Coin = tuple[int, int]

#: Registered sign pairs, in the order cells and reports list them.
SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def glyph(*signs: int) -> str:
    """The signs as text: ``glyph(1, -1)`` is ``"+-"``."""
    return "".join("+" if s > 0 else "-" for s in signs)


@dataclass(frozen=True, slots=True)
class World:
    """One outcome of a trial's coins."""

    code: int  # bit k is set when coin k came up
    prob: float  # the probability that a trial's coins give its code
    cause: int  # 0 or 1: the value the trial's common cause took
    signs: tuple[int, int] | None  # the registered sign pair; None unless both register
    row: str  # CSV row text after the trial number


def _is_world(world, size: int) -> bool:
    """A World of code below ``size``, finite prob, cause 0 or 1, a sign pair or None, row text."""
    if not isinstance(world, World):
        return False
    signs = world.signs
    return (type(world.code) is int and 0 <= world.code < size and is_real(world.prob)
            and type(world.cause) is int and world.cause in (0, 1) and type(world.row) is str
            and (signs is None or type(signs) is tuple and all(type(s) is int for s in signs)
                 and signs in SIGN_PAIRS))


def fold(worlds: list[World], mass=None) -> tuple[tuple[dict, dict], list]:
    """Per-cause sign-pair cells and registered totals, adding masses in table order.

    A world's mass is ``mass[world.code]``, or its probability when
    ``mass`` is None; unregistered worlds add nothing.
    """
    require(mass is None or isinstance(mass, list) and all(map(is_real, mass)), "mass",
            "None or a list of finite numbers", mass)
    size = 1 << 8 if mass is None else len(mass)  # a code has one bit per coin, at most 8
    require(isinstance(worlds, list) and all(_is_world(world, size) for world in worlds), "worlds",
            "a list of World records of finite probability whose codes index mass", worlds)
    cells = ({pair: 0 for pair in SIGN_PAIRS}, {pair: 0 for pair in SIGN_PAIRS})
    registered = [0, 0]
    for world in worlds:
        if world.signs is not None:
            m = world.prob if mass is None else mass[world.code]
            cells[world.cause][world.signs] += m
            registered[world.cause] += m
    return cells, registered


def threshold(p: float) -> int:
    """``ceil(p * 2**53)``: ``(w >> 11) < threshold(p)`` exactly when numpy's ``u < p``."""
    return math.ceil(require_probability(p, "p") * 9007199254740992.0)


@dataclass(frozen=True, slots=True)
class RngStream:
    """A named, reproducible stream of uniform draws."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", require_u64(self.seed, "seed"))
        object.__setattr__(self, "stream_id", require_u64(self.stream_id, "stream_id"))

    def _bit_generator(self) -> np.random.Philox:
        """A generator at counter block 0: trial 0's draws, then on."""
        return np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))


def _draw(bg: np.random.Philox, n: int) -> np.ndarray:
    """The next ``n`` trials' raw words from ``bg``, shape (n, 4): the engine's one draw."""
    return bg.random_raw(n * BLOCK_DRAWS).reshape(n, BLOCK_DRAWS)


def _histogram(n: int, ups: list) -> np.ndarray:
    """Exact int64 histogram of the world codes of ``n`` trials, given where each coin came up.

    ``counts[s]`` is the number of trials in which every coin of subset ``s``
    came up, the ``count_nonzero`` of their AND; a loop walks the subsets depth
    first, keeping at most one AND per coin.  Inclusion-exclusion, one coin at a
    time, leaves in ``counts[c]`` the trials whose coins came up exactly as in ``c``.
    """
    counts, stack = [n] + [0] * ((1 << len(ups)) - 1), [(0, None)]
    while stack:
        subset, common = stack.pop()
        for bit in range(subset.bit_length(), len(ups)):
            if ups[bit] is not None:  # a subset holding a dead coin stays at 0
                both = ups[bit] if common is None else common & ups[bit]
                counts[subset | 1 << bit] = np.count_nonzero(both)
                stack.append((subset | 1 << bit, both))
    for bit in range(len(ups)):
        for code in range(len(counts)):
            if not code >> bit & 1:
                counts[code] -= counts[code | 1 << bit]
    return np.array(counts, dtype=np.int64)


def _chunk(words: np.ndarray, bounds: list, lo: int, write) -> np.ndarray:
    """The histogram of the chunk at ``lo``, its rows given to ``write`` first if there is one.

    A coin's bound is its draw and the largest raw word that comes up, or None if none does.
    A function of its own, so the chunk's arrays are freed before the next chunk is drawn.
    """
    ups = [None if bound is None else words[:, bound[0]] <= bound[1] for bound in bounds]
    if write is not None:
        write(lo, len(words), ups)
    return _histogram(len(words), ups)


def _count(stream: RngStream, trials: int, coins: tuple[Coin, ...], workers: int,
           write=None) -> np.ndarray:
    """Exact int64 histogram of the world codes of trials [0, trials).

    ``workers``, the chunk count and the CPU count cap the threads, the
    caller included.  Each thread runs one loop taking chunks from one shared
    iterator: the caller runs it, next to one plain helper thread per extra
    thread, so ``write`` (given with one worker) gets the chunks in order.  A
    thread builds one Philox generator and moves it on by a relative
    ``advance`` only to a chunk that does not start where its last one ended.
    A loop that raises empties the iterator, so the other threads stop after
    the chunk they hold, and the caller re-raises the first error once every
    helper has ended.  The histogram is the same for any thread count.
    """
    starts, lock, histograms, errors = iter(range(0, trials, CHUNK_TRIALS)), Lock(), [], []
    # (w >> 11) < t is w <= (t << 11) - 1; t = 0 never comes up and has no bound.
    bounds = [(draw, np.uint64((int(limit) << 11) - 1)) if limit else None for draw, limit in coins]

    def count() -> None:
        nonlocal starts
        try:
            histogram = np.zeros(1 << len(coins), dtype=np.int64)
            bg, end = stream._bit_generator(), 0
            while True:
                with lock:
                    lo = next(starts, None)
                if lo is None:
                    break
                if lo != end:
                    bg.advance(lo - end)
                end = min(lo + CHUNK_TRIALS, trials)
                histogram += _chunk(_draw(bg, end - lo), bounds, lo, write)
        except BaseException as exc:  # the caller re-raises it
            with lock:
                starts = iter(())  # the other threads take no further chunk
                errors.append(exc)
        else:
            histograms.append(histogram)

    threads = max(1, min(workers, -(-trials // CHUNK_TRIALS), os.cpu_count() or 1))
    helpers = []  # the started ones, each joined even if a later one fails to start
    try:
        for _ in range(threads - 1):
            helper = Thread(target=count)
            helper.start()
            helpers.append(helper)
        count()  # the caller counts next to its helpers
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return sum(histograms)


def _row_writer(fh, rows: list[str]):
    """``write(lo, n, ups)`` for :func:`_count`, writing each chunk's CSV lines to ``fh``.

    Trial i's line is ``f"{i}{rows[code]}"`` for its world code, built as a
    head, ``str(i // 100)`` (empty below 100), and a tail looked up by
    ``(i % 100, code)`` in a table of 100 * len(rows) lines made once per
    file.  A chunk's tails are gathered with numpy in one call, and the rows
    of each block of trials [100h, 100h + 100) are written as
    ``head + head.join(tails)``.
    """
    # Tails "00".."99": trials 0-9 drop the "0", since their head is empty.
    padded = np.array([f"{r:02d}{t}" for r in range(100) for t in rows], dtype=object)
    offsets = np.arange(CHUNK_TRIALS + 100) % 100 * len(rows)

    def write(lo: int, n: int, ups: list) -> None:
        codes = sum(up.view(np.uint8) << np.uint8(bit)  # bit k of a code is coin k
                    for bit, up in enumerate(ups) if up is not None)
        tails = padded[offsets[lo % 100:lo % 100 + n] + codes].tolist()
        if lo == 0:
            tails[:10] = [t[1:] for t in tails[:10]]
        cuts = [0, *range(-lo % 100 or 100, n, 100), n]
        heads = [str(h) if h else "" for h in range(lo // 100, (lo + n - 1) // 100 + 1)]
        fh.write("".join([h + h.join(tails[a:b]) for h, a, b in zip(heads, cuts, cuts[1:])]))

    return write


def simulate(stream: RngStream, trials: int, coins: tuple[Coin, ...], worlds: list[World],
             workers: int = 1, csv_out=None, header: str = "") -> list[int]:
    """Trial counts of the worlds of trials [0, trials), by code, for callers to :func:`fold`.

    Counting runs on up to ``workers`` threads; writing the rows to ``csv_out``,
    under ``header``, runs on one, so the file's bytes do not depend on ``workers``.
    Every argument is checked, and the file opened, before anything is drawn.
    """
    require_count(workers, "workers")
    require_type(stream, "stream", RngStream)
    require_trial_count(trials, "trials")
    require_coins(coins, "coins")
    require_type(header, "header", str)
    size = 1 << len(coins)
    valid = isinstance(worlds, list) and all(_is_world(world, size) for world in worlds)
    require(valid and sorted(world.code for world in worlds) == list(range(size)), "worlds",
            "a list of World records, one per world code, of cause 0 or 1 and a sign pair or None",
            worlds)
    if csv_out is None:
        return _count(stream, trials, coins, workers).tolist()
    rows = [world.row for world in sorted(worlds, key=lambda world: world.code)]
    with open(require_path(csv_out, "csv_out"), "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        return _count(stream, trials, coins, 1, _row_writer(fh, rows)).tolist()
