"""Counter-based stream: determinism, chunking, stream separation, the driver."""

import errno
import gc
import itertools
import math
import os
import threading
import tracemalloc
import types

import numpy as np
import pytest
from actor_oracles import generator, philox_block, trial_words
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import rng
from bellsim.errors import ValidationError
from bellsim.rng import BLOCK_DRAWS, CHUNK_TRIALS, RngStream, threshold


def test_same_key_same_sequence():
    a = generator(RngStream(123, 5)).random(256)
    b = generator(RngStream(123, 5)).random(256)
    assert np.array_equal(a, b)


def test_distinct_streams_differ_within_100_draws():
    a = generator(RngStream(123, 0)).random(100)
    b = generator(RngStream(123, 1)).random(100)
    assert np.any(a != b)


def test_distinct_seeds_differ():
    a = generator(RngStream(1, 0)).random(100)
    b = generator(RngStream(2, 0)).random(100)
    assert np.any(a != b)


def test_trial_words_match_sequential_stream():
    """The engine's draw is the stream under its documented key, built apart from the engine."""
    stream = RngStream(7, 3)
    words = rng._draw(stream._bit_generator(), 40)
    assert words.shape == (40, BLOCK_DRAWS) and words.dtype == np.uint64
    assert np.array_equal(words, trial_words(stream, 40))


@pytest.mark.parametrize("key", [(0, 0), (1, 0), (1, 1), (2**64 - 1, 12345)])
def test_the_engine_draws_philox4x64_10_at_counter_trial_plus_one(key):
    """Known answers from the algorithm itself: the first trials, those around the first chunk
    edge, a far trial, and the last two of a 2**64-trial run, whose counter carries into its
    second word, each reached by the engine's own ``advance``."""
    bg, end = RngStream(*key)._bit_generator(), 0
    for first, n in ((0, 8), (CHUNK_TRIALS - 4, 8), (2**40, 4), (2**64 - 2, 2)):
        bg.advance(first - end)
        end = first + n
        assert rng._draw(bg, n).tolist() == [philox_block(key, i + 1) for i in range(first, end)]


@pytest.mark.parametrize("parts", [1, 2, 7, 8])
def test_chunked_generation_equals_sequential(monkeypatch, parts):
    """Chunks drawn by two threads, each holding one chunk before either draws, so that one
    moves its generator past the other's chunk, are the stream's words in order."""
    stream, total, drawn = RngStream(42, 1), 1001, {}
    draw, chunk = rng._draw, rng._chunk
    held, first = threading.Barrier(min(2, parts), timeout=60), threading.local()

    def draw_once_both_hold_one(bg, n):
        if not getattr(first, "passed", False):
            first.passed = True
            held.wait()
        return draw(bg, n)

    def recorded(words, bounds, lo, write):
        drawn[lo] = words.copy()
        return chunk(words, bounds, lo, write)

    monkeypatch.setattr(rng, "CHUNK_TRIALS", -(-total // parts))
    monkeypatch.setattr(rng, "_draw", draw_once_both_hold_one)
    monkeypatch.setattr(rng, "_chunk", recorded)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    rng._count(stream, total, ((0, threshold(0.5)),), 2)
    assert len(drawn) == parts
    assert np.array_equal(np.vstack([drawn[lo] for lo in sorted(drawn)]),
                          trial_words(stream, total))


def test_a_double_is_the_top_53_bits_of_its_word():
    stream = RngStream(7, 3)
    words = trial_words(stream, 40)
    # numpy's double is the top 53 bits of the word, scaled by 2**-53.
    doubles = generator(stream).random(40 * BLOCK_DRAWS)
    assert np.array_equal((words.ravel() >> np.uint64(11)) * 2.0**-53, doubles)


def test_trial_generator_matches_trial_words_row():
    stream = RngStream(9, 2)
    rows = trial_words(stream, 10) >> np.uint64(11)
    for i in range(10):
        assert np.array_equal(generator(stream, i).random(BLOCK_DRAWS), rows[i] * 2.0**-53)


@pytest.mark.parametrize(
    "seed,stream", [(-1, 0), (2**64, 0), (0, -3), ("x", 0), (1.5, 0), (True, 0)]
)
def test_key_validation(seed, stream):
    with pytest.raises(ValidationError):
        RngStream(seed, stream)


def _edge_probabilities():
    """0, 1, 1/2 and k * 2**-53, each with its float neighbours in [0, 1]."""
    k = st.integers(min_value=0, max_value=2**53)
    exact = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), k.map(lambda i: i * 2.0**-53))
    neighbour = st.tuples(exact, st.sampled_from([-math.inf, math.inf])).map(
        lambda t: math.nextafter(*t)
    )
    return st.one_of(exact, neighbour).filter(lambda p: 0.0 <= p <= 1.0)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.one_of(_edge_probabilities(), st.floats(min_value=0.0, max_value=1.0)),
)
@example(2**64 - 1, 1.0)
@example(0, 0.0)
@example(2**11 - 1, 2.0**-53)
def test_threshold_identity(word, p):
    k = np.uint64(word) >> np.uint64(11)
    assert type(threshold(p)) is int
    assert bool(k < threshold(p)) == (float(k) * 2.0**-53 < p)


@pytest.mark.parametrize(
    "p", [math.nan, -0.1, -math.inf, math.nextafter(0.0, -1.0), 1.5, math.inf,
          math.nextafter(1.0, 2.0)]
)
def test_threshold_rejects_probabilities_outside_the_unit_interval(p):
    with pytest.raises(ValidationError):
        threshold(p)


@pytest.mark.parametrize("p", ["0.5", b"0.5", None, True, [0.5], 10**400])
def test_threshold_rejects_values_that_are_not_numbers(p):
    with pytest.raises(ValidationError, match="probability"):
        threshold(p)


@given(st.integers(min_value=0, max_value=2**64 - 1), _edge_probabilities())
@example(2**64 - 1, 1.0)
@example(int(threshold(0.5)) << 11, 0.5)
@example(int(threshold(2.0**-53)) << 11, 2.0**-53)
@example(int(threshold(math.nextafter(1.0, 0.0))) << 11, math.nextafter(1.0, 0.0))
def test_raw_word_bound_matches_shifted_compare(word, p):
    """``w <= (t << 11) - 1`` is ``(w >> 11) < t``, and for t > 0 the bound is a uint64."""
    limit = threshold(p)
    bound = (int(limit) << 11) - 1
    shifted = bool((np.uint64(word) >> np.uint64(11)) < limit)
    assert (word <= bound) == shifted
    if limit:
        assert 0 <= bound <= 2**64 - 1
        assert bool(np.uint64(word) <= np.uint64(bound)) == shifted


def _shifted_codes(stream, trials, coins, words=None):
    """Reference kernel: shift every word to its 53-bit integer, then compare with thresholds.

    The words are the stream's own, drawn by the oracle, unless ``words`` are given.
    """
    words = (trial_words(stream, trials) if words is None else words) >> np.uint64(11)
    codes = np.zeros(trials, dtype=np.uint8)
    for bit, (draw, limit) in enumerate(coins):
        codes |= (words[:, draw] < limit).astype(np.uint8) << np.uint8(bit)
    return codes


def _worlds(rows):
    """One world per code, whose CSV row is ``rows[code]``, for :func:`rng.simulate`."""
    return [rng.World(code, 1.0, 0, None, row) for code, row in enumerate(rows)]


def _chunk_codes(stream, trials, coins):
    """World code of each trial, chunk by chunk, from the per-coin arrays ``_count`` hands
    a writer on one thread."""
    codes = []

    def capture(lo, n, ups):
        assert lo == sum(map(len, codes))
        chunk = np.zeros(n, dtype=np.uint8)
        for bit, up in enumerate(ups):
            if up is not None:
                assert up.dtype == bool and up.shape == (n,)
                chunk |= up.view(np.uint8) << np.uint8(bit)
        codes.append(chunk)

    rng._count(stream, trials, coins, 1, capture)
    return codes


def test_chunk_codes_equal_shift_then_compare():
    """Coins with p = 0 and p = 1, two coins on one draw, over several chunks."""
    stream = RngStream(5, 1)
    trials = 2 * CHUNK_TRIALS + 123
    coins = ((0, threshold(0.5)), (1, threshold(0.3)), (1, threshold(0.7)),
             (2, threshold(0.0)), (3, threshold(1.0)), (3, threshold(2.0**-53)))
    codes = _chunk_codes(stream, trials, coins)
    assert [len(chunk) for chunk in codes] == [CHUNK_TRIALS, CHUNK_TRIALS, 123]
    assert all(chunk.dtype == np.uint8 for chunk in codes)
    assert np.array_equal(np.concatenate(codes), _shifted_codes(stream, trials, coins))


def test_chunk_codes_split_each_coin_at_its_bound(monkeypatch):
    """The last word under each coin's bound comes up and the next word does not."""
    coins = tuple((draw, threshold(p)) for draw, p in enumerate((2.0**-53, 0.3, 0.5, 1.0)))
    edges = {0, 2**64 - 1}
    for _, limit in coins:
        edges |= {(int(limit) << 11) - 1, min(int(limit) << 11, 2**64 - 1)}
    words = np.repeat(np.array(sorted(edges), dtype=np.uint64)[:, None], BLOCK_DRAWS, axis=1)
    monkeypatch.setattr(rng, "_draw", lambda bg, n: words[:n].copy())
    stream = RngStream(0)
    assert np.array_equal(np.concatenate(_chunk_codes(stream, len(words), coins)),
                          _shifted_codes(stream, len(words), coins, words))


#: Thresholds at the edges of the 53-bit range, and any in between, as Python's
#: or numpy's integers: the coin contract takes both.
THRESHOLDS = st.sampled_from([0, 1, 2**52, 2**53 - 1, 2**53]) | st.integers(0, 2**53)
COINS = st.lists(st.tuples(st.integers(0, BLOCK_DRAWS - 1),
                           THRESHOLDS | THRESHOLDS.map(np.uint64)), max_size=4).map(tuple)


@settings(deadline=None, max_examples=60)
@given(coins=COINS, trials=st.integers(0, 300), seed=st.integers(0, 2**64 - 1),
       workers=st.integers(1, 3))
def test_subset_counts_give_the_histogram_of_the_codes(coins, trials, seed, workers):
    """Both paths of ``simulate``, over 64-trial chunks, return the shift-then-compare codes'
    histogram: a list of ``2**len(coins)`` Python ints that sums to ``trials``."""
    stream = RngStream(seed)
    expected = np.bincount(_shifted_codes(stream, trials, coins), minlength=1 << len(coins))
    worlds = _worlds([f",{code}\n" for code in range(1 << len(coins))])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "CHUNK_TRIALS", 64)
        counted = rng.simulate(stream, trials, coins, worlds, workers)
        written = rng.simulate(stream, trials, coins, worlds, workers, os.devnull, "trial,code")
    for histogram in (counted, written):
        assert type(histogram) is list and all(type(n) is int for n in histogram)
        assert histogram == expected.tolist() and sum(histogram) == trials


@pytest.mark.parametrize("csv", [False, True], ids=["count", "csv"])
@pytest.mark.parametrize("name", ["montecarlo", "ballprotocol"])
def test_fold_of_simulate_gives_each_simulations_cells(tmp_path, name, csv):
    """Each world's trials land in its cause's sign-pair cell, and the run reports those cells."""
    from bellsim import ballprotocol as bp
    from bellsim import montecarlo as mc
    from bellsim.spinmodel import Direction

    module, config = {
        "montecarlo": (mc, mc.ExperimentConfig(Direction(0.0), Direction(1.0), 3000, seed=5)),
        "ballprotocol": (bp, bp.StageConfig(stage=2, trials=3000, seed=5,
                                            filter_mismatch_prob=0.2)),
    }[name]
    coins, worlds = module._world_table(config)
    csv_out = tmp_path / "trials.csv" if csv else None
    histogram = rng.simulate(config.stream(), config.trials, coins, worlds, 2, csv_out)
    cells, registered = rng.fold(worlds, histogram)
    codes = _shifted_codes(config.stream(), config.trials, coins).tolist()
    expected = ({pair: 0 for pair in rng.SIGN_PAIRS}, {pair: 0 for pair in rng.SIGN_PAIRS})
    for world in worlds:
        if world.signs is not None:
            expected[world.cause][world.signs] += codes.count(world.code)
    assert cells == expected and registered == [sum(cause.values()) for cause in expected]
    if module is mc:
        counts = {pair: cells[0][pair] + cells[1][pair] for pair in rng.SIGN_PAIRS}
        assert mc.run_experiment(config).counts == counts
    else:
        assert bp.run_stage(config) == bp._reduce(config, (cells, registered), config.trials)


def test_subset_counts_invert_to_world_counts():
    """A hand-built chunk of three coins: worlds 0b011 and 0b101 hold 2 and 3 trials, the rest 1."""
    codes = np.array([0, 1, 2, 3, 4, 5, 6, 7, 3, 5, 5], dtype=np.uint8)
    ups = [(codes >> np.uint8(bit) & 1).astype(bool) for bit in range(3)]
    # Subsets {0}, {0, 1}, {0, 1, 2} hold 7, 3 and 1 trials: world 0b011 is 3 - 1 = 2.
    assert rng._histogram(len(codes), ups).tolist() == [1, 1, 1, 2, 1, 3, 1, 1]
    # A dead coin never comes up: its worlds are empty and the others absorb its trials.
    assert rng._histogram(len(codes), [ups[0], None, ups[2]]).tolist() == [2, 3, 0, 0, 2, 4, 0, 0]
    assert rng._histogram(len(codes), []).tolist() == [11]


def test_the_kernels_leave_no_garbage(monkeypatch, tmp_path):
    """No reference cycle holds a chunk's arrays, so memory does not grow with the chunks,
    and one thread's count peaks under 48 bytes a chunk trial, 32 of them its words."""
    from bellsim import montecarlo as mc
    from bellsim.spinmodel import Direction

    coins = ((0, threshold(0.5)), (1, threshold(0.4)), (2, threshold(0.1)), (3, threshold(0.1)))
    rows = [f",{code}\n" for code in range(16)]

    def peak(chunks, coins=coins):
        tracemalloc.start()
        try:
            rng._count(RngStream(1), chunks * rng.CHUNK_TRIALS, coins, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mc_coins, _ = mc._world_table(mc.ExperimentConfig(Direction(0.0), Direction(1.0), 10))
    rng._count(RngStream(1), 1, coins, 1)  # numpy.random is imported on the first draw
    assert peak(3, mc_coins) < 48 * CHUNK_TRIALS and peak(3) < 48 * CHUNK_TRIALS
    monkeypatch.setattr(rng, "CHUNK_TRIALS", 256)
    gc.collect()
    gc.disable()
    try:
        rng._count(RngStream(1), 40 * 256, coins, 2)
        rng.simulate(RngStream(1), 40 * 256, coins, _worlds(rows), 1, tmp_path / "t.csv")
        unreachable = gc.collect()
        peaks = [peak(chunks) for chunks in (40, 40, 160)]
    finally:
        gc.enable()
    assert unreachable == 0
    assert peaks[2] < peaks[1] + 16 * 1024  # one chunk's arrays are about 10 KB


@pytest.mark.parametrize("workers", [1, 2])
def test_zero_trials_give_a_zero_histogram(tmp_path, workers):
    coins = ((0, threshold(0.5)), (1, threshold(0.25)))
    worlds = _worlds([",r\n"] * 4)
    assert rng.simulate(RngStream(0), 0, coins, worlds, workers) == [0] * 4
    path = tmp_path / "trials.csv"
    assert rng.simulate(RngStream(0), 0, coins, worlds, workers, path, "trial,row") == [0] * 4
    assert path.read_text(encoding="utf-8") == "trial,row\n"


class _InlineThreads:
    """Stands in for ``threading.Thread``: runs a helper's counting loop inline when started.

    Per ``_count`` call, it records the helper threads made (``sizes``) and the
    counting loops they ran (``tasks``).  A call's helpers all run its one
    loop function, so a function not seen last starts a new call's record.
    """

    def __init__(self):
        self.sizes, self.tasks, self.loop = [], [], None

    def __call__(self, target):
        if target is not self.loop:
            self.loop = target
            self.sizes.append(0)
            self.tasks.append(0)
        self.sizes[-1] += 1
        call = len(self.tasks) - 1

        def run():
            self.tasks[call] += 1
            target()

        return self.thread(run)

    def thread(self, run):
        return types.SimpleNamespace(start=run, join=lambda: None)


class _TurnTakingThreads(_InlineThreads):
    """Helpers on real threads of their own, which draw in turns the test picks.

    One thread draws at a time: a thread done drawing hands the turn to the
    waiting thread that ``picks`` names next, cycling through them, or frees
    it when none waits.  A thread holds at most one chunk it has not drawn, so
    the picks decide which thread takes which chunk: a run of consecutive
    chunks, or a jump.
    """

    def __init__(self, picks, draw):
        super().__init__()
        self.picks, self.draw = itertools.cycle(picks), draw
        self.turn, self.waiting, self.changed = None, [], threading.Condition()
        self.threads = []

    def thread(self, run):
        self.threads.append(threading.Thread(target=run))
        return self.threads[-1]

    def draw_in_turn(self, bg, n):
        me = threading.get_ident()
        with self.changed:
            if self.turn is None:
                self.turn = me
            else:
                self.waiting.append(me)
                assert self.changed.wait_for(lambda: self.turn == me, timeout=60)
        try:
            return self.draw(bg, n)
        finally:
            with self.changed:
                pick = next(self.picks) % len(self.waiting) if self.waiting else None
                self.turn = None if pick is None else self.waiting.pop(pick)
                self.changed.notify_all()


@settings(deadline=None, max_examples=60)
@given(coins=COINS, trials=st.integers(0, 600), seed=st.integers(0, 2**64 - 1),
       chunk=st.integers(4, 64), workers=st.integers(1, 3),
       picks=st.lists(st.integers(0, 2), min_size=1, max_size=8))
def test_each_thread_keeps_one_generator_over_any_interleaving(coins, trials, seed, chunk,
                                                               workers, picks):
    """Threads whose chunks interleave in any order count the shift-then-compare codes'
    histogram, and build one generator each at most."""
    stream = RngStream(seed)
    expected = np.bincount(_shifted_codes(stream, trials, coins), minlength=1 << len(coins))
    helpers, built = _TurnTakingThreads(picks, rng._draw), []
    bit_generator = RngStream._bit_generator

    def counted(self):
        built.append(self)
        return bit_generator(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "CHUNK_TRIALS", chunk)
        patch.setattr(rng, "Thread", helpers)
        patch.setattr(rng, "_draw", helpers.draw_in_turn)
        patch.setattr(rng.os, "cpu_count", lambda: 8)
        patch.setattr(RngStream, "_bit_generator", counted)
        histogram = rng._count(stream, trials, coins, workers)
    threads = max(1, min(workers, -(-trials // chunk)))
    assert np.array_equal(histogram, expected)
    assert helpers.sizes == [threads - 1] * (threads > 1) and len(built) <= threads
    assert not any(thread.is_alive() for thread in helpers.threads)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_pool_gets_one_task_per_thread_not_per_chunk(monkeypatch, workers):
    monkeypatch.setattr(rng, "CHUNK_TRIALS", 4)
    helpers = _InlineThreads()
    monkeypatch.setattr(rng, "Thread", helpers)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    coins = ((0, threshold(0.5)), (1, threshold(0.3)), (3, threshold(0.9)))
    trials = 1_000 * 4 - 1  # 1,000 chunks, the last one short
    histogram = rng._count(RngStream(7), trials, coins, workers)
    sizes = [] if workers == 1 else [workers - 1]  # helpers; the caller is one more thread
    assert helpers.tasks == helpers.sizes == sizes
    assert [size + 1 for size in helpers.sizes] == [workers] * (workers > 1)
    assert histogram.sum() == trials
    helpers.tasks.clear()
    assert np.array_equal(rng._count(RngStream(7), trials, coins, 1), histogram)
    assert helpers.tasks == [] and helpers.sizes == sizes
    expected = np.bincount(_shifted_codes(RngStream(7), trials, coins), minlength=8)
    assert np.array_equal(histogram, expected)


def test_threads_taking_chunks_lose_and_repeat_none(monkeypatch):
    """Stress: 8 threads, tiny chunks, a switch every microsecond; the sum stays exact."""
    import sys

    monkeypatch.setattr(rng, "CHUNK_TRIALS", 16)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    coins = ((0, threshold(0.5)), (2, threshold(0.7)))
    trials = 2_000 * 16 + 3
    expected = np.bincount(_shifted_codes(RngStream(2), trials, coins), minlength=4)
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(
            target=lambda: result.append(rng._count(RngStream(2), trials, coins, 8)))
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(result) == 1
    assert np.array_equal(result[0], expected)


def test_thread_count_is_capped_for_any_worker_count(monkeypatch, capsys, tmp_path):
    from bellsim import cli

    helpers = _InlineThreads()
    monkeypatch.setattr(rng, "Thread", helpers)
    argv = ["mc-run", "--phi", "60deg", "--trials", str(3 * CHUNK_TRIALS),
            "--seed", "4", "--format", "json", "--no-timestamp"]
    assert cli.main([*argv, "--workers", "1"]) == 0
    baseline = capsys.readouterr().out
    helpers.sizes.clear()
    assert cli.main([*argv, "--workers", str(10**9)]) == 0
    assert capsys.readouterr().out == baseline
    cpus = os.cpu_count() or 1
    # The caller counts next to its helpers, so size + 1 threads count.
    assert all(2 <= size + 1 <= min(3, cpus) for size in helpers.sizes)
    assert bool(helpers.sizes) == (cpus > 1)  # one thread runs on the caller, no helper
    # The writer draws on the calling thread: it starts no helper at any worker count.
    helpers.sizes.clear()
    csv = ["--csv-out", str(tmp_path / "trials.csv")]
    assert cli.main([*argv, *csv, "--workers", str(10**9)]) == 0
    capsys.readouterr()
    assert helpers.sizes == []


@pytest.mark.parametrize("args, threads", [
    (("mc-run", "--phi", "60deg", "--workers", "1"), []),
    (("ball-protocol", "--stage", "2", "--mismatch-prob", "0.1", "--workers", "1"), []),
    (("mc-run", "--phi", "60deg", "--workers", "2", "--csv-out", "{csv}"), []),
    (("ball-protocol", "--stage", "1", "--workers", "2", "--csv-out", "{csv}"), []),
    (("mc-run", "--phi", "60deg", "--workers", "2"), [2]),
    (("ball-protocol", "--stage", "2", "--mismatch-prob", "0.1", "--workers", "2"), [2]),
], ids=lambda v: " ".join(map(str, v)))
def test_one_thread_counts_on_the_caller_and_builds_no_pool(monkeypatch, capsys, tmp_path, args,
                                                            threads):
    """``threads`` lists each count's thread count, the caller included, if it starts helpers."""
    from bellsim import cli

    helpers = _InlineThreads()
    monkeypatch.setattr(rng, "Thread", helpers)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    argv = [a.format(csv=tmp_path / "trials.csv") for a in args]
    assert cli.main([*argv, "--trials", str(3 * CHUNK_TRIALS), "--seed", "4"]) == 0
    capsys.readouterr()
    assert [size + 1 for size in helpers.sizes] == threads


def test_common_cause_honours_workers(monkeypatch, capsys):
    from bellsim import cli

    helpers = _InlineThreads()
    monkeypatch.setattr(rng, "Thread", helpers)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    argv = ["common-cause", "--builtin", "ball", "--empirical",
            "--trials", str(3 * CHUNK_TRIALS), "--format", "json", "--no-timestamp"]
    assert cli.main([*argv, "--workers", "2"]) == 0
    assert helpers.sizes == [1]  # one helper next to the caller: two threads
    helpers.sizes.clear()
    assert cli.main([*argv, "--workers", "0"]) == 2
    assert "workers" in capsys.readouterr().err
    assert helpers.sizes == []


def test_workers_must_be_positive():
    with pytest.raises(ValidationError):
        rng.simulate(RngStream(0), 10, (), [rng.World(0, 1.0, 0, None, ",\n")], workers=0)


@pytest.mark.parametrize("csv", [False, True], ids=["count", "csv"])
@pytest.mark.parametrize("workers", [0, -1, "2", 2.0, True, None])
def test_both_paths_check_workers_before_running(tmp_path, csv, workers):
    from bellsim import ballprotocol as bp
    from bellsim import montecarlo as mc
    from bellsim.spinmodel import Direction

    csv_out = tmp_path / "trials.csv" if csv else None
    with pytest.raises(ValidationError, match="workers"):
        mc.run_experiment(mc.ExperimentConfig(Direction(0.0), Direction(1.0), 10),
                          workers=workers, csv_out=csv_out)
    with pytest.raises(ValidationError, match="workers"):
        bp.run_stage(bp.StageConfig(stage=1, trials=10), workers=workers, csv_out=csv_out)
    assert not (tmp_path / "trials.csv").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_memory_is_bounded_by_the_chunk(monkeypatch, tmp_path, workers):
    from bellsim import ballprotocol as bp
    from bellsim import montecarlo as mc
    from bellsim.spinmodel import Direction

    blocks = []
    draw = rng._draw

    def recording(bg, n):
        blocks.append(n)
        return draw(bg, n)

    monkeypatch.setattr(rng, "_draw", recording)
    trials = 3 * CHUNK_TRIALS + 1
    mc_config = mc.ExperimentConfig(Direction(0.0), Direction(1.0), trials)
    stage_config = bp.StageConfig(stage=2, trials=trials, filter_mismatch_prob=0.1)
    mc.run_experiment(mc_config, workers)
    bp.run_stage(stage_config, workers)
    mc.run_experiment(mc_config, csv_out=tmp_path / "trials.csv")
    bp.run_stage(stage_config, csv_out=tmp_path / "stage.csv")
    assert sorted(blocks) == [1] * 4 + [CHUNK_TRIALS] * 12


@pytest.mark.parametrize(
    "trials", [1, 99, 100, 101, 250, CHUNK_TRIALS + 64, CHUNK_TRIALS + 101, 2 * CHUNK_TRIALS + 250]
)
def test_csv_rows_are_index_then_row_text(tmp_path, trials):
    """Each line is f"{i}{row_text[code]}", the plain form of the table-built rows."""
    stream = RngStream(11, 2)
    coins = ((0, threshold(0.5)), (1, threshold(0.25)), (2, threshold(0.9)))
    row_text = [f",row{code}\n" for code in range(8)]
    path = tmp_path / "trials.csv"
    histogram = rng.simulate(stream, trials, coins, _worlds(row_text), 1, path, "trial,row")
    codes = np.concatenate(_chunk_codes(stream, trials, coins))
    expected = "trial,row\n" + "".join(f"{i}{row_text[c]}" for i, c in enumerate(codes.tolist()))
    assert path.read_text(encoding="utf-8") == expected
    assert histogram == np.bincount(codes, minlength=8).tolist()


class _Boom(Exception):
    """Raised by a stubbed draw."""


@pytest.mark.parametrize("path", ["count", "csv"])
def test_a_failed_draw_reaches_the_caller_and_leaves_no_thread(monkeypatch, tmp_path, path):
    draw, draws = rng._draw, itertools.count()

    def failing(bg, n):
        if next(draws) == 1:  # the second draw, on whichever thread makes it
            raise _Boom(n)
        return draw(bg, n)

    monkeypatch.setattr(rng, "_draw", failing)
    coins = ((0, threshold(0.5)),)
    before = threading.active_count()
    with pytest.raises(_Boom):
        if path == "count":  # the draws run on the caller and a helper thread
            rng._count(RngStream(3), 3 * CHUNK_TRIALS, coins, 2)
        else:
            rng.simulate(RngStream(3), 3 * CHUNK_TRIALS, coins, _worlds([",0\n", ",1\n"]), 2,
                         tmp_path / "t.csv")
    assert threading.active_count() == before



@pytest.mark.parametrize("workers", [2, 3])
def test_a_failed_draw_stops_the_other_threads(monkeypatch, workers):
    """The failing thread empties the shared iterator: each other thread draws at most the
    chunk it already holds, not every chunk left."""
    draw, draws = rng._draw, itertools.count()

    def failing(bg, n):
        if next(draws) == 0:  # the first draw, on whichever thread makes it
            raise _Boom(n)
        return draw(bg, n)

    monkeypatch.setattr(rng, "_draw", failing)
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    before = threading.active_count()
    with pytest.raises(_Boom):
        rng._count(RngStream(1), 200 * CHUNK_TRIALS, ((0, threshold(0.5)),), workers)
    assert next(draws) - 1 <= workers  # the failed draw and one per other thread
    assert threading.active_count() == before


def test_a_helper_that_fails_to_start_leaves_no_thread(monkeypatch):
    class Unstartable(threading.Thread):
        def start(self):
            raise RuntimeError("can't start new thread")

    made = iter([threading.Thread, Unstartable])
    monkeypatch.setattr(rng, "Thread", lambda target: next(made)(target=target))
    monkeypatch.setattr(rng.os, "cpu_count", lambda: 8)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start"):
        rng._count(RngStream(1), 3 * CHUNK_TRIALS, ((0, threshold(0.5)),), 3)
    assert threading.active_count() == before


def fill_the_disk_on_the_second_chunk(monkeypatch, capsys, tmp_path, named):
    """mc-run --csv-out, whose second chunk's rows meet ENOSPC, an error that names the file
    or, as a real write's, does not; the message names the path as given."""
    from bellsim import cli

    class FullDisk:
        """The real file, whose third write (the second chunk's rows) fails with ENOSPC."""

        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                              *[self.fh.name] * named)
            return self.fh.write(text)

    monkeypatch.setattr(rng, "open", FullDisk, raising=False)
    out = tmp_path / "trials.csv"
    before = threading.active_count()
    code = cli.main(["mc-run", "--phi", "60deg", "--trials", str(2 * CHUNK_TRIALS),
                     "--csv-out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: cannot write {str(out)!r}: {os.strerror(errno.ENOSPC)}\n"
    assert threading.active_count() == before
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + CHUNK_TRIALS


def test_a_full_disk_on_the_second_chunk_is_a_usage_error(monkeypatch, capsys, tmp_path):
    fill_the_disk_on_the_second_chunk(monkeypatch, capsys, tmp_path, named=True)


def test_a_write_error_that_names_no_file_is_named_by_its_flag(monkeypatch, capsys, tmp_path):
    fill_the_disk_on_the_second_chunk(monkeypatch, capsys, tmp_path, named=False)
