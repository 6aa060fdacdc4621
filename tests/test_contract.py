"""The library's input contract: every bad input is a ValidationError.

Every public constructor and entry point of spinmodel, rng, montecarlo,
ballprotocol and commoncause is called with hostile values in each
argument.  A call either succeeds or raises a BellsimError; nothing else
escapes.  Not called: the result records, which the library builds from
its own counts, and ``spinmodel.glyph``, which only the library calls, with
signs that checked entry points computed.  A ``csv_out`` string is a path to write, so only
values that are no path are given there, and ``rng.simulate`` writes its
CSV rows to the null device.
"""

import dataclasses
import functools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import ballprotocol as bp
from bellsim import commoncause as cc
from bellsim import montecarlo as mc
from bellsim import rng
from bellsim import spinmodel as sm
from bellsim.errors import BellsimError, ValidationError, require_trials
from bellsim.report import record, render_json

A, B = sm.Direction(0.0), sm.Direction(math.pi / 3)
LAM = sm.HiddenVariable(A, 1)
STREAM = rng.RngStream(0)
STAGE = bp.StageConfig(stage=1, trials=10)
REPORTS = tuple(bp.analytic_stage_report(bp.StageConfig(stage=s, trials=10)) for s in (1, 2, 3))
EMPIRICAL = bp.run_stage(bp.StageConfig(stage=1, trials=200, seed=3))
COINS, WORLDS = mc._world_table(mc.ExperimentConfig(A, B, 10))
#: One world per code of no coin and of one coin.
NO_COIN = [rng.World(0, 1.0, 0, None, ",\n")]
ONE_COIN = [rng.World(code, 0.5, code, None, ",\n") for code in (0, 1)]
MODEL = cc.BinaryEventModel(0.5, ((0.15, 0.85), (0.0, 0.0)), ((0.0, 0.0), (0.85, 0.15)))

#: (callable, valid arguments): called with one argument replaced at a time.
ENTRY_POINTS = {
    "Direction": (sm.Direction, (0.5,)),
    "HiddenVariable": (sm.HiddenVariable, (A, 1)),
    "HiddenVariable.predetermined": (LAM.predetermined, (2,)),
    "angle_between": (sm.angle_between, (A, B)),
    "axis_cosine": (sm.axis_cosine, (A, B)),
    "correlation_sweep": (  # its blocks too, which are made after the call's checks
        lambda start, step, count: list(sm.correlation_sweep(start, step, count)), (0.0, 0.5, 3)),
    "mean_value": (sm.mean_value, (LAM, 2, B)),
    "conditional_outcome_prob": (sm.conditional_outcome_prob, (LAM, 1, B, -1)),
    "joint_outcome_prob": (sm.joint_outcome_prob, (LAM, A, B, 1, -1)),
    "pair_expectation": (sm.pair_expectation, (LAM, A, B)),
    "subquantum_correlation": (sm.subquantum_correlation, (LAM, A, B)),
    "quantum_correlation": (sm.quantum_correlation, (A, B)),
    "RngStream": (rng.RngStream, (1, 2)),
    "threshold": (rng.threshold, (0.25,)),
    "fold": (rng.fold, (WORLDS, [3] * len(WORLDS))),
    "simulate": (rng.simulate, (STREAM, 10, COINS, WORLDS, 1)),
    "simulate to a CSV file": (
        lambda stream, trials, coins, worlds, workers, header: rng.simulate(
            stream, trials, coins, worlds, workers, os.devnull, header),
        (STREAM, 10, COINS, WORLDS, 1, "trial,x")),
    "ExperimentConfig": (mc.ExperimentConfig, (A, B, 10, "alice", 1, 0)),
    "run_experiment": (mc.run_experiment, (mc.ExperimentConfig(A, B, 10), 1)),
    "covariance_tolerance": (mc.covariance_tolerance, (-0.5, 10)),
    "description_equivalence": (mc.description_equivalence, (A, B, 10, 1, 1)),
    "chsh_details": (mc.chsh_details, (A, B, A, B, "empirical", 10, 1, 1)),
    "StageConfig": (bp.StageConfig, (2, "c", "b", 10, 1, 0.5, 0.5, 0.1)),
    "analytic_stage_report": (bp.analytic_stage_report, (STAGE,)),
    "run_stage": (bp.run_stage, (STAGE, 1)),
    "bell_inequality_check": (bp.bell_inequality_check, (REPORTS,)),
    "contextual_decomposition": (bp.contextual_decomposition, (STAGE, 1, -1)),
    "BinaryEventModel": (cc.BinaryEventModel,
                         (0.5, ((0.25, 0.25), (0.25, 0.25)), ((1, 0), (0, 0)), 100)),
    "binary_event_model_from_json_dict": (cc.binary_event_model_from_json_dict,
                                          ({"p_z": 0.5, "joint_given_z": [[1, 0], [0, 0]],
                                            "joint_given_not_z": [[0, 0], [0, 1]]},)),
    "full_report": (cc.full_report, (MODEL, 1e-9)),
    "spin_event_model": (cc.spin_event_model, (A, B, 1, -1)),
    "ball_event_model": (cc.ball_event_model, (REPORTS[0], -1, 1)),
    "ball_event_model of a simulated report": (cc.ball_event_model, (EMPIRICAL, 1, 1)),
}

HOSTILE = [None, True, False, "x", "", b"x", math.nan, math.inf, -math.inf, 10**400, 2**64 + 1,
           -1, 0, 1.5, [], [1], [None], [[1], [1, 2]], {}, object(), A, STAGE, MODEL]
#: Any value, but no integer that is a valid, long trial count.
ANY_VALUE = st.sampled_from(HOSTILE) | st.floats() | st.integers(max_value=0) | st.integers(
    min_value=2**64 + 1) | st.text(max_size=4) | st.binary(max_size=4) | st.lists(
    st.none() | st.booleans() | st.floats() | st.text(max_size=2), max_size=4)


def call_with(name, position, value):
    fn, args = ENTRY_POINTS[name]
    args = list(args)
    args[position] = value
    try:
        fn(*args)
    except BellsimError:
        pass


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_takes_or_refuses_any_argument(name):
    fn, args = ENTRY_POINTS[name]
    fn(*args)  # the valid call succeeds
    for position in range(len(args)):
        for value in HOSTILE:
            call_with(name, position, value)

    @settings(max_examples=40, deadline=None, database=None)
    @given(position=st.integers(0, len(args) - 1), value=ANY_VALUE)
    def fuzz(position, value):
        call_with(name, position, value)

    fuzz()


STAGE1 = bp.StageConfig(stage=1, trials=1)
HUGE = 10**5000  # more digits than Python will print
#: The inputs that a raw exception or silent acceptance answered before.
REFUSED = {
    "Direction('x')": lambda: sm.Direction("x"),
    "Direction(None)": lambda: sm.Direction(None),
    "Direction(10**400)": lambda: sm.Direction(10**400),
    "HiddenVariable(A, 1.0)": lambda: sm.HiddenVariable(A, 1.0),
    "HiddenVariable(A, True)": lambda: sm.HiddenVariable(A, True),
    "predetermined(True)": lambda: LAM.predetermined(True),
    "predetermined(2.0)": lambda: LAM.predetermined(2.0),
    "conditional_outcome_prob(outcome=1.0)": lambda: sm.conditional_outcome_prob(LAM, 1, B, 1.0),
    "angle_between(0.5, B)": lambda: sm.angle_between(0.5, B),
    "quantum_correlation(0.5, B)": lambda: sm.quantum_correlation(0.5, B),
    "correlation_sweep('x', 0.5, 3)": lambda: sm.correlation_sweep("x", 0.5, 3),
    "correlation_sweep(0.0, 0.5, 3.0)": lambda: sm.correlation_sweep(0.0, 0.5, 3.0),
    "correlation_sweep(0.0, 0.5, 200_002)": lambda: sm.correlation_sweep(0.0, 0.5, 200_002),
    "correlation_sweep(1e308, 8e307, 2)": lambda: sm.correlation_sweep(1e308, 8e307, 2),
    "fold(None)": lambda: rng.fold(None),
    "fold(mass=[1])": lambda: rng.fold(WORLDS, [1]),
    "fold(mass=['x'] * 8)": lambda: rng.fold(WORLDS, ["x"] * len(WORLDS)),
    "fold(a world of prob 'x')": lambda: rng.fold([dataclasses.replace(WORLDS[0], prob="x")]),
    "correlation_sweep(10**5000, 0.5, 3)": lambda: sm.correlation_sweep(HUGE, 0.5, 3),
    "threshold('0.5')": lambda: rng.threshold("0.5"),
    "simulate(None, 10, (), ...)": lambda: rng.simulate(None, 10, (), NO_COIN),
    "simulate(stream, -5, (), ...)": lambda: rng.simulate(STREAM, -5, (), NO_COIN),
    "simulate(coins=((4, 1),))": lambda: rng.simulate(STREAM, 10, ((4, 1),), ONE_COIN),
    "simulate(coins=((0, 2**53 + 1),))": lambda: rng.simulate(STREAM, 10, ((0, 2**53 + 1),),
                                                              ONE_COIN),
    "simulate(header=5)": lambda: rng.simulate(STREAM, 10, COINS, WORLDS, 1, os.devnull, 5),
    "simulate(stream, 2.5, (), [], 1)": lambda: rng.simulate(STREAM, 2.5, (), [], 1),
    "simulate(worlds=[])": lambda: rng.simulate(STREAM, 10, COINS, [], 1),
    "simulate(a world of cause 2)": lambda: rng.simulate(
        STREAM, 10, COINS, [dataclasses.replace(WORLDS[0], cause=2), *WORLDS[1:]], 1),
    "simulate(a world of signs (1, 2))": lambda: rng.simulate(
        STREAM, 10, COINS, [dataclasses.replace(WORLDS[0], signs=(1, 2)), *WORLDS[1:]], 1),
    "simulate(a world whose row is no string)": lambda: rng.simulate(
        STREAM, 10, COINS, [dataclasses.replace(WORLDS[0], row=5), *WORLDS[1:]], 1),
    "ExperimentConfig(0.5, B)": lambda: mc.ExperimentConfig(0.5, B, 10),
    "ExperimentConfig(A, B, 10, 'both')": lambda: mc.ExperimentConfig(A, B, 10, "both"),
    "ExperimentConfig(A, B, 10, 'Alice')": lambda: mc.ExperimentConfig(A, B, 10, "Alice"),
    "ExperimentConfig(A, B, 10, True)": lambda: mc.ExperimentConfig(A, B, 10, True),
    "ExperimentConfig(A, B, 10, seed=-1)": lambda: mc.ExperimentConfig(A, B, 10, seed=-1),
    "ExperimentConfig(A, B, 10, stream_id=-1)":
        lambda: mc.ExperimentConfig(A, B, 10, stream_id=-1),
    "from_counts((0.5, 0.5, 0, 0))": lambda: mc.EmpiricalStats.from_counts((0.5, 0.5, 0, 0)),
    "from_counts((True, 0, 0, 0))": lambda: mc.EmpiricalStats.from_counts((True, 0, 0, 0)),
    "from_counts((0, 0, 0, 0))": lambda: mc.EmpiricalStats.from_counts((0, 0, 0, 0)),
    "from_counts((1, -1, 2, 0))": lambda: mc.EmpiricalStats.from_counts((1, -1, 2, 0)),
    "run_experiment(workers='2')": lambda: mc.run_experiment(mc.ExperimentConfig(A, B, 10), "2"),
    "chsh_details(0.5, ...)": lambda: mc.chsh_details(0.5, B, A, B),
    "covariance_tolerance(0.5, 0)": lambda: mc.covariance_tolerance(0.5, 0),
    "covariance_tolerance(nan, 10)": lambda: mc.covariance_tolerance(math.nan, 10),
    "covariance_tolerance(0.5, 10**400)": lambda: mc.covariance_tolerance(0.5, 10**400),
    "covariance_tolerance(0.5, 2**64 + 1)": lambda: mc.covariance_tolerance(0.5, 2**64 + 1),
    "StageConfig(stage=1.0)": lambda: bp.StageConfig(stage=1.0),
    "StageConfig(alice_filter='z')": lambda: bp.StageConfig(stage=1, alice_filter="z"),
    "StageConfig(trials=2**64 + 1)": lambda: bp.StageConfig(stage=1, trials=2**64 + 1),
    "StageConfig(stage=1, seed='x')": lambda: bp.StageConfig(stage=1, seed="x"),
    "analytic_stage_report(None)": lambda: bp.analytic_stage_report(None),
    "run_stage(csv_out=True)": lambda: bp.run_stage(STAGE1, csv_out=True),
    "bell_inequality_check([1, 2, 3])": lambda: bp.bell_inequality_check([1, 2, 3]),
    "bell_inequality_check(None)": lambda: bp.bell_inequality_check(None),
    "contextual_decomposition(cfg, 1.0, 1)": lambda: bp.contextual_decomposition(STAGE1, 1.0, 1),
    "contextual_decomposition(None, 1, 1)": lambda: bp.contextual_decomposition(None, 1, 1),
    "full_report(model, 'x')": lambda: cc.full_report(MODEL, "x"),
    "full_report(model, True)": lambda: cc.full_report(MODEL, True),
    "full_report(0.5)": lambda: cc.full_report(0.5),
    "spin_event_model(0.5, B)": lambda: cc.spin_event_model(0.5, B),
    "ball_event_model(report, True)": lambda: cc.ball_event_model(REPORTS[0], True),
    "ball_event_model(cfg)": lambda: cc.ball_event_model(STAGE1),
    "ball_event_model(report, 1, 0)": lambda: cc.ball_event_model(REPORTS[0], 1, 0),
    "ball_event_model(None)": lambda: cc.ball_event_model(None),
    "BinaryEventModel(sample_size=10**400)": lambda: cc.BinaryEventModel(
        0.5, ((1, 0), (0, 0)), ((0, 0), (0, 1)), 10**400),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_inputs_outside_the_domain_raise_validation_error(case):
    with pytest.raises(ValidationError, match=" must be "):
        REFUSED[case]()


#: A config made with a string type, what it runs, and its choices.
NUMPY_CHOICES = {
    "StageConfig": (lambda s: bp.StageConfig(2, s("c"), s("c"), 500, 3, filter_mismatch_prob=0.2),
                    bp.run_stage, ("alice_filter", "bob_filter")),
    "ExperimentConfig": (lambda s: mc.ExperimentConfig(A, B, 500, s("bob"), 3, 1),
                         mc.run_experiment, ("description",)),
}


@pytest.mark.parametrize("name", sorted(NUMPY_CHOICES))
def test_a_numpy_string_choice_is_stored_and_run_as_the_plain_string(name, tmp_path):
    make, run, choices = NUMPY_CHOICES[name]
    configs = make(str), make(np.str_)
    assert configs[0] == configs[1]
    assert all(type(getattr(configs[1], choice)) is str for choice in choices)
    reports = [run(config, csv_out=tmp_path / f"{i}.csv") for i, config in enumerate(configs)]
    assert "".join(render_json(record(reports[1]))) == "".join(render_json(record(reports[0])))
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "0.csv").read_bytes()


@pytest.mark.parametrize("value", [v for v in HOSTILE if not isinstance(v, str)],
                         ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("run", [lambda csv: mc.run_experiment(mc.ExperimentConfig(A, B, 10),
                                                                 csv_out=csv),
                                 lambda csv: bp.run_stage(STAGE, csv_out=csv)],
                         ids=["run_experiment", "run_stage"])
def test_a_csv_path_that_is_no_file_name_is_refused(run, value):
    # open(True) would write the rows to file descriptor 1, then close it.
    if value is None:
        run(value)  # no file
    else:
        with pytest.raises(ValidationError, match="^csv_out must be a file name, got "):
            run(value)


@pytest.mark.parametrize("check", [sm.Direction, rng.RngStream,
                                   functools.partial(require_trials, name="trials")],
                         ids=["Direction", "RngStream", "require_trials"])
def test_an_integer_too_long_to_print_is_named_by_its_digits(check):
    with pytest.raises(ValidationError, match=r"got an integer of 5001 digits$"):
        check(HUGE)
    with pytest.raises(ValidationError, match=r"got an integer of 5000 digits$"):
        check(-(HUGE - 1) // 9)  # -111...1, five thousand ones


#: A config made with an integer type for its trial count, and what it runs.
NUMPY_COUNTS = {
    "StageConfig": (lambda i: bp.StageConfig(2, "c", "b", i(500), 3, filter_mismatch_prob=0.2),
                    bp.run_stage),
    "ExperimentConfig": (lambda i: mc.ExperimentConfig(A, B, i(500), "bob", 3, 1),
                         mc.run_experiment),
}


@pytest.mark.parametrize("integer", [np.int64, np.uint32])
@pytest.mark.parametrize("name", sorted(NUMPY_COUNTS))
def test_a_numpy_integer_trial_count_is_stored_and_run_as_an_int(name, integer, tmp_path):
    make, run = NUMPY_COUNTS[name]
    configs = make(int), make(integer)
    assert configs[0] == configs[1] and type(configs[1].trials) is int
    reports = [run(config, workers, csv_out=tmp_path / f"{i}.csv")
               for i, (config, workers) in enumerate(zip(configs, (2, integer(2))))]
    assert "".join(render_json(record(reports[1]))) == "".join(render_json(record(reports[0])))
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "0.csv").read_bytes()
    for refused in (True, np.True_, np.float64(500.0)):
        with pytest.raises(ValidationError, match="^trials must be a positive integer"):
            make(lambda _: refused)


def test_numpy_integer_counts_give_the_int_results():
    """The library's other counts: a model's sample size, the engine's trials and workers,
    and the trial counts that the comparisons report."""
    tables = ((0.25, 0.25), (0.25, 0.25)), ((1, 0), (0, 0))
    models = [cc.BinaryEventModel(0.5, *tables, size) for size in (100, np.int64(100))]
    assert models[0] == models[1] and type(models[1].sample_size) is int
    assert record(cc.full_report(models[1])) == record(cc.full_report(models[0]))
    assert (rng.simulate(STREAM, np.uint16(100), COINS, WORLDS, np.int8(2))
            == rng.simulate(STREAM, 100, COINS, WORLDS, 2))
    for results in ([mc.description_equivalence(A, B, trials, 3) for trials in (50, np.int64(50))],
                    [mc.chsh_details(A, B, B, A, "empirical", trials, 3)
                     for trials in (50, np.int64(50))],
                    [mc.EmpiricalStats.from_counts(counts)
                     for counts in ([1, 2, 3, 4], np.array([1, 2, 3, 4], dtype=np.int64))]):
        assert "".join(render_json(record(results[1]))) == "".join(render_json(record(results[0])))
    with pytest.raises(ValidationError, match="^sample_size must be "):
        cc.BinaryEventModel(0.5, *tables, True)
    with pytest.raises(ValidationError, match="^trials must be "):
        rng.simulate(STREAM, True, COINS, WORLDS)


def test_a_numpy_integer_seed_is_stored_as_an_int():
    stream = rng.RngStream(np.uint64(2**64 - 1), np.int8(3))
    assert (stream.seed, stream.stream_id) == (2**64 - 1, 3)
    assert type(stream.seed) is int and type(stream.stream_id) is int
    for config in (mc.ExperimentConfig(A, B, 10, seed=np.uint64(3)),
                   bp.StageConfig(stage=1, seed=np.uint64(3))):
        assert config.seed == 3 and type(config.seed) is int


@pytest.mark.parametrize("run", [lambda seed: mc.description_equivalence(A, B, 50, seed),
                                 lambda seed: mc.chsh_details(A, B, B, A, "empirical", 50, seed)],
                         ids=["description_equivalence", "chsh_details"])
def test_a_numpy_integer_seed_renders_as_the_int(run):
    """The records take the seed their configs hold, the checked int."""
    assert run(np.uint64(3)).seed == 3 and type(run(np.uint64(3)).seed) is int
    assert "".join(render_json(record(run(np.uint64(3))))) == "".join(render_json(record(run(3))))


def test_the_builders_derive_each_record_field_exactly():
    """Each builder passes its records' derived field as one expression of their other fields,
    for analytic and for simulated results."""
    a, a_prime, b, b_prime = (sm.Direction(k * math.pi / 4) for k in (0, 2, 1, 3))
    chsh = [mc.chsh_details(a, a_prime, b, b_prime, mode, 1000, 5)
            for mode in ("analytic", "empirical")]
    stats = [mc.EmpiricalStats.from_counts((5, 0, 2, 7)),
             *(ctx.stats for ctx in chsh[1].contexts)]
    for s in stats:
        assert s.standard_error == math.sqrt((1.0 - s.pair_mean**2) / s.trials)
    for result in chsh:
        assert result.value < 0 and result.abs_value == abs(result.value)
    simulated = tuple(bp.run_stage(bp.StageConfig(stage=s, trials=200, seed=3)) for s in (1, 2, 3))
    for reports in (REPORTS, simulated):
        check = bp.bell_inequality_check(reports)
        assert check.margin == check.lhs - check.rhs
    for stage in (1, 2, 3):
        for mismatch in (0.0, 0.1):
            for signs in ((1, 1), (1, -1), (-1, 1)):
                d = bp.contextual_decomposition(
                    bp.StageConfig(stage=stage, filter_mismatch_prob=mismatch), *signs)
                assert d.difference == abs(d.composed - d.direct)
