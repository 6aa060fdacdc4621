"""Golden reports: pinned-seed CLI output must stay byte-identical.

Each README example, plus a few filter-mismatch and empirical cases, runs
with ``--seed 1 --no-timestamp`` and at most 20,000 trials; its stdout in
``--format json`` and in the default text format must equal the files in
``tests/golden/``, and feeding the golden manifest's ``config`` back via
``--config`` must reproduce the golden JSON.  Per-trial CSV
exports run at 131,073 trials, so they cross a chunk boundary, and must
keep the SHA-256 in ``tests/golden/csv_sha256.json``; runs at the trial
counts where a row's index gains a digit, a chunk ends, or the second
chunk's first block of 100 indices ends keep the SHA-256 in
``tests/golden/csv_boundary_sha256.json``.  The counts are literals, so a
digest does not move with the chunk size.
Long ``--sweep-out`` files must keep the SHA-256 in
``tests/golden/sweep_sha256.json``, long sweeps' JSON reports the
SHA-256 in ``tests/golden/sweep_report_sha256.json``, and their text
reports the SHA-256 in ``tests/golden/sweep_text_report_sha256.json``.
Every subcommand's flags, in order, must match ``tests/golden/parser.json``.

Regenerate the files only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from bellsim.cli import build_parser, main
from bellsim.rng import CHUNK_TRIALS

GOLDEN = Path(__file__).resolve().with_name("golden")
FLAGS = ("--seed", "1", "--no-timestamp")

#: The common-cause model document from the README.
MODEL = {
    "p_z": 0.5,
    "joint_given_z": [[0.15, 0.85], [0.0, 0.0]],
    "joint_given_not_z": [[0.0, 0.0], [0.85, 0.15]],
    "sample_size": None,
}

#: Golden file name -> command.  Output paths are relative, so the
#: manifest does not depend on the working directory.
REPORTS = {
    "spin-correlation-phi": "spin-correlation --phi 60deg",
    "spin-correlation-sweep": "spin-correlation --sweep 0:180:5deg --sweep-out sweep.dat",
    "mc-run-phi": "mc-run --phi 60deg --trials 20000",
    "mc-run-both": "mc-run --phi 45deg --description both --trials 20000",
    "ball-stage1": "ball-protocol --stage 1 --trials 20000",
    "ball-all-stages": "ball-protocol --all-stages --trials 20000",
    "ball-all-stages-analytic": "ball-protocol --all-stages --mode analytic",
    "common-cause-ball": "common-cause --builtin ball",
    "common-cause-spin": "common-cause --builtin spin --phi 45deg",
    "common-cause-model": "common-cause --model my_model.json",
    "chsh": "chsh",
    "chsh-empirical": "chsh --mode empirical --trials 20000",
    "ball-stage2-cherry-mismatch":
        "ball-protocol --stage 2 --alice-filter c --mismatch-prob 0.1 --trials 20000",
    "ball-all-stages-analytic-mismatch":
        "ball-protocol --all-stages --mode analytic --mismatch-prob 0.1",
    "common-cause-ball-empirical": "common-cause --builtin ball --empirical --trials 20000",
}

#: Twice a 65,536-trial chunk, and one more trial; that is also eight of the engine's
#: 16,384-trial chunks and one trial.
CSV_TRIALS = 131_073
CSV_RUNS = {
    "mc-run-alice": "mc-run --phi 60deg",
    "mc-run-bob": "mc-run --phi 60deg --description bob",
    "ball-stage1": "ball-protocol --stage 1",
    "ball-stage2-cherry-mismatch": "ball-protocol --stage 2 --alice-filter c --mismatch-prob 0.1",
}

#: Sweep files pinned by digest: a fine degree sweep over [0, pi], and a
#: radian sweep past pi, where Direction wraps angles and angle_between
#: clamps its cosine.
SWEEP_RUNS = {
    "deg-0-180-0.001": "spin-correlation --sweep 0:180:0.001deg",
    "rad-0-7-0.0001": "spin-correlation --sweep 0:7:0.0001rad",
}

#: Sweep reports pinned by digest: the sweeps above, and one from a
#: negative start, where Direction adds 2*pi to a negative remainder.
SWEEP_REPORT_RUNS = {
    **SWEEP_RUNS,
    "deg-neg400-400-0.01": "spin-correlation --sweep=-400:400:0.01deg",
}

#: CSV exports pinned by digest at the trial counts around the first
#: three-digit index, and around the edges of 16,384- and 65,536-trial
#: chunks: one trial past the first chunk and past the second, and around
#: the end of the second chunk's first block of 100 indices.  That block
#: holds 16 rows after index 16,384 (ending at 16,400) and 64 after index
#: 65,536 (ending at 65,600); 16,448 and 16,449 sit 64 and 65 rows past
#: index 16,384.
CSV_BOUNDARY_RUNS = {
    f"{name}-{trials}": (CSV_RUNS[name], trials)
    for name in ("mc-run-alice", "ball-stage1")
    for trials in (1, 99, 100, 101, 16_385, 16_400, 16_401, 16_448, 16_449, 32_769,
                   65_537, 65_600, 65_601)
}


def run(command: str, fmt: str = "json") -> tuple[int, str]:
    """Exit code and stdout of one CLI command, run in the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*command.split(), *FLAGS, "--format", fmt])
    return code, out.getvalue()


def csv_digest(command: str, trials: int = CSV_TRIALS) -> str:
    code, _ = run(f"{command} --trials {trials} --csv-out trials.csv")
    assert code in (0, 1)
    return hashlib.sha256(Path("trials.csv").read_bytes()).hexdigest()


def sweep_digest(command: str) -> str:
    code, _ = run(f"{command} --sweep-out sweep.dat", "text")
    assert code == 0
    return hashlib.sha256(Path("sweep.dat").read_bytes()).hexdigest()


def sweep_report_digest(command: str, fmt: str = "json") -> str:
    code, text = run(command, fmt)
    assert code == 0
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parser_layout() -> dict:
    """Each subcommand's help and, per flag in order, what argparse was told about it."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {action.dest: action.help for action in sub._choices_actions}
    return {name: {"help": helps[name], "actions": [{
        "option_strings": action.option_strings,
        "action": type(action).__name__,
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", None),
        "choices": None if action.choices is None else list(action.choices),
        "metavar": action.metavar,
        "nargs": action.nargs,
        "help": action.help,
    } for action in parser._actions]} for name, parser in sub.choices.items()}


def dump(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def write_model(directory: Path) -> None:
    (directory / "my_model.json").write_text(json.dumps(MODEL, indent=2), encoding="utf-8")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_model(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_is_byte_identical(workdir, name):
    code, text = run(REPORTS[name])
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert code == (0 if json.loads(text)["passed"] else 1)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_text_report_is_byte_identical(workdir, name):
    code, text = run(REPORTS[name], "text")
    assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert code == (0 if "\nRESULT: PASS " in text else 1)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_manifest_config_reproduces_report(workdir, name):
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    manifest = json.loads(golden)["manifest"]
    (workdir / "config.json").write_text(json.dumps(manifest["config"]), encoding="utf-8")
    command = f"{manifest['subcommand']} --config config.json"
    if "sweep_data" in manifest["outputs"]:
        command += f" --sweep-out {manifest['outputs']['sweep_data']}"
    code, text = run(command)
    assert text == golden
    assert code == (0 if json.loads(text)["passed"] else 1)


@pytest.mark.parametrize("name", sorted(CSV_RUNS))
def test_csv_export_is_byte_identical(workdir, name):
    pins = json.loads((GOLDEN / "csv_sha256.json").read_text(encoding="utf-8"))
    assert csv_digest(CSV_RUNS[name]) == pins[name]


@pytest.mark.parametrize("name", sorted(SWEEP_RUNS))
def test_sweep_file_is_byte_identical(workdir, name):
    pins = json.loads((GOLDEN / "sweep_sha256.json").read_text(encoding="utf-8"))
    assert sweep_digest(SWEEP_RUNS[name]) == pins[name]


@pytest.mark.parametrize("name", sorted(CSV_BOUNDARY_RUNS))
def test_csv_export_at_boundary_is_byte_identical(workdir, name):
    pins = json.loads((GOLDEN / "csv_boundary_sha256.json").read_text(encoding="utf-8"))
    assert csv_digest(*CSV_BOUNDARY_RUNS[name]) == pins[name]


def test_csv_runs_cross_the_chunk_edges():
    """The pinned trial counts reach one trial past the first and the second chunk."""
    counts = {trials for _, trials in CSV_BOUNDARY_RUNS.values()} | {CSV_TRIALS}
    assert {CHUNK_TRIALS + 1, 2 * CHUNK_TRIALS + 1} <= counts


@pytest.mark.parametrize("name", sorted(SWEEP_REPORT_RUNS))
def test_sweep_report_is_byte_identical(workdir, name):
    pins = json.loads((GOLDEN / "sweep_report_sha256.json").read_text(encoding="utf-8"))
    assert sweep_report_digest(SWEEP_REPORT_RUNS[name]) == pins[name]


@pytest.mark.parametrize("name", sorted(SWEEP_REPORT_RUNS))
def test_sweep_text_report_is_byte_identical(workdir, name):
    pins = json.loads((GOLDEN / "sweep_text_report_sha256.json").read_text(encoding="utf-8"))
    assert sweep_report_digest(SWEEP_REPORT_RUNS[name], "text") == pins[name]


#: The golden checks that record no number to judge them by: a vacuous screening check, whose
#: conditioning event has (near) zero probability, and "certified", which has no target.
UNJUDGED = {(f"common-cause-{name}", check) for name in ("ball", "ball-empirical", "model", "spin")
            for check in ("screening_given_z holds", "screening_given_not_z holds",
                          "certified as common-cause explained")}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_check_agrees_with_its_recorded_numbers(name):
    """A check passes exactly when its value lies within its tolerance of its target, so a
    rule that departs from the numbers its check records shows here."""
    checks = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))["checks"]
    unjudged = {c["name"] for c in checks if None in (c["value"], c["target"], c["tolerance"])}
    assert unjudged == {check for report, check in UNJUDGED if report == name}
    for c in checks:
        if c["name"] not in unjudged:
            assert c["passed"] == (abs(c["value"] - c["target"]) <= c["tolerance"]), c


def test_parser_is_pinned():
    assert dump(parser_layout()) == (GOLDEN / "parser.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_model(Path(tmp))
        for name, command in REPORTS.items():
            (GOLDEN / f"{name}.json").write_text(run(command)[1], encoding="utf-8")
            (GOLDEN / f"{name}.txt").write_text(run(command, "text")[1], encoding="utf-8")
        pins = {"csv": {name: csv_digest(command) for name, command in CSV_RUNS.items()},
                "csv_boundary": {name: csv_digest(*args) for name, args in CSV_BOUNDARY_RUNS.items()},
                "sweep": {name: sweep_digest(command) for name, command in SWEEP_RUNS.items()},
                "sweep_report": {name: sweep_report_digest(command)
                                 for name, command in SWEEP_REPORT_RUNS.items()},
                "sweep_text_report": {name: sweep_report_digest(command, "text")
                                      for name, command in SWEEP_REPORT_RUNS.items()}}
    for kind, digests in pins.items():
        (GOLDEN / f"{kind}_sha256.json").write_text(dump(digests), encoding="utf-8")
    (GOLDEN / "parser.json").write_text(dump(parser_layout()), encoding="utf-8")
