"""Command-line interface.

Subcommands: spin-correlation, mc-run, ball-protocol, common-cause,
chsh.  Each subcommand declares its configuration once, as a table of
fields (config key, default, kind, flag, help); the table builds the
flags and checks every value, flag or config-file value, before the run.
A kind is the library's own contract wherever the library has one, so a
value outside its contract exits 2 before any work.  Precedence is
flags over config-file values over defaults; the resolved configuration
is embedded in every report's manifest and can be fed back via --config
to reproduce the run.  A flag that the run would not read, such as --trials
of an analytic run or --csv-out of two descriptions, is a usage error,
``<flag> needs <what>``, raised by _refuse_unread from the handler's map of
flag to rule; a config-file value never is.
Each handler returns (cfg, results, checks, seed): every check in a report
is built here.  Both ball subcommands build a stage by _stage_config, which
passes each resolved key that names a StageConfig field under that name, and
BALL's stage defaults are StageConfig's own, so the stage numbers are stated
once, in ballprotocol.  main refuses, by _refuse_unwritable, every output
path it cannot write before the run, a name the system cannot take
included; it names the export's file in the manifest's outputs by OUTPUTS,
and removes an export that is a regular file when the report's own write
fails.

Exit codes: 0 when all embedded checks pass, 1 when a check fails or
the run hits a data-level error (such as an empty registered set), 2
for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import json
import math
import os
import stat
import sys
from typing import Any, Callable, NamedTuple

from . import ballprotocol as bp
from . import commoncause as cc
from . import montecarlo as mc
from .errors import (BellsimError, ConditioningUndefinedError, Contract, ValidationError, describe,
                     is_real, one_of, require_count, require_fields, require_nonnegative,
                     require_path, require_probability, require_trials, require_u64)
from .report import Check, FloatTable, build_report, render_json, render_text
from .rng import SIGN_PAIRS
from .spinmodel import (SPINS, Direction, HiddenVariable, angle_between, correlation_sweep, glyph,
                        quantum_correlation, require_spin, require_sweep, subquantum_correlation)


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def parse_angle(text: str) -> float:
    """An angle with an explicit unit suffix, e.g. '60deg' or '1.047rad'."""
    t = str(text).strip().lower()
    for suffix, factor in (("deg", math.pi / 180.0), ("rad", 1.0)):
        if t.endswith(suffix):
            try:
                return float(t[: -len(suffix)]) * factor
            except ValueError as exc:
                raise UsageError(f"malformed angle {text!r}") from exc
    raise UsageError(f"angle {text!r} needs an explicit 'deg' or 'rad' suffix")


def parse_sweep(text: str) -> dict:
    """A 'start:stop:step' angle sweep with one unit suffix, e.g. '0:180:5deg'.

    Each bound is read as :func:`parse_angle` reads it with that suffix.
    """
    t = str(text).strip().lower()
    unit = next((s for s in ("deg", "rad") if t.endswith(s)), None)
    if unit is None:
        raise UsageError(f"sweep {text!r} needs an explicit 'deg' or 'rad' suffix")
    parts = t[: -len(unit)].split(":")
    if len(parts) != 3:
        raise UsageError(f"sweep {text!r} must be start:stop:step with a unit suffix")
    try:
        start, stop, step = (parse_angle(p + unit) for p in parts)
    except UsageError as exc:
        raise UsageError(f"malformed sweep {text!r}") from exc
    sweep = {"start": start, "stop": stop, "step": step}
    if not require_sweep.valid(sweep):
        raise UsageError(f"sweep must be {require_sweep.meaning}, got {text!r}")
    return sweep


def _read_json(path: str, what: str) -> Any:
    """The JSON document in a file; an unreadable or malformed one is a usage error."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # a name open() refuses, such as one holding a null byte
        raise UsageError(f"cannot read {what} file {path!r}: {exc}") from exc
    try:
        with fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path!r}: {exc.strerror}") from exc
    except ValueError as exc:  # also bad UTF-8 and over-long integers
        raise UsageError(f"{what} file {path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested beyond the decoder's reach
        raise UsageError(f"cannot read {what} file {path!r}: nested too deeply") from exc


def _refuse_unwritable(path: str) -> None:
    """Refuse as ``cannot write`` a path that ``open(path, "w")`` would refuse for a missing
    or unwritable directory, for being a directory, for an unwritable file or for a name that
    the system cannot take, such as one holding a NUL byte, opening nothing.

    Other failures, such as a full device's, are met when the file is written.
    """
    try:
        mode = os.stat(path).st_mode
    except ValueError as exc:  # a NUL byte, or a character the file system encoding lacks
        raise UsageError(f"cannot write {path!r}: {exc}") from exc
    except FileNotFoundError:  # open() creates the file if its directory exists
        parent = os.path.dirname(path) or "."
        code = (errno.ENOENT if not (path and os.path.isdir(parent))
                else 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES)
    except OSError as exc:  # such as a file where a directory should be
        code = exc.errno
    else:
        code = (errno.EISDIR if stat.S_ISDIR(mode)
                else 0 if os.access(path, os.W_OK) else errno.EACCES)
    if code:
        raise UsageError(f"cannot write {path!r}: {os.strerror(code)}")


class Kind(NamedTuple):
    """Which JSON values a field takes, and how its flag's text becomes one.

    A kind checks type, shape and range.  Wherever the library has a
    contract for the value (trials, seeds, probabilities, tolerances, file
    names, sweeps, spins and choices), the kind is that ``errors.Contract``'s
    meaning and predicate with a flag, so the two cannot drift apart.
    """

    meaning: str  # completes "<key> must be ..."
    valid: Callable[[Any], bool]
    flag: dict  # add_argument keywords


def choice(options: tuple, contract: Contract | None = None) -> Kind:
    """One of the options, by the library's predicate (so true is not 1, nor 1.0).

    Where the library checks these options itself, ``contract`` is that check, and the kind
    is that contract's meaning and predicate.
    """
    return Kind(*(contract or one_of(options))[:2], {"type": type(options[0]), "choices": options})


ANGLE = Kind("an angle in radians", is_real, {"type": parse_angle, "metavar": "ANGLE"})
ANGLES = Kind("a nonempty list of angles in radians, each finite in degrees",
              lambda v: (type(v) is list and v != []  # each phi_degrees is reported
                         and all(is_real(a) and is_real(math.degrees(a)) for a in v)),
              {"type": parse_angle, "metavar": "ANGLE", "action": "append"})
FOUR_ANGLES = Kind("a list of four angles in radians",
                   lambda v: type(v) is list and len(v) == 4 and all(map(is_real, v)),
                   {"type": lambda t: [parse_angle(a) for a in t.split(",")],
                    "metavar": "A,A',B,B'"})
SWEEP = Kind(*require_sweep[:2], {"type": parse_sweep, "metavar": "START:STOP:STEP"})
COUNT = Kind(*require_trials[:2], {"type": int})
SEED = Kind(*require_u64[:2], {"type": int})
PROBABILITY = Kind(*require_probability[:2], {"type": float, "metavar": "P"})
TOLERANCE = Kind(*require_nonnegative[:2], {"type": float})
SWITCH = Kind("true or false", lambda v: type(v) is bool,
              {"action": "store_true", "default": None})
PATH = Kind(*require_path[:2], {"metavar": "FILE"})
SPIN_OUTCOME = Kind(*require_spin[:2], {"type": int, "choices": SPINS})
STAGE = choice(tuple(bp.STAGE_COLORS), bp.require_stage)
ALICE_FILTER, BOB_FILTER = map(choice, (bp.ALICE_FILTERS, bp.BOB_FILTERS), bp.require_filters)


class Field(NamedTuple):
    """One config key: its default, its kind and the flag that sets it.

    A field whose default is null also takes null.
    """

    key: str
    default: Any
    kind: Kind
    flag: str
    help: str | None = None


_TRIALS = Field("trials", 1_000_000, COUNT, "--trials", "number of trials")
_SEED = Field("seed", 0, SEED, "--seed", "RNG seed (64-bit)")


def _resolve(schema: tuple[Field, ...], ns: argparse.Namespace) -> dict:
    """Flags over config-file values over defaults, each checked against its kind.

    Values are checked, never converted, so a manifest fed back via
    --config reproduces the run byte for byte.
    """
    file_cfg = {} if ns.config is None else _read_json(ns.config, "config")
    file_cfg = require_fields(file_cfg, "config", set(), {f.key for f in schema})
    cfg = {}
    for f in schema:
        flag = getattr(ns, f.key)
        value = file_cfg.get(f.key, f.default) if flag is None else flag
        if not (value is None and f.default is None or f.kind.valid(value)):
            try:
                got = json.dumps(value)
            except RecursionError:  # nested just under the decoder's limit; repr may print it
                got = describe(value)
            raise UsageError(f"{f.key} must be {f.kind.meaning}, got {got}")
        cfg[f.key] = value
    return cfg


def _dest(flag: str, schema: tuple[Field, ...] = ()) -> str:
    """The namespace name of a flag: its field's key, or else argparse's dest."""
    return next((f.key for f in schema if f.flag == flag), flag[2:].replace("-", "_"))


def _refuse_unread(ns: argparse.Namespace, schema: tuple[Field, ...], needs: dict) -> None:
    """``<flag> needs <what>`` for a flag given although the run will not read it.

    ``needs`` maps a flag, a field's or one of the subcommand's own, to (what it needs,
    whether the run has it); the first refused flag in the map's order is named.  Only
    flags are refused, so a manifest's config still reproduces its run.
    """
    for flag, (what, has) in needs.items():
        if not has and getattr(ns, _dest(flag, schema)) is not None:
            raise UsageError(f"{flag} needs {what}")


#: (flag, add_argument keywords) of the flags, no config keys, that every subcommand takes.
COMMON_FLAGS = (
    ("--workers", {"type": int, "default": 1,
                   "help": "worker count; results are identical for any value"}),
    ("--config", {"default": None, "metavar": "FILE",
                  "help": "JSON config file (flags override it)"}),
    ("--out", {"default": None, "metavar": "PATH",
               "help": "write the report here instead of stdout"}),
    ("--format", {"choices": ("json", "text"), "default": "text",
                  "help": "report format (default: text)"}),
    ("--no-timestamp", {"action": "store_true",
                        "help": "omit the manifest timestamp (byte-stable output)"}),
)


# ---------------------------------------------------------------------------
# spin-correlation


SPIN = (
    Field("phi", None, ANGLES, "--phi", "angle between the axes, e.g. 60deg (repeatable)"),
    Field("sweep", None, SWEEP, "--sweep", "angle sweep, e.g. 0:180:5deg"),
)


def cmd_spin_correlation(ns: argparse.Namespace) -> tuple:
    cfg = _resolve(SPIN, ns)
    if not (ns.seed is None or SEED.valid(ns.seed)):  # --seed is on every subcommand, read or not
        raise UsageError(f"seed must be {SEED.meaning}, got {ns.seed}")
    if cfg["phi"] is None and cfg["sweep"] is None:
        raise UsageError("spin-correlation needs --phi or --sweep")
    _refuse_unread(ns, SPIN, {"--sweep-out": ("--sweep", cfg["sweep"] is not None)})

    def evaluate(phi: float) -> dict:
        axis1, axis2 = Direction(0.0), Direction(phi)
        return {
            "phi": phi,
            "phi_degrees": math.degrees(phi),
            "quantum_correlation": quantum_correlation(axis1, axis2),
            "subquantum_correlation": {
                "plus": subquantum_correlation(HiddenVariable(axis1, 1), axis1, axis2),
                "minus": subquantum_correlation(HiddenVariable(axis1, -1), axis1, axis2),
            },
        }

    results: dict = {}
    if cfg["phi"] is not None:
        results["angles"] = [evaluate(float(p)) for p in cfg["phi"]]
    if cfg["sweep"] is not None:
        start, step, count = require_sweep(cfg["sweep"], "sweep")
        rows = FloatTable(2, correlation_sweep(start, step, count))
        results["sweep"] = {"rows": rows, "row_count": count}
        if ns.sweep_out is not None:
            with open(ns.sweep_out, "w", encoding="utf-8") as fh:
                fh.writelines(rows.blocks)
    return cfg, results, [], None


# ---------------------------------------------------------------------------
# mc-run


MC = (
    Field("theta1", 0.0, ANGLE, "--theta1", "first measurement axis"),
    Field("theta2", 0.0, ANGLE, "--theta2", "second measurement axis"),
    _TRIALS,
    _SEED,
    Field("description", "alice", choice(("alice", "bob", "both")), "--description"),
)


def cmd_mc_run(ns: argparse.Namespace) -> tuple:
    if ns.phi is not None:
        if ns.theta1 is not None or ns.theta2 is not None:
            raise UsageError("--phi is a shorthand for --theta1 0rad --theta2 PHI; "
                             "do not combine them")
        ns.theta1, ns.theta2 = 0.0, ns.phi
    cfg = _resolve(MC, ns)
    description, trials, seed = cfg["description"], cfg["trials"], cfg["seed"]
    _refuse_unread(ns, MC, {"--csv-out": ("one description", description != "both")})
    axis1, axis2 = Direction(cfg["theta1"]), Direction(cfg["theta2"])

    if description == "both":
        comparison = mc.description_equivalence(axis1, axis2, trials, seed, workers=ns.workers)
        checks = [Check.within(f"{name} covariance matches analytic", stats.covariance,
                               comparison.analytic, comparison.tolerance)
                  for name, stats in (("alice", comparison.alice), ("bob", comparison.bob))]
        checks.append(Check.within("descriptions agree with each other", comparison.discrepancy,
                                   0.0, comparison.combined_tolerance))
        return cfg, {"equivalence": comparison}, checks, seed
    config = mc.ExperimentConfig(axis1, axis2, trials, description, seed,
                                 stream_id=0 if description == "alice" else 1)
    stats = mc.run_experiment(config, workers=ns.workers, csv_out=ns.csv_out)
    analytic = quantum_correlation(axis1, axis2)
    tol = mc.covariance_tolerance(analytic, trials)
    results = {
        "description": description,
        "phi": angle_between(axis1, axis2),
        "analytic": analytic,
        "stats": stats,
        "error": abs(stats.covariance - analytic),
        "tolerance": tol,
    }
    checks = [Check.within(f"{description}: empirical covariance matches analytic",
                           stats.covariance, analytic, tol)]
    return cfg, results, checks, seed


# ---------------------------------------------------------------------------
# ball-protocol


#: Each StageConfig field's default, by name: the stages' numbers are stated in ballprotocol.
STAGE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(bp.StageConfig)}

BALL = (
    Field("stage", None, STAGE, "--stage"),
    Field("all_stages", False, SWITCH, "--all-stages",
          "run stages 1-3 and evaluate the cross-stage inequality"),
    Field("alice_filter", None, ALICE_FILTER, "--alice-filter"),
    Field("bob_filter", None, BOB_FILTER, "--bob-filter"),
    _TRIALS,
    _SEED,
    Field("p_stage1", STAGE_DEFAULTS["p_stage1"], PROBABILITY, "--p1",
          "stage-1 correlated-configuration probability"),
    Field("p_stage23", STAGE_DEFAULTS["p_stage23"], PROBABILITY, "--p23",
          "stage-2/3 correlated-configuration probability"),
    Field("filter_mismatch_prob", STAGE_DEFAULTS["filter_mismatch_prob"], PROBABILITY,
          "--mismatch-prob", "per-observer chance of an unsuitable filter choice per trial"),
    Field("mode", "empirical", choice(("empirical", "analytic")), "--mode"),
)


def _stage_config(cfg: dict, stage: int) -> bp.StageConfig:
    """Stage ``stage`` with each key of the resolved config that names a StageConfig field,
    under that name; a filter that is None or absent is the stage's canonical one."""
    given = {key: value for key, value in cfg.items() if key in STAGE_DEFAULTS}
    return bp.StageConfig(**{**given, "stage": stage})


def _stage_checks(report: bp.AggregateReport, config: bp.StageConfig) -> list[Check]:
    analytic = bp.analytic_stage_report(config)
    tol = 4.0 / math.sqrt(config.trials)
    checks = [Check.within(f"stage {config.stage} joint frequency {glyph(*pair)} matches analytic",
                           report.joint_freq[pair], analytic.joint_freq[pair], tol)
              for pair in SIGN_PAIRS]
    checks.append(Check.within(f"stage {config.stage} correlation matches analytic",
                               report.correlation, analytic.correlation, tol))
    return checks


def cmd_ball_protocol(ns: argparse.Namespace) -> tuple:
    cfg = _resolve(BALL, ns)
    if cfg["all_stages"]:
        if cfg["stage"] is not None or cfg["alice_filter"] or cfg["bob_filter"]:
            raise UsageError("--all-stages uses the canonical stage filters; "
                             "drop --stage and the filter flags")
    elif cfg["stage"] is None:
        raise UsageError("ball-protocol needs --stage or --all-stages")
    stages = [1, 2, 3] if cfg["all_stages"] else [cfg["stage"]]
    empirical = cfg["mode"] == "empirical"
    _refuse_unread(ns, BALL, {"--trials": ("--mode empirical", empirical),
                              "--p1": ("stage 1", 1 in stages),
                              "--p23": ("stage 2 or 3", stages != [1]),
                              "--csv-out": ("one empirical stage", empirical and len(stages) == 1)})

    configs = [_stage_config(cfg, stage) for stage in stages]  # --all-stages: no filters
    checks: list[Check] = []
    stage_reports = []
    for config in configs:
        if cfg["mode"] == "analytic":
            stage_reports.append(bp.analytic_stage_report(config))
        else:
            stage_reports.append(bp.run_stage(config, workers=ns.workers, csv_out=ns.csv_out))
            checks.extend(_stage_checks(stage_reports[-1], config))

    results: dict = {"stages": stage_reports}
    if cfg["all_stages"]:
        results["inequality"] = bp.bell_inequality_check(tuple(stage_reports))
        results["decomposition"] = [bp.contextual_decomposition(c, 1, 1) for c in configs]
    return cfg, results, checks, cfg["seed"]


# ---------------------------------------------------------------------------
# common-cause


CAUSE = (
    Field("builtin", None, choice(("spin", "ball")), "--builtin"),
    Field("model_file", None, PATH, "--model",
          "JSON file with p_z, joint_given_z, joint_given_not_z"),
    Field("phi", math.pi / 3, ANGLE, "--phi", "axis angle for --builtin spin"),
    Field("x_outcome", 1, SPIN_OUTCOME, "--x-outcome"),
    Field("y_outcome", 1, SPIN_OUTCOME, "--y-outcome"),
    Field("stage", 1, STAGE, "--stage", "stage for --builtin ball"),
    Field("empirical", False, SWITCH, "--empirical",
          "estimate the ball model from a simulated run"),
    _TRIALS,
    _SEED,
    Field("tolerance", None, TOLERANCE, "--tolerance"),
)


def cmd_common_cause(ns: argparse.Namespace) -> tuple:
    cfg = _resolve(CAUSE, ns)
    if (cfg["builtin"] is None) == (cfg["model_file"] is None):
        raise UsageError("common-cause needs exactly one of --builtin or --model")
    if cfg["empirical"] and cfg["builtin"] != "ball":
        raise UsageError("--empirical needs --builtin ball")
    builtin = cfg["builtin"]
    _refuse_unread(ns, CAUSE, {"--phi": ("--builtin spin", builtin == "spin"),
                               "--x-outcome": ("--builtin", builtin is not None),
                               "--y-outcome": ("--builtin", builtin is not None),
                               "--stage": ("--builtin ball", builtin == "ball"),
                               "--trials": ("--empirical", cfg["empirical"])})

    if cfg["model_file"] is not None:
        model = cc.binary_event_model_from_json_dict(_read_json(cfg["model_file"], "model"))
        source = {"kind": "file", "path": cfg["model_file"]}
    elif cfg["builtin"] == "spin":
        model = cc.spin_event_model(
            Direction(0.0), Direction(cfg["phi"]), cfg["x_outcome"], cfg["y_outcome"]
        )
        source = {"kind": "builtin-spin", "phi": cfg["phi"]}
    else:
        stage_cfg = _stage_config(cfg, cfg["stage"])
        stage_report = (bp.run_stage(stage_cfg, ns.workers) if cfg["empirical"]
                        else bp.analytic_stage_report(stage_cfg))
        model = cc.ball_event_model(stage_report, cfg["x_outcome"], cfg["y_outcome"])
        source = {"kind": "builtin-ball", "stage": cfg["stage"], "empirical": cfg["empirical"]}

    cause_report = cc.full_report(model, cfg["tolerance"])
    results = {"source": source, "model": model, "report": cause_report}
    checks = [
        Check(f"{c.name} holds", c.holds, value=c.lhs, target=c.rhs,
              tolerance=cause_report.tolerance)
        for c in cause_report.conditions
        if not c.name.startswith("relevance")
    ]
    checks.append(
        Check("certified as common-cause explained", cause_report.certified,
              value=cause_report.covariance, target=None,
              tolerance=cause_report.tolerance)
    )
    return cfg, results, checks, cfg["seed"]


# ---------------------------------------------------------------------------
# chsh


CHSH = (
    Field("angles", [0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4], FOUR_ANGLES, "--angles",
          "four comma-separated angles, e.g. 0deg,90deg,45deg,135deg"),
    Field("mode", "analytic", choice(("analytic", "empirical"), mc.require_chsh_mode), "--mode"),
    _TRIALS,
    _SEED,
)


def cmd_chsh(ns: argparse.Namespace) -> tuple:
    cfg = _resolve(CHSH, ns)
    _refuse_unread(ns, CHSH, {"--trials": ("--mode empirical", cfg["mode"] == "empirical")})
    axes = [Direction(float(a)) for a in cfg["angles"]]
    result = mc.chsh_details(*axes, mode=cfg["mode"], trials=cfg["trials"], seed=cfg["seed"],
                             workers=ns.workers)
    if cfg["mode"] == "analytic":
        bound, tol = mc.CHSH_SINGLET_BOUND, 1e-12
        checks = [Check("|S| within the singlet bound", result.abs_value <= bound + tol,
                        value=result.abs_value, target=bound, tolerance=tol)]
        return cfg, {"chsh": result}, checks, None
    analytic = mc.chsh_details(*axes, mode="analytic")
    tol = sum(mc.covariance_tolerance(ctx.expectation, cfg["trials"]) for ctx in analytic.contexts)
    checks = [Check.within("empirical S matches analytic combination",
                           result.value, analytic.value, tol)]
    return cfg, {"chsh": result, "analytic": analytic}, checks, cfg["seed"]


# ---------------------------------------------------------------------------


class Subcommand(NamedTuple):
    """One subcommand: its help, config schema, handler and own flags that are no config keys."""

    help: str
    schema: tuple[Field, ...]
    handler: Callable[[argparse.Namespace], tuple]  # (cfg, results, checks, seed)
    flags: tuple[tuple[str, dict], ...] = ()  # as COMMON_FLAGS, added after them


CSV_OUT = ("--csv-out", {"metavar": "PATH", "help": "write per-trial records as CSV"})
#: Each export flag, and the key that names its file in the manifest's outputs.
OUTPUTS = {"--csv-out": "trials_csv", "--sweep-out": "sweep_data"}

SUBCOMMANDS = {
    "spin-correlation": Subcommand(
        "analytic quantum and subquantum correlations per angle", SPIN, cmd_spin_correlation,
        (("--sweep-out", {"metavar": "PATH", "help": "write the sweep as two-column text here"}),)),
    "mc-run": Subcommand(
        "Monte Carlo run vs the analytic correlation", MC, cmd_mc_run,
        (("--phi", {"type": parse_angle, "metavar": "ANGLE",
                    "help": "shorthand for --theta1 0rad --theta2 ANGLE"}), CSV_OUT)),
    "ball-protocol": Subcommand(
        "colored-ball stages, optionally the full trilogy", BALL, cmd_ball_protocol, (CSV_OUT,)),
    "common-cause": Subcommand("six-condition common-cause report", CAUSE, cmd_common_cause),
    "chsh": Subcommand("CHSH combination (derived demonstration)", CHSH, cmd_chsh),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on the first call.

    Every later call returns the same parser, so in-process callers of
    :func:`main` share it.  Parsing keeps no state on the parser: each
    ``parse_args`` returns a new namespace, and ``append`` flags copy
    their list.
    """
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Singlet correlations from axis-anchored hidden variables: "
                    "analytic evaluators, Monte Carlo runs, the colored-ball "
                    "protocol and common-cause diagnostics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for f in command.schema if _SEED in command.schema else (*command.schema, _SEED):
            p.add_argument(f.flag, dest=f.key, help=f.help, **f.kind.flag)
        for flag, keywords in (*COMMON_FLAGS, *command.flags):
            p.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    writing = None  # the path being written: an OSError raised by a write names no file
    exported = None  # the export's path once the run has written it whole
    try:
        ns = build_parser().parse_args(argv)  # angle and sweep flags raise UsageError
        require_count(ns.workers, "workers")
        command = SUBCOMMANDS[ns.subcommand]
        flag = next((f for f, _ in command.flags if f in OUTPUTS), None)  # its one export
        writing = None if flag is None else getattr(ns, _dest(flag))
        for path in (ns.out, writing):  # before the run: no work, and no export left behind
            if path is not None:
                _refuse_unwritable(path)
        if writing is not None and ns.out is not None:
            real = os.path.realpath(writing)
            file = os.path.isfile(real) or not os.path.exists(real)  # not a device: /dev/null
            if file and real == os.path.realpath(ns.out):
                raise UsageError(f"--out and {flag} name the same file {writing!r}")
        cfg, results, checks, seed = command.handler(ns)
        exported = writing
        outputs = {} if writing is None else {OUTPUTS[flag]: writing}
        report = build_report(ns.subcommand, cfg, results, checks, seed=seed, outputs=outputs,
                              timestamp=not ns.no_timestamp)
        pieces = render_json(report) if ns.format == "json" else render_text(report)
        writing = ns.out
        if ns.out is not None:
            with open(ns.out, "w", encoding="utf-8") as fh:  # Path('') would be '.'
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
        return 0 if report["passed"] else 1
    except (UsageError, ValidationError, ConditioningUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BellsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reads turn theirs into usage errors, so this came from a write
        name = "output" if writing is None else repr(writing)
        print(f"error: cannot write {name}: {exc.strerror}", file=sys.stderr)
        if exported is not None:  # the report's write failed: no export is left without it
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(exported).st_mode):  # not a device such as /dev/null
                    os.remove(exported)
        return 2


if __name__ == "__main__":
    sys.exit(main())
