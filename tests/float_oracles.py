"""Float reference kernels for the integer-threshold trial engine.

These are the vectorised float kernels the library used before it
compared raw Philox words against integer thresholds.  Each draws
trial i's uniforms from counter block i with ``Generator.random`` and
compares them as doubles, so the engine must reproduce their histograms
exactly.
"""

import math

import numpy as np
from actor_oracles import stage_algorithms

from bellsim import ballprotocol as bp
from bellsim.rng import BLOCK_DRAWS
from bellsim.spinmodel import Description, angle_between


def _doubles(stream, n: int) -> np.ndarray:
    """Uniform doubles of trials [0, n), shape (n, 4)."""
    return stream.generator(0).random(n * BLOCK_DRAWS).reshape(n, BLOCK_DRAWS)


def mc_counts(config) -> tuple[int, int, int, int]:
    """Outcome-pair histogram (++, +-, -+, --) of a Monte Carlo run."""
    u = _doubles(config.stream(), config.trials)
    signs = np.where(u[:, 0] < 0.5, 1, -1).astype(np.int8)
    signs_f = signs.astype(np.float64)
    if config.description is Description.ALICE:
        cos_phi = math.cos(angle_between(config.axis1, config.axis2))
        p_plus = 0.5 * (1.0 + (-signs_f) * cos_phi)
        outcome2 = np.where(u[:, 1] < p_plus, 1, -1).astype(np.int64)
        outcome1 = signs.astype(np.int64)
    else:
        cos_phi = math.cos(angle_between(config.axis2, config.axis1))
        p_plus = 0.5 * (1.0 + signs_f * cos_phi)
        outcome1 = np.where(u[:, 1] < p_plus, 1, -1).astype(np.int64)
        outcome2 = -signs.astype(np.int64)
    idx = (1 - outcome1) + (1 - outcome2) // 2
    return tuple(int(c) for c in np.bincount(idx, minlength=4))


def _signs_for_filter(per_color, filter_colors):
    """Registered sign per trial for one observer (0 = not registered)."""
    out = np.zeros(len(filter_colors), dtype=np.int8)
    for color, signs in per_color.items():
        out = np.where(filter_colors == ord(color.value), signs.astype(np.int8), out)
    return out


def stage_counts(config) -> np.ndarray:
    """8-cell histogram, algorithm (2) x registered sign pair (4), of a stage run."""
    n = config.trials
    u = _doubles(config.stream(), n)
    first, second = stage_algorithms(config.stage, config.correlated_prob)
    alg_index = np.where(u[:, 0] < 0.5, 0, 1).astype(np.int8)
    s = np.where(alg_index == 0, first.fixed_alice_sign, second.fixed_alice_sign)
    correlated = u[:, 1] < first.correlated_prob
    v = np.where(correlated, s, -s)

    m = config.filter_mismatch_prob
    alice_filter = np.full(n, ord(config.alice_filter.value), dtype=np.uint8)
    bob_filter = np.full(n, ord(config.bob_filter.value), dtype=np.uint8)
    if m > 0.0:
        alice_alt = bp.ALICE_FILTERS[1] if config.alice_filter is bp.ALICE_FILTERS[0] \
            else bp.ALICE_FILTERS[0]
        bob_alt = bp.BOB_FILTERS[1] if config.bob_filter is bp.BOB_FILTERS[0] \
            else bp.BOB_FILTERS[0]
        alice_filter = np.where(u[:, 2] < m, ord(alice_alt.value), alice_filter).astype(np.uint8)
        bob_filter = np.where(u[:, 3] < m, ord(bob_alt.value), bob_filter).astype(np.uint8)

    fixed, variable = bp.STAGE_COLORS[config.stage]
    a = _signs_for_filter({fixed: s, variable: -v}, alice_filter).astype(np.int64)
    b = _signs_for_filter({variable: v, fixed: -s}, bob_filter).astype(np.int64)
    mask = (a != 0) & (b != 0)
    idx = alg_index[mask].astype(np.int64) * 4 + (1 - a[mask]) + (1 - b[mask]) // 2
    return np.bincount(idx, minlength=8)
