"""Per-trial records read back from the CSV files the library writes."""

import csv

import numpy as np


def read_mc_csv(path) -> np.recarray:
    """The integer columns of a Monte Carlo trials CSV, named by its header."""
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    dtype = [(name, np.int64) for name in names]
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype, ndmin=1).view(np.recarray)


def read_stage_csv(path) -> list[dict[str, str]]:
    """The rows of a ball-protocol stage CSV, keyed by its header."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
