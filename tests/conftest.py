"""Helpers shared by the test modules."""

import numpy as np

from sulab.data import Dataset
from sulab.empirical import EmpiricalScoreOracle
from sulab.models import OracleField


def population_field(dim):
    """The exact score field of p_data = N(0, I) in dim dimensions: the
    oracle of one point at the origin with std 1, as gaussian builds it."""
    return OracleField(EmpiricalScoreOracle(Dataset(np.zeros((1, dim))), std=1.0))
