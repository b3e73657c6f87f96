"""Sphere separators (Miller–Teng–Thurston–Vavasis) and baseline cuts.

Implements Section 2 of the paper: the random sphere separator pipeline
(stereographic lift, approximate centerpoint, conformal centering, random
great circle, explicit pull-back), the unit-time variant with its retry
loop, quality measurement (split ratios and intersection numbers), and the
hyperplane median-cut baseline the paper improves on.
"""

from .greatcircle import random_great_circle, random_unit_vector
from .hyperplane import find_median_hyperplane, median_hyperplane
from .mttv import MTTVSeparatorSampler, default_sample_size, mttv_separator
from .quality import (
    SeparatorReport,
    ball_split,
    default_delta,
    is_good_point_split,
    point_split,
    side_split_is_good,
)
from .unit_time import (
    SeparatorFailure,
    UnitTimeSeparator,
    find_good_separator,
    find_good_separator_side,
)

__all__ = [
    "random_great_circle",
    "random_unit_vector",
    "find_median_hyperplane",
    "median_hyperplane",
    "MTTVSeparatorSampler",
    "default_sample_size",
    "mttv_separator",
    "SeparatorReport",
    "ball_split",
    "default_delta",
    "is_good_point_split",
    "point_split",
    "side_split_is_good",
    "SeparatorFailure",
    "UnitTimeSeparator",
    "find_good_separator",
    "find_good_separator_side",
]
