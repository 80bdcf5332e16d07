"""Win-probability calibration of a rating timeline, for the simulator tests.

Checks that the simulator's outcomes match the model's logistic win
curve: a test's job, so it lives with the tests, not in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from rankelo.errors import InputError
from rankelo.rating import RoundInput, _win_matrix


@dataclass(frozen=True)
class CalibrationBin:
    lo: float
    hi: float
    count: int
    mean_predicted: float | None
    empirical: float | None
    deviation: float | None
    flagged: bool


@dataclass(frozen=True)
class CalibrationReport:
    bins: tuple[CalibrationBin, ...]
    pairs: int
    max_abs_deviation: float | None
    flagged: bool


def calibration_check(rounds: Iterable[RoundInput],
                      timeline: Mapping[tuple[str, str], float],
                      bins: int = 10,
                      flag_threshold: float = 0.1) -> CalibrationReport:
    """Check that predicted win probabilities match observed frequencies.

    Every ordered pair in every division contributes one prediction (the
    logistic win probability from the timeline's pre-round ratings) and
    one outcome (1 beat, 0.5 tie, 0 lost).  Predictions are binned into
    ``bins`` equal-width probability bands; a band whose empirical rate
    deviates from its mean prediction by more than ``flag_threshold`` is
    flagged.
    """
    if bins < 1:
        raise InputError("bins must be >= 1")
    counts = np.zeros(bins, dtype=np.int64)
    pred_sums = np.zeros(bins)
    outcome_sums = np.zeros(bins)

    for round_input in rounds:
        for division in round_input.divisions:
            n = len(division.entries)
            if n < 2:
                continue
            ids, scores = zip(*division.entries)
            missing = [p for p in ids if (round_input.round_id, p) not in timeline]
            if missing:
                raise InputError(f"timeline has no rating for player {missing[0]!r} "
                                 f"in round {round_input.round_id!r}")
            ratings = np.array([timeline[round_input.round_id, p] for p in ids], float)
            scores = np.array(scores, float)
            predicted = _win_matrix(ratings, ratings).T   # [i, j] = P(i beats j)
            outcome = np.where(scores[:, None] > scores[None, :], 1.0,
                               np.where(scores[:, None] == scores[None, :],
                                        0.5, 0.0))
            off = ~np.eye(n, dtype=bool)
            p = predicted[off]
            o = outcome[off]
            idx = np.clip((p * bins).astype(np.int64), 0, bins - 1)
            np.add.at(counts, idx, 1)
            np.add.at(pred_sums, idx, p)
            np.add.at(outcome_sums, idx, o)

    rows = []
    worst = None
    any_flagged = False
    for b in range(bins):
        lo, hi = b / bins, (b + 1) / bins
        if counts[b]:
            # Python floats, so that every flag is a bool, not a numpy bool
            mean_pred = float(pred_sums[b] / counts[b])
            empirical = float(outcome_sums[b] / counts[b])
            deviation = empirical - mean_pred
            flagged = abs(deviation) > flag_threshold
            any_flagged = any_flagged or flagged
            if worst is None or abs(deviation) > worst:
                worst = abs(deviation)
            rows.append(CalibrationBin(lo, hi, int(counts[b]), mean_pred,
                                       empirical, deviation, flagged))
        else:
            rows.append(CalibrationBin(lo, hi, 0, None, None, None, False))
    return CalibrationReport(bins=tuple(rows), pairs=int(counts.sum()),
                             max_abs_deviation=worst, flagged=any_flagged)
