"""Synthetic contest histories from latent skills.

Each player has a latent skill in rating units.  A round score is the
skill plus Gaussian noise, optionally snapped to a grid to induce ties.
The generator is driven by numpy's default PCG64 bit generator, a fixed
and portable algorithm, so a (config, seed) pair always reproduces the
same history byte for byte.  Within a round the draws happen in a fixed
order (arrivals, participation, noise, drift) regardless of which
features are switched on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .rating import DivisionResult, RoundInput


@dataclass(frozen=True)
class SimConfig:
    players: int
    rounds: int
    skill_mean: float = 1500.0
    skill_std: float = 300.0
    noise_std: float = 200.0
    participation: float = 1.0
    drift_std: float = 0.0
    arrival_rate: float = 0.0
    div1_fraction: float = 0.0
    tie_step: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.players < 0:
            raise InputError("players must be >= 0")
        if self.rounds < 0:
            raise InputError("rounds must be >= 0")
        for name in ("skill_std", "noise_std", "drift_std", "arrival_rate",
                     "tie_step"):
            if not math.isfinite(getattr(self, name)) or getattr(self, name) < 0:
                raise InputError(f"{name} must be finite and >= 0")
        if not math.isfinite(self.skill_mean):
            raise InputError("skill_mean must be finite")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        for name in ("participation", "div1_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InputError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class SimResult:
    """Generated rounds plus the final latent skill of every player."""

    rounds: list[RoundInput]
    skills: dict[str, float]


def generate_history(config: SimConfig) -> SimResult:
    """Simulate a contest history; see the module docstring for the model."""
    rng = np.random.default_rng(config.seed)
    skills = rng.normal(config.skill_mean, config.skill_std,
                        size=config.players)

    rounds: list[RoundInput] = []
    for t in range(config.rounds):
        arrivals = int(rng.poisson(config.arrival_rate))
        if arrivals:
            skills = np.concatenate(
                [skills, rng.normal(config.skill_mean, config.skill_std,
                                    size=arrivals)])
        n = skills.size
        playing = rng.random(n) < config.participation
        noise = rng.normal(0.0, config.noise_std, size=n)
        drift = rng.normal(0.0, config.drift_std, size=n)

        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            scores = skills + noise
            if config.tie_step > 0:
                scores = np.round(scores / config.tie_step) * config.tie_step

        participants = np.flatnonzero(playing)
        if not np.isfinite(scores[participants]).all():
            raise InputError(f"a simulated score in round r{t:04d} is not finite "
                             f"(tie_step {config.tie_step!r} too small?)")
        if participants.size:
            rounds.append(RoundInput(
                round_id=f"r{t:04d}",
                divisions=_split_divisions(participants, skills, scores,
                                           config.div1_fraction)))
        skills = skills + drift

    names = {i: f"p{i:06d}" for i in range(skills.size)}
    return SimResult(rounds=rounds,
                     skills={names[i]: float(skills[i]) for i in names})


def _split_divisions(participants: np.ndarray, skills: np.ndarray,
                     scores: np.ndarray, div1_fraction: float) -> list[DivisionResult]:
    def entries(indices) -> list[tuple[str, float]]:
        return [(f"p{i:06d}", float(scores[i])) for i in indices]

    count = participants.size
    n1 = int(round(div1_fraction * count))
    if n1 <= 0 or n1 >= count:
        return [DivisionResult(division=1, entries=entries(participants))]
    # Strongest players by current latent skill go to division 1; ties
    # broken by player index so the split is deterministic.
    order = sorted(participants, key=lambda i: (-skills[i], i))
    return [DivisionResult(division=1, entries=entries(sorted(order[:n1]))),
            DivisionResult(division=2, entries=entries(sorted(order[n1:])))]
