"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, literal way: pure Python loops,
``10 ** x`` exponentials, ``math.log2`` directly, no shared code with
``rankelo`` and no vectorization.  Keep it that way; these are the
oracles the test suite trusts.
"""

from __future__ import annotations

import math

# Rating points per performance bit, derived by a different route than
# the package uses (400 / log2(10) rather than 400 * ln 2 / ln 10).
ORACLE_K0 = 400.0 / math.log2(10.0)


def oracle_win_probability(r_i: float, r_j: float) -> float:
    return 1.0 / (1.0 + 10.0 ** ((r_j - r_i) / 400.0))


def oracle_relative_performance(expected_rank: float, actual_rank: float) -> float:
    """Bits above (+) or below (-) the expected rank: log2(expected / actual)."""
    return math.log2(expected_rank) - math.log2(actual_rank)


def oracle_rank_performance(n: float, r: float) -> float:
    """Elimination-tournament wins of rank ``r`` among ``n``: log2(n / r)."""
    return math.log2(n) - math.log2(r)


def oracle_bonus_performance(perf: float, sens: float, bonus: float) -> float:
    """Performance plus the participation bonus, in bits, scaled by sensitivity."""
    return perf + (bonus / ORACLE_K0) * sens


def oracle_sigmoid_cap(perf: float, cap: float) -> float:
    """Sigmoid cap on performance magnitude: p / (1 + |p| / cap)."""
    return perf * cap / (cap + abs(perf))


def oracle_breakdown(i: int, scores, ratings, rounds_played, k_factor,
                     variance_weight, perf_cap, bonus, weight_exponent) -> dict:
    """All intermediate values for entry ``i`` of a division."""
    mu = 1.0
    var = 1.0
    expected = 1.0
    actual = 1.0
    for j in range(len(scores)):
        if j == i:
            continue
        w = oracle_win_probability(ratings[j], ratings[i])  # P(j beats i)
        mu += w
        var += w * (1.0 - w)
        if scores[j] == scores[i]:
            expected += 0.5
            actual += 0.5
        else:
            expected += w
            if scores[j] > scores[i]:
                actual += 1.0
    perf = oracle_relative_performance(expected, actual)
    sens = var / mu
    adjusted = oracle_sigmoid_cap(oracle_bonus_performance(perf, sens, bonus),
                                  perf_cap)
    weight = (rounds_played[i] + 1.0) ** weight_exponent
    variance_factor = 1.0 + variance_weight * sens
    delta = k_factor * adjusted / (variance_factor * weight)
    return {
        "actual_rank": actual,
        "expected_rank": expected,
        "perf": perf,
        "sensitivity": sens,
        "adjusted_perf": adjusted,
        "weight": weight,
        "variance_factor": variance_factor,
        "delta_r": delta,
        "mu": mu,
        "var": var,
    }


def oracle_rate_division(scores, ratings, rounds_played, params) -> list[dict]:
    return [oracle_breakdown(i, scores, ratings, rounds_played,
                             params.k_factor, params.variance_weight,
                             params.perf_cap, params.bonus,
                             params.weight_exponent)
            for i in range(len(scores))]


def oracle_rate_round(divisions, registry, r1, rounds_processed, params):
    """Straight-line round driver over a plain-dict registry.

    ``divisions`` is a list of lists of ``(player_id, score)``;
    ``registry`` maps id to ``[rating, rounds_played]`` and is mutated.
    Returns the new ``(r1, rounds_processed)``.
    """
    for entries in divisions:
        for player_id, _ in entries:
            if player_id not in registry:
                registry[player_id] = [r1, 0]
    staged = []
    for entries in divisions:
        scores = [score for _, score in entries]
        ratings = [registry[player_id][0] for player_id, _ in entries]
        rounds_played = [registry[player_id][1] for player_id, _ in entries]
        rows = oracle_rate_division(scores, ratings, rounds_played, params)
        staged.extend((player_id, row["delta_r"])
                      for (player_id, _), row in zip(entries, rows))
    for player_id, delta in staged:
        registry[player_id][0] += delta
        registry[player_id][1] += 1
    rounds_processed += 1
    r1 = params.initial_rating + (params.inflation / 100.0) * rounds_processed
    return r1, rounds_processed


def _tie_pair_count(values) -> int:
    groups: dict[float, int] = {}
    for v in values:
        groups[v] = groups.get(v, 0) + 1
    return sum(t * (t - 1) // 2 for t in groups.values())


def oracle_kendall_tau(x, y) -> float | None:
    """Tau-b by literal pair counting, O(n^2)."""
    n = len(x)
    concordant = 0
    discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = (x[i] > x[j]) - (x[i] < x[j])
            b = (y[i] > y[j]) - (y[i] < y[j])
            if a * b > 0:
                concordant += 1
            elif a * b < 0:
                discordant += 1
    n0 = n * (n - 1) // 2
    n1 = _tie_pair_count(x)
    n2 = _tie_pair_count(y)
    if n0 == n1 or n0 == n2:
        return None
    return (concordant - discordant) / math.sqrt((n0 - n1) * (n0 - n2))


def oracle_midranks(values) -> list[float]:
    """Average-rank assignment, 1-based, ties share the mean position."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def oracle_spearman_rho(x, y) -> float | None:
    """Pearson correlation of mid-ranks, from the definition."""
    n = len(x)
    if n < 2:
        return None
    rx = oracle_midranks(x)
    ry = oracle_midranks(y)
    mean_x = sum(rx) / n
    mean_y = sum(ry) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x == 0.0 or var_y == 0.0:
        return None
    return cov / math.sqrt(var_x * var_y)
