"""Output checks that do not reuse the program's own arithmetic.

Every check raises ``CheckError`` on the first mismatch.  The pairwise
recomputations are plain Python loops over the rating model's
definitions (logistic win curve, tie-split ranks, capped bit
performance), so a fault in the vectorised engine cannot also hide in
the reference.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict

# The paper's ``elo2`` profile (see the README's parameter table).
ELO2 = {
    "k_factor": 600.0,
    "variance_weight": 4.0,
    "perf_cap": 6.75,
    "bonus": 27.0,
    "inflation": 63.0,
    "initial_rating": 1200.0,
    "weight_exponent": 0.5,
}
BITS_TO_RATING = 400.0 * math.log10(2.0)
REL_TOL = 1e-9


class CheckError(Exception):
    """An output disagrees with its independent reference."""


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(got: float, want: float, what: str) -> None:
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL):
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def division_keys(rounds) -> list[tuple[str, int]]:
    return [(r.round_id, d.division) for r in rounds for d in r.divisions]


def pairwise_ranks(scores, ratings):
    """(actual, expected, mu, var) per entry, by direct pair enumeration.

    ``w`` is the probability that opponent j beats player i,
    1 / (1 + 10 ** ((r_i - r_j) / 400)); a tied opponent adds 0.5 to both
    ranks, and ``mu``/``var`` sum ``w`` and ``w(1-w)`` over every opponent.
    """
    n = len(scores)
    out = []
    for i in range(n):
        s_i, r_i = scores[i], ratings[i]
        beaten = ties = 0
        untied = mu = var = 0.0
        for j in range(n):
            if j == i:
                continue
            w = 1.0 / (1.0 + 10.0 ** ((r_i - ratings[j]) / 400.0))
            mu += w
            var += w * (1.0 - w)
            s_j = scores[j]
            if s_j == s_i:
                ties += 1
                continue
            untied += w
            if s_j > s_i:
                beaten += 1
        out.append((1.0 + beaten + 0.5 * ties, 1.0 + untied + 0.5 * ties,
                    1.0 + mu, 1.0 + var))
    return out


def breakdown(actual, expected, mu, var, nr, p=ELO2):
    """The logged per-player quantities for one entry."""
    perf = math.log2(expected / actual)
    sens = var / mu
    boosted = perf + p["bonus"] / BITS_TO_RATING * sens
    capped = boosted / (1.0 + abs(boosted) / p["perf_cap"])
    weight = nr ** p["weight_exponent"]
    variance_factor = 1.0 + p["variance_weight"] * sens
    return {
        "actual_rank": actual, "expected_rank": expected, "mu": mu, "var": var,
        "perf": perf, "sensitivity": sens, "adjusted_perf": capped,
        "weight": weight, "variance_factor": variance_factor,
        "delta_r": p["k_factor"] * capped / (variance_factor * weight),
    }


def group_log(rows) -> dict[tuple[str, int], list[dict[str, str]]]:
    grouped = defaultdict(list)
    for row in rows:
        grouped[(row["round_id"], int(row["division"]))].append(row)
    return grouped


def check_replay_log(rows, rounds, sample, p=ELO2) -> None:
    """The ``rate --output`` log of a fresh replay of ``rounds``.

    Every row: the right players and sizes, ``nr`` equal to the player's
    appearances so far plus one, and ``rating_before`` equal to the new-player
    rating on a first appearance and to the previous row's
    ``rating_before + delta_r`` after it.  Sampled divisions: every logged
    quantity equals the pairwise recomputation within ``REL_TOL``.
    """
    grouped = group_log(rows)
    if len(rows) != sum(len(d.entries) for r in rounds for d in r.divisions):
        raise CheckError(f"replay log has {len(rows)} rows, history has "
                         f"a different entry count")
    last: dict[str, tuple[int, float]] = {}
    for index, round_input in enumerate(rounds):
        r1 = p["initial_rating"] + (p["inflation"] / 100.0) * index
        for division in round_input.divisions:
            key = (round_input.round_id, division.division)
            logged = grouped.get(key, [])
            if [row["player_id"] for row in logged] != [e[0] for e in division.entries]:
                raise CheckError(f"log rows of {key} do not match the history")
            for row in logged:
                if int(row["n"]) != len(division.entries):
                    raise CheckError(f"{key} {row['player_id']}: n={row['n']}")
                nr, before = int(row["nr"]), float(row["rating_before"])
                seen, expected_before = last.get(row["player_id"], (0, r1))
                if nr != seen + 1:
                    raise CheckError(f"{key} {row['player_id']}: nr={nr}, "
                                     f"appearances before={seen}")
                if before != expected_before:
                    raise CheckError(f"{key} {row['player_id']}: rating_before "
                                     f"{before!r}, expected {expected_before!r}")
                last[row["player_id"]] = (nr, before + float(row["delta_r"]))
    entries = {(r.round_id, d.division): d.entries
               for r in rounds for d in r.divisions}
    for key in sample:
        logged = grouped[key]
        scores = [score for _, score in entries[key]]
        ratings = [float(row["rating_before"]) for row in logged]
        for row, ranks in zip(logged, pairwise_ranks(scores, ratings)):
            want = breakdown(*ranks, nr=int(row["nr"]), p=p)
            for field, value in want.items():
                _close(float(row[field]), value, f"{key} {row['player_id']} {field}")


def check_perf_sums(rows, rounds) -> int:
    """Tie-free divisions: the performances sum to at least 0.

    Expected ranks of a tie-free division are majorized by 1..n (Landau),
    and a sum of logs is Schur-concave, so sum(log2(expected/actual)) >= 0.
    Returns the number of divisions checked.
    """
    grouped = group_log(rows)
    checked = 0
    for round_input in rounds:
        for division in round_input.divisions:
            scores = [score for _, score in division.entries]
            if len(set(scores)) != len(scores):
                continue
            key = (round_input.round_id, division.division)
            total = math.fsum(float(row["perf"]) for row in grouped[key])
            if total < -REL_TOL:
                raise CheckError(f"{key}: performance sum {total!r} < 0")
            checked += 1
    return checked


def kendall_tau_b(x, y):
    """Tau-b by counting concordant, discordant and tied pairs."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[i] - x[j], y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    pairs = n * (n - 1) // 2
    denom = math.sqrt((pairs - ties_x) * (pairs - ties_y))
    return None if denom == 0 else (concordant - discordant) / denom


def mid_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_mid_rank(x, y):
    """Pearson correlation of mid-ranks; None when one side is constant."""
    rx, ry = mid_ranks(x), mid_ranks(y)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    return None if sxx == 0 or syy == 0 else sxy / math.sqrt(sxx * syy)


def check_round_metrics(eval_rows, log_rows, rounds, sample) -> None:
    """``eval --report rounds``: one row per division; sampled rows agree
    with pair-counted tau-b, mid-rank rho and the pairwise mean error."""
    keys = division_keys(rounds)
    got = [(row["round_id"], int(row["division"])) for row in eval_rows]
    if got != keys:
        raise CheckError("eval rows do not list the history's divisions in order")
    by_key = dict(zip(got, eval_rows))
    grouped = group_log(log_rows)
    entries = {(r.round_id, d.division): d.entries
               for r in rounds for d in r.divisions}
    for key in sample:
        row = by_key[key]
        scores = [score for _, score in entries[key]]
        ratings = [float(r["rating_before"]) for r in grouped[key]]
        if int(row["n"]) != len(scores):
            raise CheckError(f"eval {key}: n={row['n']}")
        errors = [abs(math.log2(e / a)) for a, e, _, _ in pairwise_ranks(scores, ratings)]
        _close(float(row["mean_error"]), math.fsum(errors) / len(errors),
               f"eval {key} mean_error")
        for field, want in (("kendall", kendall_tau_b(ratings, scores)),
                            ("spearman", spearman_mid_rank(ratings, scores))):
            if want is None or row[field] == "":
                if (want is None) != (row[field] == ""):
                    raise CheckError(f"eval {key} {field}: got {row[field]!r}, "
                                     f"expected {want!r}")
                continue
            _close(float(row[field]), want, f"eval {key} {field}")


def check_compare(rows, rounds, self_compare: bool) -> None:
    """``compare`` rows: the All row covers every division, every win
    fraction lies in [0, 1], and a system compared with itself wins
    exactly half of every row."""
    if not rows or rows[0]["bucket"] != "All":
        raise CheckError("compare output has no All row")
    if int(rows[0]["rounds"]) != len(division_keys(rounds)):
        raise CheckError(f"compare All row counts {rows[0]['rounds']} rounds")
    for row in rows:
        for field in ("kendall_win", "spearman_win", "error_win"):
            cell = row[field]
            value = float(cell) if cell else None
            if self_compare and value != 0.5:
                raise CheckError(f"self-compare {row['bucket']} {field} = {cell!r}, "
                                 f"expected exactly 0.5")
            if value is not None and not 0.0 <= value <= 1.0:
                raise CheckError(f"compare {row['bucket']} {field} = {cell!r}")


def check_sweep(rows, grid, objective, k_range) -> None:
    """Each sweep row's error equals a fresh replay at (value, best_K) and is
    no worse than the error at any of the five probe Ks."""
    values = [float(row["param_value"]) for row in rows]
    if values != list(grid):
        raise CheckError(f"sweep rows {values} do not follow the grid {list(grid)}")
    k_min, k_max = k_range
    for row, value in zip(rows, values):
        error = float(row["mean_error"])
        fresh = objective(value, float(row["best_K"]))
        if error != fresh:
            raise CheckError(f"sweep {value}: reported {error!r}, fresh replay "
                             f"at K={row['best_K']} gives {fresh!r}")
        for i in range(5):
            k = k_min + (k_max - k_min) * i / 4.0
            probe = objective(value, k)
            if probe < error:
                raise CheckError(f"sweep {value}: K={k} gives {probe!r}, better "
                                 f"than the reported {error!r}")


def check_snapshot(state, rounds, p=ELO2) -> None:
    """A snapshot after a fresh replay of ``rounds``: the round count, the
    new-player rating, and one player per distinct id with its appearances."""
    appearances: dict[str, int] = defaultdict(int)
    for round_input in rounds:
        for division in round_input.divisions:
            for player_id, _ in division.entries:
                appearances[player_id] += 1
    if state.rounds_processed != len(rounds):
        raise CheckError(f"snapshot rounds_processed={state.rounds_processed}, "
                         f"history has {len(rounds)}")
    r1 = p["initial_rating"] + (p["inflation"] / 100.0) * len(rounds)
    if state.r1 != r1:
        raise CheckError(f"snapshot r1={state.r1!r}, expected {r1!r}")
    if set(state.players) != set(appearances):
        raise CheckError(f"snapshot holds {len(state.players)} players, history "
                         f"has {len(appearances)} distinct ids")
    for player_id, player in state.players.items():
        if player.num_rounds != appearances[player_id] or not math.isfinite(player.rating):
            raise CheckError(f"snapshot player {player_id!r} is inconsistent")


def check_same_bytes(got: bytes, want: bytes, what: str) -> None:
    if got != want:
        first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                     min(len(got), len(want)))
        raise CheckError(f"{what}: differs from the reference at byte {first} "
                         f"({len(got)} vs {len(want)} bytes)")
