"""Output checks, computed from written artifacts and returned rows.

Each function returns a list of problems (empty when the output holds), so a
caller can fail exactly the operations a problem belongs to. None of them
calls the code it checks: curves are re-read from curve.csv, histories from
their serialized form, routes from the evaluation rows.
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np

CURVE_TOL = 1e-9
ORACLE_TOL = 1e-12


def curve_problems(curve_csv: str, alpha: float, cost_scale: float) -> list[tuple[int, str]]:
    """Per window: the return identity and utilities in [0, 1].

    Returns (window index, problem) pairs; a missing or unparsable row fails
    the window it should have been.
    """
    out = []
    for i, row in enumerate(csv.DictReader(io.StringIO(curve_csv))):
        try:
            ret = float(row["mean_return"])
            util = float(row["mean_utility"])
            cost = float(row["mean_cost"])
        except (KeyError, TypeError, ValueError) as exc:
            out.append((i, f"unreadable curve row: {exc}"))
            continue
        want = util - alpha * cost_scale * cost
        if not abs(ret - want) <= CURVE_TOL:
            out.append((i, f"mean_return {ret!r} != utility - alpha*scale*cost {want!r}"))
        if not 0.0 <= util <= 1.0:
            out.append((i, f"mean_utility {util!r} outside [0, 1]"))
    return out


def learning_problems(curve_csv: str) -> list[str]:
    """Mean utility of the last quarter of windows beats the first quarter."""
    utils = [float(r["mean_utility"])
             for r in csv.DictReader(io.StringIO(curve_csv))]
    q = len(utils) // 4
    if q == 0:
        return [f"only {len(utils)} windows; need at least 4"]
    first, last = float(np.mean(utils[:q])), float(np.mean(utils[-q:]))
    if not last > first:
        return [f"last-quarter utility {last:.4f} <= first-quarter {first:.4f}"]
    return []


def margin_problems(carried: float, best_fixed: float, margin: float) -> list[str]:
    if not carried - best_fixed >= margin:
        return [f"carried-memory utility {carried:.4f} does not beat the best "
                f"fixed executor {best_fixed:.4f} by {margin}"]
    return []


def route_problems(row: dict, p_max: int, cost_scale: float, *,
                   planner: int, executor: int, summarizer: int) -> list[str]:
    """One evaluation row: route shape, utility range and cost scaling."""
    out = []
    roles = [a[0] for a in row["actions"]]
    if not roles:
        out.append("empty route")
    elif roles[-1] != executor and not row["truncated"]:
        out.append(f"route ends in role {roles[-1]} without truncation")
    if roles.count(planner) > p_max:
        out.append(f"{roles.count(planner)} planner steps > p_max {p_max}")
    if roles.count(summarizer) > 1:
        out.append(f"{roles.count(summarizer)} summarizer steps")
    if not 0.0 <= row["utility"] <= 1.0:
        out.append(f"utility {row['utility']!r} outside [0, 1]")
    want = row["dollars"] * cost_scale
    if not abs(row["scaled_cost"] - want) <= CURVE_TOL * max(1.0, abs(want)):
        out.append(f"scaled_cost {row['scaled_cost']!r} != dollars*scale {want!r}")
    return out


_TAG = re.compile(r"ep(\d+)\Z")


def history_problems(blob: bytes, frozen) -> list[str]:
    """Invariants of a serialized history graph and of its frozen view.

    Capacity holds, no edge names a missing node, every query is adjacent to
    every hub in the encoder view, and the episode tags that survive are the
    most recent ones, without gaps.
    """
    g = json.loads(blob)
    out = []
    qids = {q["id"] for q in g["queries"]}
    rids = {r["id"] for r in g["responses"]}
    n_hubs = len(g["hubs"])
    if g["capacity"] is not None and len(qids) + len(rids) > g["capacity"]:
        out.append(f"{len(qids) + len(rids)} interactions > capacity {g['capacity']}")
    edges = g["edges"]
    ends = {"query-hub": (qids, None), "response-hub": (rids, None),
            "query-response": (qids, rids), "query-parent": (qids, qids)}
    for kind, (first, second) in ends.items():
        for e in edges[kind]:
            ok = e[0] in first and (e[1] in second if second is not None
                                    else 0 <= e[1] < n_hubs)
            if not ok:
                out.append(f"dangling {kind} edge {e!r}")

    H, nq = frozen.n_hubs, frozen.n_queries
    if (H, nq) != (n_hubs, len(qids)):
        out.append(f"frozen view has {H} hubs/{nq} queries, graph {n_hubs}/{len(qids)}")
    src, dst = np.asarray(frozen.edge_src), np.asarray(frozen.edge_dst)
    sel = (src >= H) & (src < H + nq) & (dst < H)
    pairs = np.unique(np.stack([src[sel], dst[sel]]), axis=1)
    per_query = np.bincount(pairs[0] - H, minlength=nq) if nq else np.zeros(0)
    short = int((per_query != H).sum())
    if short:
        out.append(f"{short} of {nq} queries are not adjacent to all {H} hubs")

    tags = {n["episode"] for n in g["queries"] + g["responses"]}
    nums = sorted(int(m.group(1)) for t in tags
                  if t is not None and (m := _TAG.match(t)))
    if len(nums) != len(tags):
        out.append(f"untagged or malformed episode tags among {sorted(map(str, tags))[:5]}")
    if nums and nums != list(range(g["episode_counter"] - len(nums), g["episode_counter"])):
        out.append(f"surviving tags ep{nums[0]}..ep{nums[-1]} are not the "
                   f"{len(nums)} most recent below ep{g['episode_counter']}")
    return out


def oracle_problems(value: float, replayed: float, one_step: list[float]) -> list[str]:
    """The plan replays to the oracle's value and beats every one-step route."""
    out = []
    if not abs(replayed - value) <= ORACLE_TOL:
        out.append(f"replayed plan returns {replayed!r}, oracle said {value!r}")
    worse = [v for v in one_step if v > value + ORACLE_TOL]
    if worse:
        out.append(f"one-step executor route {max(worse)!r} beats oracle {value!r}")
    return out
