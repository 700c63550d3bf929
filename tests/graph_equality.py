"""Structural graph equality for tests: nodes, edges, hub statistics, order."""

import numpy as np

from agentroute.memory import HeteroGraph


def graphs_equal(a: HeteroGraph, b: HeteroGraph) -> bool:
    """Structural equality: nodes, edges, hub statistics, insertion order."""
    if a.kind != b.kind or a.capacity != b.capacity:
        return False
    if list(a.queries) != list(b.queries) or list(a.responses) != list(b.responses):
        return False
    if a.episode_order != b.episode_order:
        return False
    for ha, hb in zip(a.hubs.hubs, b.hubs.hubs):
        if (ha.role_index, ha.model_index, ha.role_name, ha.model_name) != \
           (hb.role_index, hb.model_index, hb.role_name, hb.model_name):
            return False
        if ha.utility_ema != hb.utility_ema or ha.cost_ema != hb.cost_ema:
            return False
        if not np.array_equal(ha.role_embedding, hb.role_embedding):
            return False
    for qa, qb in zip(a.queries.values(), b.queries.values()):
        if (qa.id, qa.depth, qa.parent, qa.family, qa.status, qa.is_summary,
                qa.width_hint, qa.answer_id) != \
           (qb.id, qb.depth, qb.parent, qb.family, qb.status, qb.is_summary,
                qb.width_hint, qb.answer_id):
            return False
        if not np.array_equal(qa.embedding, qb.embedding):
            return False
    for ra, rb in zip(a.responses.values(), b.responses.values()):
        if (ra.id, ra.produced_by, ra.tokens_in, ra.tokens_out, ra.quality) != \
           (rb.id, rb.produced_by, rb.tokens_in, rb.tokens_out, rb.quality):
            return False
        if not np.array_equal(ra.embedding, rb.embedding):
            return False
    return a.edges == b.edges
