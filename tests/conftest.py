from __future__ import annotations

import io
from datetime import date

import numpy as np
import pytest

from legisnet import (
    SENTINEL_EXPIRY,
    LegislationGraph,
    RefType,
    Sector,
    export,
    write_records,
)
from legisnet.bowtie import COMPONENT_NAMES
from legisnet.graph import reftype_code


def reject_constant(name: str):
    """``json.loads`` hook: NaN and Infinity are not JSON (RFC 8259)."""
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def pytest_configure(config):
    # numpy's divide-by-zero and invalid-value warnings are RuntimeWarnings;
    # in this suite every one of them is a fault
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


D3 = Sector.LEGISLATION
KINDS = tuple(RefType)  # reference type by type code
# sector, effect and expiry of a node given by its id alone
NODE_DEFAULTS = (D3, date(1970, 1, 1), SENTINEL_EXPIRY)


def make_graph(edges=(), nodes=None):
    """Graph built straight from its seven columns, not through ``ingest``.

    ``edges`` holds ``(source, target)`` pairs, typed INSTRUMENTS_CITED,
    or ``(source, target, kind)`` triples.  ``nodes`` holds ids or
    ``(id, sector, effect, expiry)`` tuples in node order; a short tuple
    takes ``NODE_DEFAULTS`` for the fields it leaves out.  Without
    ``nodes`` the nodes are the sorted endpoints of ``edges``.  Unlike
    ``ingest``, this adds no reciprocal amendment edge and checks nothing.
    """
    if nodes is None:
        nodes = sorted({end for edge in edges for end in edge[:2]})
    rows = [(node,) if isinstance(node, str) else tuple(node) for node in nodes]
    rows = [row + NODE_DEFAULTS[len(row) - 1:] for row in rows]
    index = {row[0]: i for i, row in enumerate(rows)}
    triples = [(u, v, rest[0] if rest else RefType.INSTRUMENTS_CITED)
               for u, v, *rest in edges]
    return LegislationGraph(
        [row[0] for row in rows], [row[1].value for row in rows],
        [row[2].toordinal() for row in rows],
        [row[3].toordinal() for row in rows],
        [index[u] for u, _, _ in triples], [index[v] for _, v, _ in triples],
        [reftype_code(kind) for _, _, kind in triples])


def node_rows(graph):
    """(id, sector, effect, expiry) of every node, in node order."""
    effect, expiry = (col.tolist() for col in graph.date_ordinals())
    return [(doc_id, Sector(sector), date.fromordinal(since),
             date.fromordinal(until))
            for doc_id, sector, since, until in zip(
                graph.ids, graph.sector_codes().tolist(), effect, expiry)]


def edge_triples(graph):
    """(source id, target id, type) of every edge, in edge order."""
    ids = graph.ids
    return [(ids[s], ids[d], KINDS[k])
            for s, d, k in zip(*(col.tolist() for col in graph.edge_arrays()))]


def export_text(graph):
    """The corpus text of ``graph``: its exported rows as JSONL."""
    buffer = io.StringIO()
    write_records(export(graph), buffer)
    return buffer.getvalue()


def bowtie_sets(graph, result):
    """Each bow-tie class name mapped to the frozenset of its node ids."""
    labels = result.labels.tolist()
    return {name: frozenset(doc_id for doc_id, label in zip(graph.ids, labels)
                            if label == code)
            for code, name in enumerate(COMPONENT_NAMES)}


def random_digraph(rng: np.random.Generator, n: int,
                   edges_per_node: float) -> LegislationGraph:
    """Random directed graph with ~edges_per_node * n distinct edges."""
    m_target = int(edges_per_node * n)
    refs = []
    seen = set()
    attempts = 0
    while len(seen) < m_target and attempts < 20 * m_target + 100:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        kind = KINDS[int(rng.integers(len(KINDS)))]
        if (u, v, kind) in seen:
            continue
        seen.add((u, v, kind))
        refs.append((f"n{u:04d}", f"n{v:04d}", kind))
    return make_graph(refs, [f"n{i:04d}" for i in range(n)])


def count_form(rows) -> tuple[np.ndarray, np.ndarray]:
    """The samples ``rows`` as one value-count block: row r holds
    ``np.unique(rows[r], return_counts=True)``, padded with value 0 and
    count 0 to the widest row."""
    pairs = [np.unique(row, return_counts=True) for row in rows]
    width = max(len(values) for values, _ in pairs)
    values = np.zeros((len(pairs), width), dtype=np.int64)
    counts = np.zeros_like(values)
    for r, (row_values, row_counts) in enumerate(pairs):
        values[r, :len(row_values)] = row_values
        counts[r, :len(row_counts)] = row_counts
    return values, counts


@pytest.fixture
def amendment_chain_graph():
    """One directive amended twice: 3 nodes, 4 directed amendment edges."""
    return make_graph(
        [("383L0351", "370L0220", RefType.AMENDMENT_TO),
         ("370L0220", "383L0351", RefType.AMENDED_BY),
         ("389L0491", "370L0220", RefType.AMENDMENT_TO),
         ("370L0220", "389L0491", RefType.AMENDED_BY)],
        [("370L0220", D3, date(1970, 3, 20)),
         ("383L0351", D3, date(1983, 6, 16)),
         ("389L0491", D3, date(1989, 7, 17))],
    )


AMENDMENT_CHAIN_JSONL = "\n".join([
    '{"id": "370L0220", "sector": 3, "date_of_effect": "1970-03-20", "references": []}',
    '{"id": "383L0351", "sector": 3, "date_of_effect": "1983-06-16",'
    ' "references": [{"target": "370L0220", "type": "amendment_to"}]}',
    '{"id": "389L0491", "sector": 3, "date_of_effect": "1989-07-17",'
    ' "references": [{"target": "370L0220", "type": "amendment_to"}]}',
]) + "\n"


@pytest.fixture
def amendment_chain_jsonl():
    return AMENDMENT_CHAIN_JSONL
