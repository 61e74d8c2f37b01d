from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from legisnet import (
    LegalDocument,
    LegislationGraph,
    Reference,
    RefType,
    Sector,
    build_graph,
)

D3 = Sector.LEGISLATION


def doc(doc_id, sector=D3, effect=date(1970, 1, 1), expiry=None):
    if expiry is None:
        return LegalDocument(doc_id, sector, effect)
    return LegalDocument(doc_id, sector, effect, expiry)


def quick_graph(edges, n_extra=0, kind=RefType.INSTRUMENTS_CITED):
    """Graph from (source, target) pairs over auto-created documents."""
    names = sorted({u for u, _ in edges} | {v for _, v in edges})
    names += [f"z-iso{i}" for i in range(n_extra)]
    return build_graph(
        (doc(name) for name in names),
        (Reference(u, v, kind) for u, v in edges),
    )


def random_digraph(rng: np.random.Generator, n: int,
                   edges_per_node: float) -> LegislationGraph:
    """Random directed graph with ~edges_per_node * n distinct edges."""
    m_target = int(edges_per_node * n)
    refs = []
    seen = set()
    kinds = list(RefType)
    attempts = 0
    while len(seen) < m_target and attempts < 20 * m_target + 100:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        kind = kinds[int(rng.integers(len(kinds)))]
        if (u, v, kind) in seen:
            continue
        seen.add((u, v, kind))
        refs.append(Reference(f"n{u:04d}", f"n{v:04d}", kind))
    return build_graph((doc(f"n{i:04d}") for i in range(n)), refs)


@pytest.fixture
def amendment_chain_graph():
    """One directive amended twice: 3 nodes, 4 directed amendment edges."""
    return build_graph(
        [doc("370L0220", effect=date(1970, 3, 20)),
         doc("383L0351", effect=date(1983, 6, 16)),
         doc("389L0491", effect=date(1989, 7, 17))],
        [Reference("383L0351", "370L0220", RefType.AMENDMENT_TO),
         Reference("370L0220", "383L0351", RefType.AMENDED_BY),
         Reference("389L0491", "370L0220", RefType.AMENDMENT_TO),
         Reference("370L0220", "389L0491", RefType.AMENDED_BY)],
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
