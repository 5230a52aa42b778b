"""Synthetic stand-ins for the paper's datasets, at a scale factor.

The paper evaluates on the SNAP Epinions graph and LDBC-SNB SF1. The
container is offline, so we generate synthetic equivalents (DESIGN.md
documents the substitution): a Zipf-endpoint digraph reproduces the
skewed-degree hop joins; SNB-lite reproduces the 5-relation FK schema
with timestamps for time-based FIFO windows. Generators are
deterministic in ``seed`` so the DuckDB oracle sees identical input.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


_N_GRAPH_EDGES_PER_SF = 500_000  # Epinions ≈ 508K edges
_N_GRAPH_NODES_PER_SF = 76_000

_SNB_PERSON_PER_SF = 5_000
_SNB_KNOWS_PER_SF = 50_000
_SNB_MESSAGE_PER_SF = 100_000
_SNB_TAG_PER_SF = 1_000
_SNB_MESSAGE_TAG_PER_SF = 150_000


def graph_edges_pdf(*, sf: float = 0.01, seed: int = 7) -> pd.DataFrame:
    """Directed power-law graph as a pandas edge list (src, dst).

    Endpoints are Zipf-distributed (exponent 1.2) over the node set,
    self-loops and duplicate edges removed — the degree-skew stand-in
    for Epinions.
    """
    n_edges = max(4, int(_N_GRAPH_EDGES_PER_SF * sf))
    n_nodes = max(4, int(_N_GRAPH_NODES_PER_SF * sf))
    g = _rng(seed)
    ranks = np.arange(1, n_nodes + 1)
    w = 1.0 / ranks**1.2
    w /= w.sum()
    # oversample in rounds to survive dedup/self-loop removal (Zipf
    # endpoints collide heavily); stops early once n_edges distinct
    pdf = pd.DataFrame({"src": [], "dst": []})
    for _ in range(8):
        m = int(n_edges * 2) + 8
        src = g.choice(ranks, size=m, p=w)
        dst = g.choice(ranks, size=m, p=w)
        batch = pd.DataFrame({"src": src, "dst": dst})
        pdf = pd.concat([pdf, batch[batch.src != batch.dst]]).drop_duplicates()
        if len(pdf) >= n_edges:
            break
    return (
        pdf.head(n_edges).reset_index(drop=True).astype({"src": "int64", "dst": "int64"})
    )


def snb_tables_pdf(*, sf: float = 0.01, seed: int = 11) -> dict[str, pd.DataFrame]:
    """LDBC-SNB-lite: person/knows/tag/message/message_tag (DESIGN.md).

    FK structure matches the benchmark queries: knows(person1→person2),
    message.creator→person, message_tag bridges message↔tag. Messages
    carry an insertion timestamp (days) and a nullable reply-of id
    (~30% replies), so ``m_c_replyof IS NULL`` filters are exercised.
    """
    g = _rng(seed)
    n_person = max(3, int(_SNB_PERSON_PER_SF * sf))
    n_knows = max(3, int(_SNB_KNOWS_PER_SF * sf))
    n_msg = max(3, int(_SNB_MESSAGE_PER_SF * sf))
    n_tag = max(2, int(_SNB_TAG_PER_SF * sf))
    n_mt = max(3, int(_SNB_MESSAGE_TAG_PER_SF * sf))
    person = pd.DataFrame(
        {
            "p_personid": np.arange(1, n_person + 1),
            "p_firstname": [f"fn{i % 97}" for i in range(n_person)],
            "p_lastname": [f"ln{i % 89}" for i in range(n_person)],
        }
    )
    knows = pd.DataFrame(
        {
            "k_person1id": g.integers(1, n_person + 1, n_knows),
            "k_person2id": g.integers(1, n_person + 1, n_knows),
            "k_ts": np.sort(g.uniform(0, 365, n_knows)).round(4),
        }
    ).drop_duplicates(["k_person1id", "k_person2id"]).reset_index(drop=True)
    replyof = g.integers(1, n_msg + 1, n_msg).astype("float64")
    replyof[g.random(n_msg) < 0.7] = np.nan  # ~70% root messages
    message = pd.DataFrame(
        {
            "m_messageid": np.arange(1, n_msg + 1),
            "m_creatorid": g.integers(1, n_person + 1, n_msg),
            "m_c_replyof": replyof,
            "m_ts": np.sort(g.uniform(0, 365, n_msg)).round(4),
        }
    )
    tag = pd.DataFrame(
        {
            "t_tagid": np.arange(1, n_tag + 1),
            "t_name": [f"tag{i}" for i in range(1, n_tag + 1)],
        }
    )
    message_tag = pd.DataFrame(
        {
            "mt_messageid": g.integers(1, n_msg + 1, n_mt),
            "mt_tagid": g.integers(1, n_tag + 1, n_mt),
        }
    ).drop_duplicates().reset_index(drop=True)
    message_tag["mt_ts"] = message.set_index("m_messageid").loc[
        message_tag.mt_messageid, "m_ts"
    ].to_numpy()
    return {
        "person": person,
        "knows": knows,
        "tag": tag,
        "message": message,
        "message_tag": message_tag,
    }
