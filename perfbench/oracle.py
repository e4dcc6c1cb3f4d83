"""Output checks: served answers against an independent in-process oracle.

The oracle never reads the served CSV.  It rebuilds the rows from the
seed (base rows plus every acknowledged batch), then answers each
check key with :func:`repro.baselines.naive.naive_compare` for the
paper measure, or a :class:`repro.core.Comparator` over a fresh
:class:`repro.cube.CubeStore` for every other measure.  Served scores
must match to 1e-9 (relative above 1); ``null`` is accepted only where
the oracle's value is non-finite, which is the server's strict-JSON
encoding of it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.baselines.naive import naive_compare
from repro.core import Comparator
from repro.core.measures import DEFAULT_MEASURE
from repro.cube import CubeStore
from repro.dataset.table import Dataset

TOLERANCE = 1e-9


def expected(data: Dataset, keys: Sequence[tuple]) -> List[Dict[str, object]]:
    """Oracle answers for ``keys``; JSON-safe so they can be cached."""
    comparator = Comparator(CubeStore(data))
    answers = []
    for pivot, a, b, target, measure in keys:
        if measure == DEFAULT_MEASURE:
            result = naive_compare(data, pivot, a, b, target)
        else:
            result = comparator.compare(pivot, a, b, target, measure=measure)
        explained = result.ranked[0].attribute if result.ranked else None
        explanation = (
            Comparator.explain_result(result, explained, measure=measure)
            if explained is not None
            else None
        )
        answers.append(
            {
                "value_good": result.value_good,
                "value_bad": result.value_bad,
                "cf_good": result.cf_good,
                "cf_bad": result.cf_bad,
                "ranking": [[e.attribute, _finite(e.score)] for e in result.ranked],
                "properties": [
                    [e.attribute, _finite(e.score)]
                    for e in result.property_attributes
                ],
                "explain": None
                if explanation is None
                else {
                    "attribute": explained,
                    "rank": explanation.rank,
                    "out_of": explanation.out_of,
                    "score": _finite(explanation.score),
                    "score_share": _finite(explanation.score_share),
                },
            }
        )
    return answers


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def _close(served: object, want: Optional[float]) -> bool:
    if want is None or served is None:
        return served is None and want is None
    if not isinstance(served, (int, float)):
        return False
    return abs(served - want) <= TOLERANCE * max(1.0, abs(want))


def _ranking_matches(
    served: Sequence[tuple], want: Sequence[tuple], scores=None
) -> bool:
    """Same scores in order, and each served name scores as the oracle
    says (``scores`` covers ties that straddle a truncated prefix)."""
    if len(served) != len(want):
        return False
    scores = dict(want) if scores is None else scores
    for (name, score), (_, want_score) in zip(served, want):
        if name not in scores or not _close(score, scores[name]):
            return False
        if not _close(score, want_score):
            return False
    return True


def mismatches(
    key: tuple, answer: Dict[str, object], served: Dict[str, dict]
) -> List[str]:
    """Differences between the served compare/rank/explain and ``answer``."""
    problems = []
    compare, rank, explain = served["compare"], served["rank"], served["explain"]
    for label, body in (("compare", compare), ("rank", rank)):
        if body.get("value_good") != answer["value_good"] or not (
            _close(body.get("cf_good"), answer["cf_good"])
            and _close(body.get("cf_bad"), answer["cf_bad"])
        ):
            problems.append(f"{label} {key}: orientation/confidences differ")
    ranked = [(e["attribute"], e["score"]) for e in compare.get("ranked", [])]
    if not _ranking_matches(
        ranked, answer["ranking"][: len(ranked)], dict(answer["ranking"])
    ) or (
        len(ranked) != min(10, len(answer["ranking"]))
    ):
        problems.append(f"compare {key}: top-10 ranking differs")
    props = [
        (e["attribute"], e["score"])
        for e in compare.get("property_attributes", [])
    ]
    if not _ranking_matches(props, answer["properties"]):
        problems.append(f"compare {key}: property attributes differ")
    full = [(e["attribute"], e["score"]) for e in rank.get("ranking", [])]
    if not _ranking_matches(full, answer["ranking"]):
        problems.append(f"rank {key}: full ranking differs")
    want = answer["explain"]
    if want is not None:
        same = (
            explain.get("attribute") == want["attribute"]
            and explain.get("rank") == want["rank"]
            and explain.get("out_of") == want["out_of"]
            and _close(explain.get("score"), want["score"])
            and _close(explain.get("score_share"), want["score_share"])
        )
        if not same:
            problems.append(f"explain {key}: explanation differs")
    return problems


def check(client, keys: Sequence[tuple], answers) -> List[str]:
    """Ask the server for every check key; return all mismatches."""
    problems = []
    for key, answer in zip(keys, answers):
        pivot, a, b, target, measure = key
        served = {
            "compare": client.compare(
                pivot, a, b, target, measure=measure, top=10
            ),
            "rank": client.rank(pivot, a, b, target, measure=measure),
            "explain": {},
        }
        if answer["explain"] is not None:
            served["explain"] = client.explain(
                pivot, a, b, target, answer["explain"]["attribute"],
                measure=measure,
            )
        problems.extend(mismatches(key, answer, served))
    return problems
