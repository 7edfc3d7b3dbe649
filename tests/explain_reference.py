"""explain.json as it was written before rows were grouped by world: one
explain_batch report per row, copied into nested dicts and encoded by one
indented json.dumps. Kept verbatim as the reference the grouped writer is
checked against byte for byte."""

from __future__ import annotations

import json

from logicood import mln


def _explanations(model, data) -> list:
    return [
        {
            "__id": sid,
            "total_score": report.total_score,
            "constraints": [
                {
                    "id": e.constraint_id,
                    "constraint": e.source,
                    "satisfied": e.satisfied,
                    "weight": e.weight,
                    "contribution": e.contribution,
                }
                for e in report.entries
            ],
        }
        for sid, report in zip(data.sample_ids, mln.explain_batch(model, data.vectors))
    ]


def explain_json(model, data) -> str:
    """The text artifacts.write_json wrote for the explanations."""
    return json.dumps(_explanations(model, data), indent=2) + "\n"
