"""The paper suite: all twelve reproduction checks pass at seed 0.

This runs suite.run_all(0) at its full size; it is the slowest test of the
tier, about half a minute.
"""

from jorder import serialize, suite

from json_oracle import oracle_canon_json


def test_run_all_seed_0_passes_every_check():
    out = suite.run_all(0)
    assert [row["id"] for row in out["checks"]] == list(range(1, 13))
    failed = [(row["id"], row["name"], row["details"]) for row in out["checks"] if not row["passed"]]
    assert failed == []
    assert out["all_passed"] is True
    # the suite's certificate documents and its report rows are written byte for byte as json.dumps writes them
    docs = [serialize.certificate_doc(cert) for row in out["checks"] for _, cert, _ in row["_certificates"]]
    assert len(docs) == 16
    docs.append([{k: v for k, v in row.items() if not k.startswith("_")} for row in out["checks"]])
    for doc in docs:
        assert serialize.canon_json(doc) == oracle_canon_json(doc)
