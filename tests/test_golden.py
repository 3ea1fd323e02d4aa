"""The CI city's BLAS-free artifacts against their digests in ``golden.json``
(see ``golden.py``, which also rewrites them)."""

import json

import golden


def test_artifacts_match_their_golden_digests(tmp_path):
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    digests = golden.build(tmp_path)
    assert sorted(digests) == sorted(expected)
    assert [name for name in expected if digests[name] != expected[name]] == []
