"""Extraction-policy (mode dispatch) tests: every policy produces the
same span sequence through the Ray pipeline, its extraction stage run
in-process, and the sequential oracle — including the 'multi' fan-out whose sub-span order must survive the
parallel explode/reassemble path."""

import pyarrow as pa
import pytest

from ollama_ocr_ray import oracle, synth
from ollama_ocr_ray.pipelines.extract import FusedExtractor, auto_pipeline
from ollama_ocr_ray.spec import POLICY_MODES, mode_transcript, register_policy


def _spans_of(ds):
    tables = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    return _table_spans(pa.concat_tables(tables))


def _table_spans(t):
    return {
        r["doc_id"]: [
            (s["kind"], s["text"], s["media_ref"], s["order"])
            for s in r["spans"]
        ]
        for r in t.to_pylist()
    }


@pytest.mark.parametrize("policy", POLICY_MODES)
def test_policy_three_way_equality(ray_session, policy):
    import ray.data as rd

    table = synth.gen_table(60, seed=9)
    want = oracle.extract_corpus(table, policy)
    _, out = auto_pipeline(rd.from_arrow(table), plan="fused",
                           policy=policy, ocr_concurrency=2)
    got_f = _spans_of(out)
    got_local = _table_spans(FusedExtractor(policy=policy)(table))
    assert got_f == want
    assert got_local == want


def test_multi_policy_fans_out():
    outs = mode_transcript("media://d/3", "multi")
    assert len(outs) == 3
    assert outs[0].startswith("[description]")
    assert outs[1].startswith("[text]")
    assert outs[2].startswith("[objects]")


def test_structured_policy_is_json():
    import json

    (payload,) = mode_transcript("media://d/3", "structured")
    obj = json.loads(payload)
    assert set(obj) == {"store_name", "total_amount", "date", "items"}
    assert obj["total_amount"] == round(
        sum(i["price"] * i["quantity"] for i in obj["items"]), 2
    )


def test_unknown_mode_fails_fast():
    """An unknown policy NAME is a job-configuration error: it raises at
    resolution/actor construction, rather than silently tagging every
    media span kind='ocr' with error text (n_errors would stay 0 and a
    misconfigured run would look clean)."""
    from ollama_ocr_ray.stages.ocr import OcrModel

    with pytest.raises(ValueError, match="unknown extraction mode"):
        mode_transcript("media://d/3", "no-such-mode")
    with pytest.raises(ValueError, match="unknown extraction mode"):
        OcrModel(policy="strucutred")  # typo'd name caught at __init__


def test_callable_policy_extension(ray_session):
    """Custom policies ship as callables (driver-side register_policy
    does not reach worker processes — documented in spec.py).  The
    callable must be defined somewhere workers can deserialize it: a
    closure/lambda (pickled by value) or an importable library module —
    NOT a module-level function of a pytest test file (pickled by
    reference to a module workers cannot import; actors crash-loop)."""
    import ray.data as rd

    def _shout(ref):
        return [f"LOUD:{ref}"]

    table = synth.gen_table(10, seed=3)
    want = oracle.extract_corpus(table, _shout)
    _, out = auto_pipeline(rd.from_arrow(table), plan="fused",
                           policy=_shout, ocr_concurrency=2)
    got = _spans_of(out)
    assert got == want
    assert any(
        s[1].startswith("LOUD:") for spans in got.values() for s in spans
        if s[0] == "ocr"
    )


def test_register_policy_local():
    register_policy("shout", lambda ref: [f"LOUD:{ref}"])
    try:
        assert mode_transcript("m1", "shout") == ["LOUD:m1"]
    finally:
        from ollama_ocr_ray.spec import _POLICIES

        _POLICIES.pop("shout", None)


def test_structured_receipts_view(ray_session):
    """Typed view parses every structured media span into receipt
    columns; count equals the non-corrupt media span count."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ollama_ocr_ray.pipelines.extract import structured_receipts

    table = synth.gen_table(40, seed=11)
    _, extracted = auto_pipeline(rd.from_arrow(table), plan="fused",
                                 policy="structured", ocr_concurrency=2)
    out = structured_receipts(extracted)
    t = pa.concat_tables(
        list(out.iter_batches(batch_size=None, batch_format="pyarrow"))
    )
    flat = pc.list_flatten(table.column("spans")).combine_chunks()
    kinds = pc.struct_field(flat, "kind").to_pylist()
    refs = pc.struct_field(flat, "media_ref").to_pylist()
    n_media_ok = sum(
        1 for k, r in zip(kinds, refs)
        if k == "media" and not r.endswith("#corrupt")
    )
    assert t.num_rows == n_media_ok
    assert (pc.min(t.column("total_amount")).as_py() or 0) >= 0
