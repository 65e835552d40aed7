"""The benchmark's traced run wraps ``defex`` functions by name; a renamed
or removed target would make its per-layer metrics read 0.  This installs
the tracer as ``zedbench/run.py`` does and checks every target is found."""

from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "zedbench"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans

    return spans


def test_every_trace_target_exists(spans):
    from defex import encoder

    original = encoder.DualEncoderModel.__dict__["fingerprint"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert encoder.DualEncoderModel.__dict__["fingerprint"] is not original
    finally:
        tracer.uninstall()
    assert encoder.DualEncoderModel.__dict__["fingerprint"] is original
