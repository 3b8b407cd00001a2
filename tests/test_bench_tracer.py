"""The benchmark's tracer patches program attributes by name. Installing
and uninstalling it must find every one of them and put each back, so a
rename in ``ascl`` that would break ``bench/run.py --trace 1`` fails here."""

from pathlib import Path

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def test_tracer_installs_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from spans import COUNTS, SPANS, Tracer

    targets = [t for ts in SPANS.values() for t in ts] + list(COUNTS.values())
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]
    tracer = Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
