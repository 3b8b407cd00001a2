"""The benchmark's tracer patches program attributes by name. Installing
and uninstalling it must find every one of them and put each back, so a
rename in ``ascl`` that would break ``bench/run.py --trace 1`` fails here.
Its wrappers must also pass every return value through, or a traced run
computes something else."""

from pathlib import Path

import ascl.training
from ascl.config import RunConfig
from ascl.models import MLPClassifier

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


def _input_gradient_and_one_step():
    """Bytes of an input gradient, then of every weight after one training step."""
    cfg = RunConfig(dataset="moons", data_size=20, hidden_layers=(4,), batch_size=10,
                    train_steps=2)
    train_ds, _ = cfg.build_datasets()
    model = MLPClassifier(cfg.model_spec(train_ds.dim, train_ds.num_classes), seed=1)
    x, y = train_ds.features[:10], train_ds.labels[:10]
    out = [model.input_gradient(x, y).tobytes()]
    # looked up on the module, where the tracer patches it
    ascl.training.train_step(model, ascl.training.Adam(model.parameters, lr=cfg.lr), x, y, cfg,
                             step_seed=(1,))
    return out + [p.data.tobytes() for p in model.parameters]


def test_traced_gradients_and_step_equal_untraced(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from spans import Tracer

    want = _input_gradient_and_one_step()
    tracer = Tracer()
    try:
        tracer.install()
        got = _input_gradient_and_one_step()
    finally:
        tracer.uninstall()
    assert got == want
    assert tracer.calls("training.optimizer_step") == 1
    # the step's own backward alone: the input gradient and the step's PGD-2
    # run MLPClassifier.input_gradient, which does not walk the engine
    assert tracer.calls("tensor.backward") == 1
