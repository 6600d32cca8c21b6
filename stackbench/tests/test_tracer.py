import numpy as np
import pytest

from stackbench.tracer import Tracer


def _originals(tracer):
    return [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracer._targets()]


def test_uninstall_restores_every_original():
    tracer = Tracer()
    before = _originals(tracer)
    assert len(before) == 21 + 9
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    tracer.uninstall()  # idempotent
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_failed_install_leaves_nothing_wrapped(monkeypatch):
    tracer = Tracer()
    before = _originals(tracer)
    targets = tracer._targets()
    broken = targets[:5] + [(object, "no_such_attribute", "x", "sync", None)]
    monkeypatch.setattr(tracer, "_targets", lambda: broken)
    with pytest.raises(AttributeError):
        tracer.install()
    assert not tracer.installed
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_spans_nest_and_record_outermost_sampling_only():
    from repro.datasets.synthetic import uniform_points
    from repro.manager import SessionManager

    rng = np.random.default_rng(1)
    r_points, s_points = uniform_points(300, rng), uniform_points(300, rng)
    tracer = Tracer()
    with SessionManager() as manager:
        handle = manager.open("a", r_points, s_points, 500.0, algorithm="bbst")
        tracer.install()
        try:
            handle.draw_batch([(10, 1), (10, 2)])
        finally:
            tracer.uninstall()
        handle.draw_batch([(10, 3)])  # after uninstall: not recorded
    by_id = {span[0]: span for span in tracer.spans}
    names = [span[2] for span in tracer.spans]
    assert names.count("manager.draw_batch") == 1
    batch = next(span for span in tracer.spans if span[2] == "manager.draw_batch")
    assert batch[5] == {"seeds": [1, 2]}
    # Two requests -> two outermost sample spans, although the dynamic
    # wrapper re-enters sample() on the concrete sampler.
    samples = [span for span in tracer.spans if span[2] == "sampler.sample"]
    assert len([s for s in samples if by_id[s[1]][2] == "session.draw_batch"]) == 2
    for span in tracer.spans:
        if span[1] is not None:
            parent = by_id[span[1]]
            assert parent[3] <= span[3] <= span[4] <= parent[4]
    assert any(name.startswith("kernels.") for name in names)
