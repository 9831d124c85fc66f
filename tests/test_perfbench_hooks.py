"""perfbench's trace hooks must all attach to the package under src/.

perfbench finds each per-layer span by module and attribute name, so a
rename in io, detector, filter or trackman would silently drop a metric.
"""
from pathlib import Path

import sparsetrack

ROOT = Path(__file__).resolve().parents[1]


def test_every_perfbench_hook_resolves_in_src(monkeypatch):
    assert Path(sparsetrack.__file__).resolve().is_relative_to(ROOT / "src")
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import HOOKS, Tracer

    tracer = Tracer()
    with tracer.installed():
        pass
    assert len(HOOKS) > 0
    assert tracer.missing == []
