"""The benchmark's tracer must still find every library function it wraps.

``bench/tracing.Tracer.install`` looks each target up by name, so deleting
or renaming one of them breaks ``bench/run.py --trace 1``; this test fails
first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from spexlab import cli, graph, search
from spexlab.graph import complete, path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_library():
    tracing = _load_tracing()
    g = path(3)
    before = dict(vars(graph.Graph))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        g.relabel([2, 1, 0])
    finally:
        tracer.uninstall()
    assert dict(vars(graph.Graph)) == before
    assert [span[2] for span in tracer.spans] == [tracing.GRAPH_DERIVE]


def test_tracer_sees_every_class_check(capsys):
    # the class checks of search and of the CLI reach the recognizers
    # through recognition's module globals, which the tracer rebinds
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert search._reject(complete(5), "outerplanar", None) == "quick_reject"
        rejected = [span[2] for span in tracer.take()[0]]
        assert cli.main(["check", "--family", "wheel:n=8", "--class", "planar"]) == 0
        checked = [span[2] for span in tracer.take()[0]]
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.strip() == "planar=True"
    assert rejected == ["recognition.outerplanar"]
    # the planar check and, inside it, the outerplanar one of g - v
    assert [name for name in checked if name.startswith("recognition.")] == [
        "recognition.outerplanar", "recognition.planar"
    ]
