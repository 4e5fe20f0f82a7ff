"""The per-layer metrics in BENCHMARK.json name functions the benchmark's
tracer can wrap: each ``<layer>.<function>.*`` must be in
``reconkit.<layer>.__all__``, so a refactor cannot drop one unnoticed."""

import importlib
import json
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_metrics_name_public_functions():
    names = [entry["name"] for entry in json.loads(SPEC.read_text())["per_layer"]]
    assert names
    for name in names:
        if name.startswith("trace."):
            continue
        layer, function, _metric = name.split(".", 2)
        module = importlib.import_module(f"reconkit.{layer}")
        if name.startswith("decks.Deck.items."):
            assert callable(module.Deck.items)
            continue
        assert function in module.__all__, name
        assert callable(getattr(module, function)), name
