"""The benchmark tracer wraps private targets by name; a rename must fail here first."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked out
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_extra_target_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    for layer in tracer.MODULES:
        importlib.import_module(f"qeuler.{layer}")
    for layer, paths in tracer.EXTRA.items():
        mod = importlib.import_module(f"qeuler.{layer}")
        for path in paths:
            owner = mod
            for part in path.split("."):
                assert hasattr(owner, part), f"qeuler.{layer}.{path}"
                owner = getattr(owner, part)
            assert callable(owner), f"qeuler.{layer}.{path}"
            # the tracer counts n! S_n permutations per cache fill of these sweeps
            if layer == "permutations":
                assert hasattr(owner, "cache_info"), f"qeuler.{layer}.{path}"
