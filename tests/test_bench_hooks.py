"""The benchmark's span recorder wraps cylpano functions by name; each name must exist."""

import importlib.util
import sys
from pathlib import Path

import pytest

import cylpano.cli
from cylpano.grid import CylGrid, CylGridSpec
from cylpano.tokens import VoxelFeatures

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module, name", [(mod, fn) for mod, fns in spans.LAYERS.items() for fn in fns if fn != "stats_placeholder"]
)
def test_layer_functions_exist(module, name):
    assert callable(getattr(importlib.import_module(f"cylpano.{module}"), name))


@pytest.mark.parametrize("name", sorted(spans.CLI_STAGES))
def test_cli_stage_commands_exist(name):
    assert callable(getattr(cylpano.cli, name))


def test_methods_the_counters_use_exist():
    assert "stats_placeholder" in spans.LAYERS["tokens"]
    assert isinstance(VoxelFeatures.__dict__["stats_placeholder"], classmethod)
    assert callable(CylGrid.row_of)
    # the nearest-row counter calls both; `voxelize` no longer does
    assert callable(CylGridSpec.bin_points) and callable(CylGridSpec.flatten)

