"""The benchmark reaches into cylpano by name: its span recorder wraps functions and its
workloads read token fields. Each name must exist, or a bench run fails."""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import cylpano.cli
from cylpano import formats
from cylpano.grid import CylGrid, CylGridSpec, PointCloud, voxelize
from cylpano.synth import ring_camera
from cylpano.tokens import FeatureMap, SpeParams, TokenSet, VoxelFeatures, build_tokens, spe_batch

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_SPANS = _BENCH / "spans.py"


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


def _token_fields_read_by_workloads() -> set[str]:
    """Attributes `bench/workloads.py` loads from a variable named `tokens`."""
    tree = ast.parse((_BENCH / "workloads.py").read_text())
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "tokens"}


def test_token_fields_the_workloads_read(tmp_path):
    spec = CylGridSpec(12, 8, 4, (0.0, 24.0), (-2.0, 2.0))
    rng = np.random.default_rng(0)
    n, dim = 300, 4
    xyz = np.column_stack([rng.uniform(-20, 20, (n, 2)), rng.uniform(-2, 2, n)])
    grid = voxelize(PointCloud(xyz, rng.random(n)), spec)
    params = SpeParams.create(spec, dim=dim, seed=0)
    cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
    fmaps = [FeatureMap(rng.standard_normal((8, 8, dim)).astype(np.float32), 32, 32)]
    tokens = build_tokens(grid, VoxelFeatures.stats_placeholder(grid, dim, 0), fmaps, [cam], params)
    # the train-mix fingerprint reads all four; seed-queries keys its rows on `spe`
    for name in {"content", "spe", "flat_ids", "image_valid"} | _token_fields_read_by_workloads():
        assert getattr(tokens, name) is not None, name
    assert tokens.content.dtype == np.float32
    assert np.array_equal(tokens.spe, spe_batch(tokens.indices3, spec, params))

    # a set read back from TOK2, as the queries command rebuilds it, carries no embedding
    formats.write_tokens(tmp_path / "t.toks", tokens)
    idx3, content = formats.read_tokens(tmp_path / "t.toks", spec)
    read = TokenSet(spec, spec.flatten(idx3), content)
    assert read.spe is None
    assert np.array_equal(read.flat_ids, tokens.flat_ids) and np.array_equal(read.content, tokens.content)
