"""Golden digests: every file two small in-process chains write, against a committed table of sha256 digests.

Chain `default` runs the default config; chain `forced` forces every augment
strategy and every global transform, bilinear sampling and the `density`
heatmap. Each runs synth twice, then voxelize, augment, fuse, queries with
`--masks` and `--classes`, and eval, all through `cli.main` in this process.
The table holds the sha256 of each file written, and of each manifest the
`outputs` and `counters` (timings and paths vary from run to run).

A change that means to change an artifact updates the table in the same
commit, by running this file as a script, and says which digests changed and
why; a change that claims byte identity leaves the table as it is. numpy's
version is stored with the table, and a mismatch names both versions.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from cylpano.cli import main
from cylpano.config import PipelineConfig, save_config

TABLE = Path(__file__).with_name("golden_digests.json")


def _configs() -> dict[str, tuple[PipelineConfig, int]]:
    """Chain name -> (its config, the seed of its first scene)."""
    forced = PipelineConfig()
    forced.augment = dataclasses.replace(forced.augment, p_instance=1.0, p_height_swap=1.0, p_angle_swap=1.0,
                                         rotation_range=0.5, flip_prob=1.0, scale_range=(0.9, 1.1))
    forced.tokens.bilinear = True
    forced.queries.heatmap_mode = "density"
    return {"default": (PipelineConfig(), 0), "forced": (forced, 2)}


def run_chains(root: Path) -> dict:
    """{"files": {chain/path: sha256}, "manifests": {chain/path: {"outputs", "counters"}}} of the chains under `root`."""
    files, manifests = {}, {}
    for name, (cfg, seed) in _configs().items():
        config, out = str(root / f"{name}.cfg"), root / name
        save_config(config, cfg)
        org, new, aug = (str(out / d) for d in ("org", "new", "aug"))
        chain = [
            ["synth", "--config", config, "--seed", str(seed), "--out", org],
            ["synth", "--config", config, "--seed", str(seed + 1), "--out", new],
            ["voxelize", "--config", config, "--cloud", f"{org}/cloud.plcd", "--out", str(out / "vox")],
            ["augment", "--config", config, "--seed", str(seed), "--org", org, "--new", new, "--out", aug],
            ["fuse", "--config", config, "--sample", aug, "--out", str(out / "fuse")],
            ["queries", "--config", config, "--sample", aug, "--tokens", str(out / "fuse" / "tokens.toks"),
             "--masks", f"{org}/masks", "--classes", f"{org}/classes.cfg", "--out", str(out / "queries")],
            ["eval", "--pred", f"{aug}/cloud.plcd", "--gt", f"{aug}/cloud.plcd", "--classes", f"{org}/classes.cfg",
             "--report", str(out / "eval" / "report.json")],
        ]
        assert [main(argv) for argv in chain] == [0] * len(chain), name
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            key = f"{name}/{path.relative_to(out).as_posix()}"
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                manifests[key] = {"outputs": manifest["outputs"], "counters": manifest["counters"]}
            else:
                files[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"files": files, "manifests": manifests}


def test_every_artifact_matches_the_golden_table(tmp_path):
    table = json.loads(TABLE.read_text())
    got = run_chains(tmp_path)
    changed = [key for part in ("files", "manifests")
               for key in sorted(table[part].keys() | got[part].keys()) if table[part].get(key) != got[part].get(key)]
    assert not changed, (f"differ from {TABLE.name}: {', '.join(changed)} "
                         f"(table taken with numpy {table['numpy']}, this run with numpy {np.__version__})")


if __name__ == "__main__":  # re-record the table from this checkout's code
    with tempfile.TemporaryDirectory() as tmp:
        table = {"numpy": np.__version__, **run_chains(Path(tmp))}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
