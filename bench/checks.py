"""Output fingerprints and their comparison with the recorded reference.

Integer and byte outputs (voxel ids, provenance tags, labels, image bytes,
chosen token rows) are hashed and must match exactly. A float array X of
shape (m, d) is reduced to two bilinear sketches w_r^T X w_c with seeded
Gaussian weights, which must match within TAU * S, S = sum|w_r| * sum|w_c| *
(rms(X) + 1):

* any per-element drift of at most TAU * (rms(X) + 1) passes, so the ~4e-14
  drift expected from reordering float64 arithmetic passes with orders of
  magnitude to spare (TAU64 = 1e-9), and so do one-ulp flips of
  float32-stored values (TAU32 = 1e-6);
* a row swapped for another (a wrong token, voxel or hint) moves a sketch by
  about sqrt(2 d) * rms(X); for the 56k x 256 float64 tokens of train-mix the
  tolerance is about 1/1000 of that, for the ~5k x 256 float32 tokens of
  cli-chain about 1/15. selftest.py checks both directions.
"""

from __future__ import annotations

import hashlib

import numpy as np

TAU64 = 1e-9
TAU32 = 1e-6


class Fingerprint:
    """Named digests and sketches of one sample's outputs."""

    def __init__(self):
        self.ints: dict[str, str] = {}
        self.floats: dict[str, list] = {}
        self.violated: list[str] = []

    def require(self, name: str, ok: bool):
        """An invariant the outputs must hold whatever the reference says."""
        if not ok:
            self.violated.append(name)

    def add_ints(self, name: str, *arrays):
        h = hashlib.sha256()
        for a in arrays:
            a = np.asarray(a)
            if a.dtype.kind == "b" or (a.dtype.kind == "u" and a.dtype.itemsize == 1):
                a = a.astype(np.uint8)
            elif a.dtype.kind in "iu":
                a = a.astype("<i8")
            elif a.dtype.kind not in "SV":
                raise TypeError(f"{name}: {a.dtype} is not an integer or byte array")
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
        self.ints[name] = h.hexdigest()[:20]

    def add_floats(self, name: str, x, tau: float = TAU64):
        x = np.asarray(x, dtype=np.float64)
        x2 = x.reshape(x.shape[0], -1) if x.ndim >= 2 and x.size else x.reshape(-1, 1)
        m, d = x2.shape
        rng = np.random.default_rng([m, d, 7])
        wr, wc = rng.standard_normal((2, m)), rng.standard_normal((2, d))
        proj = x2 @ wc.T  # (m, 2)
        vals = [float(wr[k] @ proj[:, k]) for k in range(2)]
        rms = float(np.linalg.norm(x2)) / max(x2.size, 1) ** 0.5
        scales = [float(np.abs(wr[k]).sum() * np.abs(wc[k]).sum() * (rms + 1.0)) for k in range(2)]
        self.floats[name] = [list(x.shape), vals, [float(f"{s:.4g}") for s in scales], tau]

    def to_json(self) -> dict:
        return {"ints": self.ints, "floats": self.floats}


def compare(fp: Fingerprint, ref: dict, completed: set[str]) -> tuple[list[str], int]:
    """Mismatching item names and the number of items the reference lacks.

    An item is named `<stage>.<what>`; reference items of a stage in
    `completed` must be present and equal. Items of stages the reference
    never reached (it failed earlier) are counted as unreferenced.
    """
    bad, unreferenced = list(fp.violated), 0
    for name, digest in fp.ints.items():
        want = ref["ints"].get(name)
        if want is None:
            unreferenced += 1
        elif want != digest:
            bad.append(name)
    for name, (shape, vals, _, _) in fp.floats.items():
        want = ref["floats"].get(name)
        if want is None:
            unreferenced += 1
            continue
        w_shape, w_vals, w_scales, tau = want
        if list(shape) != w_shape or any(
            not abs(v - w) <= tau * s for v, w, s in zip(vals, w_vals, w_scales)
        ):
            bad.append(name)
    for name in list(ref["ints"]) + list(ref["floats"]):
        if name.split(".")[0] in completed and name not in fp.ints and name not in fp.floats:
            bad.append(f"{name} (missing)")
    return bad, unreferenced
