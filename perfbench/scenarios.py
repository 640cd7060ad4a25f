"""The benchmark workloads: seeded inputs, request streams and the
server each one runs against.

Every input is a synthetic scene from :func:`repro.hsi.generate_scene`
seeded from the benchmark's ``--seed``; the server receives only the
generated cubes and request parameters.  Scene generation is never
timed: ``mix-durable`` generates its scenes before set-up, and the
single-client workloads generate each scene as its request is drawn,
with the window's clock stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.hsi import SceneParams, generate_scene

#: Bands asked of the generator; 28 survive the water-band cut.
BAND_COUNT = 32
#: Endmembers/classes of every AMC request (must not exceed the bands).
N_CLASSES = 8


@dataclass(frozen=True)
class Request:
    """One submission: which workload, on which cube, with which params."""

    workload: str
    cube: np.ndarray
    params: dict
    label: str                   # scene/workload id, for the report


def scene_cube(lines: int, samples: int, seed: int) -> np.ndarray:
    """One generated scene as a C-contiguous (H, W, N) float32 cube."""
    scene = generate_scene(SceneParams(lines=lines, samples=samples,
                                       band_count=BAND_COUNT, seed=seed,
                                       min_field=5))
    return np.ascontiguousarray(scene.cube.as_bip())


def scene_seed(seed: int, stream: int, index: int) -> int:
    """Distinct generator seeds per (run seed, input stream, index)."""
    return (seed * 1_000_003 + stream * 100_003 + index) % (2 ** 32)


class RequestSource:
    """A seeded, deterministic request sequence shared by all clients.

    ``make(i)`` builds request ``i`` from the seed and ``i`` alone, so a
    request can be rebuilt after the window (for the correctness
    re-runs) instead of being kept.
    """

    def __init__(self, make) -> None:
        self.make = make
        self._next = 0

    def reset(self) -> None:
        """Restart the sequence from its first request."""
        self._next = 0

    def next(self) -> tuple[int, Request]:
        i = self._next
        self._next += 1
        return i, self.make(i)


@dataclass
class Scenario:
    """One benchmark workload.

    ``warmup`` requests run during set-up, concurrently (so every
    executor thread builds its pipelines); ``source`` feeds the timed
    window; ``shape`` is the cube size every request uses.  With
    ``generates_inputs`` each request generates its scene when it is
    drawn, and the window's clock stops meanwhile (one client only, so
    nothing else runs while it is stopped).
    """

    name: str
    clients: int
    workers: int
    durable: bool
    shape: tuple[int, int, int]
    warmup: list[Request]
    source: RequestSource
    sample: int                          # direct re-runs for correctness
    generates_inputs: bool = False
    notes: dict = field(default_factory=dict)


def _cold_amc(name: str, seed: int, *, lines: int, params: dict,
              sample: int) -> Scenario:
    """A stream of distinct scenes, one AMC request each (all cold)."""
    def make(i: int) -> Request:
        return Request("amc", scene_cube(lines, lines,
                                         scene_seed(seed, 1, i)),
                       dict(params), f"scene-{i}")

    warmup = [Request("amc", scene_cube(lines, lines, scene_seed(seed, 0, 0)),
                      dict(params), "warm-0")]
    bands = warmup[0].cube.shape[2]
    return Scenario(name=name, clients=1, workers=1, durable=False,
                    shape=(lines, lines, bands), warmup=warmup,
                    source=RequestSource(make), sample=sample,
                    generates_inputs=True,
                    notes={"params": params, "distinct_scenes": True})


#: mix-durable popularity: ``MIX_KEYS`` live (scene, workload) keys with
#: Zipf exponent ``MIX_ZIPF``; every ``MIX_NEW_EVERY`` requests a new
#: key becomes the most popular and every older key drops one rank.
MIX_KEYS = 200
MIX_ZIPF = 1.0
MIX_NEW_EVERY = 8
MIX_LINES = 32
MIX_WORKLOADS = ("amc", "sam", "cem", "rx", "pca")


def _mix_params(workload: str, cube: np.ndarray) -> dict:
    if workload == "amc":
        return {"n_classes": N_CLASSES, "se_radius": 2}
    if workload in ("sam", "cem"):
        # the first pixel's spectrum is the target to detect
        return {"target": tuple(float(v) for v in cube[0, 0])}
    return {}


def _mix_durable(seed: int, seconds: float, rate_cap: float) -> Scenario:
    """Seeded Zipf-like popularity over (scene, workload) keys that
    drifts: new keys arrive hot and cool as they age, so executions,
    memory hits and disk hits (of keys the 64-entry memory tier has
    evicted) keep the same mix for the whole window.

    The scenes the first ``seconds * rate_cap`` requests touch are
    generated here; a faster program that gets further generates the
    rest inside the window (one 32x32 scene per 40 requests).
    """
    draws = math.ceil(seconds * rate_cap)
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, MIX_KEYS + 1) ** MIX_ZIPF
    ranks = rng.choice(MIX_KEYS, size=draws, p=weights / weights.sum())
    n_wl = len(MIX_WORKLOADS)
    cubes: dict[int, np.ndarray] = {}

    def cube_of(scene: int) -> np.ndarray:
        if scene not in cubes:
            cubes[scene] = scene_cube(MIX_LINES, MIX_LINES,
                                      scene_seed(seed, 1, scene))
        return cubes[scene]

    def make(i: int) -> Request:
        key = i // MIX_NEW_EVERY + MIX_KEYS - 1 - int(ranks[i % draws])
        scene, workload = key // n_wl, MIX_WORKLOADS[key % n_wl]
        cube = cube_of(scene)
        return Request(workload, cube, _mix_params(workload, cube),
                       f"scene-{scene}/{workload}")

    for scene in range(((draws - 1) // MIX_NEW_EVERY + MIX_KEYS) // n_wl + 1):
        cube_of(scene)
    warm_cubes = [scene_cube(MIX_LINES, MIX_LINES, scene_seed(seed, 0, i))
                  for i in range(2)]
    warmup = [Request(w, cube, _mix_params(w, cube), f"warm-{j}/{w}")
              for w in MIX_WORKLOADS for j, cube in enumerate(warm_cubes)]
    return Scenario(name="mix-durable", clients=2, workers=2, durable=True,
                    shape=warm_cubes[0].shape, warmup=warmup,
                    source=RequestSource(make), sample=10,
                    notes={"live_keys": MIX_KEYS, "zipf_exponent": MIX_ZIPF,
                           "new_key_every": MIX_NEW_EVERY,
                           "workloads": list(MIX_WORKLOADS),
                           "scenes_pregenerated": len(cubes)})


def build(name: str, seed: int, seconds: float) -> Scenario:
    """The named scenario's inputs for one seed and window length."""
    if name == "amc-gpu":
        return _cold_amc(name, seed, lines=20,
                         params={"backend": "gpu", "se_radius": 2,
                                 "n_classes": N_CLASSES}, sample=3)
    if name == "mix-durable":
        return _mix_durable(seed, seconds, rate_cap=600.0)
    if name == "amc-chunked":
        return _cold_amc(name, seed, lines=224,
                         params={"se_radius": 2, "n_workers": 2,
                                 "n_classes": N_CLASSES}, sample=2)
    raise ValueError(f"unknown workload {name!r}")
