"""Shared pieces of the workloads: the run context, per-layer probes that
survive refactors, the start sampler of the test suite and the reference
roots of the search."""

from __future__ import annotations

import importlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import minkbilliards as mb

# trajectories that come closer to the tropic curve than this (relative
# |<n,n>| at a bounce) are not admissible starts; the test suite uses the
# same margin, below which the reflection's conditioning degrades
TROPIC_MARGIN = 2e-3


@dataclass
class Ctx:
    """What a workload needs from the harness."""

    root: Path                      # checkout root; src/ holds the package
    work: Path                      # scratch directory inside the checkout
    python: str                     # interpreter for `mbl` children
    child_env: dict[str, str]
    notes: dict[str, str] = field(default_factory=dict)   # per-layer metric -> why null
    remarks: list[str] = field(default_factory=list)      # printed with every result

    def probe(self, dotted: str, metrics: tuple[str, ...]):
        """Package function for a per-layer replay, or None with a note.

        ``dotted`` is ``module.name`` inside the package.  Planned refactors
        remove some internal names; a missing one turns the per-layer
        ``metrics`` it feeds into null with a note instead of failing the run.
        """
        module, _, name = dotted.rpartition(".")
        try:
            return getattr(importlib.import_module(f"minkbilliards.{module}"), name)
        except (ImportError, AttributeError):
            for metric in metrics:
                self.notes[metric] = f"{dotted} not found in this version; replay skipped"
            return None


@dataclass
class Op:
    """One closed-loop operation: a kind and its generated inputs."""

    kind: str
    args: tuple
    op_id: int = 0


def random_interior_point(rng: random.Random, ell: mb.Ellipsoid, slack: float = 0.1) -> mb.Vec3:
    while True:
        p = mb.Vec3(rng.uniform(-1, 1) * math.sqrt(ell.a1),
                    rng.uniform(-1, 1) * math.sqrt(ell.a2),
                    rng.uniform(-1, 1) * math.sqrt(ell.a3))
        if ell.surface_residual(p) < -slack:
            return p


def random_direction(rng: random.Random, linetype: mb.LineType) -> mb.Vec3:
    while True:
        v = mb.Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        q = mb.mink_dot(v, v)
        if linetype is mb.LineType.SPACELIKE and q > 0.1 * v.euclid_norm2():
            return v
        if linetype is mb.LineType.TIMELIKE and q < -0.1 * v.euclid_norm2():
            return v
        if linetype is mb.LineType.LIGHTLIKE:
            h = math.hypot(v.x1, v.x2)
            if h > 1e-9:
                return mb.Vec3(v.x1, v.x2, math.copysign(h, v.x3))


def tropic_margin(traj) -> float:
    m = math.inf
    for b in traj.bounces:
        n = mb.surface_normal(b.point, traj.ellipsoid)
        m = min(m, abs(mb.mink_dot(n, n)) / n.euclid_norm2())
    return m


def admissible_start(rng: random.Random, ell: mb.Ellipsoid, linetype: mb.LineType,
                     bounces: int) -> tuple[mb.Vec3, mb.Vec3]:
    """A seeded start whose trace stays clear of the tropic curve."""
    for _ in range(200):
        p = random_interior_point(rng, ell)
        v = random_direction(rng, linetype)
        t = mb.trace(p, v, ell, bounces)
        if t.error is None and len(t.bounces) == bounces and tropic_margin(t) >= TROPIC_MARGIN:
            return p, v
    raise RuntimeError("could not sample an admissible start")


class ReferenceRoots:
    """The (4,2,1) roots the search must reproduce, from reference_roots.json."""

    def __init__(self, root: Path) -> None:
        doc = json.loads((root / "bench" / "reference_roots.json").read_text())
        self.roots = doc["roots"]
        self.tol = doc["tolerance"]

    def mismatch(self, case: str, n: int, got: list[tuple[float, float]]) -> list[str]:
        """[] when ``got`` holds exactly the reference roots of (case, n)."""
        ref = sorted(map(tuple, self.roots[f"{case}/{n}"]))
        got = sorted(got)
        if len(got) != len(ref) or any(abs(g1 - r1) > self.tol or abs(g2 - r2) > self.tol
                                       for (g1, g2), (r1, r2) in zip(got, ref)):
            return [f"roots {got} differ from the reference {ref}"]
        return []
