"""`trace` workload: one op traces one trajectory, then detects its period
and measures its Chasles residual.

Almost all of the time goes to the simulator's inner loop (`next_impact`,
`reflect_at`, the eager `elliptic_coordinates`, `Vec3`); the exact engine
does no work, so exact-side and search-side changes should not move it.
"""

from __future__ import annotations

import random

import minkbilliards as mb
from minkbilliards.errors import BilliardError

from common import Ctx, Op, admissible_start

BOUNCES = 200
E421 = mb.Ellipsoid(4.0, 2.0, 1.0)
# exact rational 4-periodic configuration (S1 placement on its own ellipsoid)
E_EXACT = mb.Ellipsoid(1.0, 6.0 / 7.0, 6.0)
CP_EXACT = mb.CausticPair(0.75, -3.0, mb.LineType.SPACELIKE, -1)
SIG_EXACT = (4, 1, 3, 2)
RANDOM_PER_TYPE = 16        # admissible random starts per line type
EXACT_STARTS = 8            # tangent_line_for_caustics has 8 distinct seeds

CHASLES_TOL = 1e-8
SURFACE_TOL = 1e-12
LINETYPE_TOL = 1e-9


class Workload:
    name = "trace"

    def __init__(self, seed: int, ctx: Ctx) -> None:
        self.seed = seed
        self.ctx = ctx
        rng = random.Random(seed)
        pool = []
        for lt in (mb.LineType.SPACELIKE, mb.LineType.TIMELIKE, mb.LineType.LIGHTLIKE):
            for _ in range(RANDOM_PER_TYPE):
                p, v = admissible_start(rng, E421, lt, BOUNCES)
                pool.append(Op("random", (E421, p, v)))
        for k in range(EXACT_STARTS):
            p, v = mb.tangent_line_for_caustics(E_EXACT, CP_EXACT, seed=k)
            pool.append(Op("exact4", (E_EXACT, p, v)))
        self.pool = pool

    def round(self, r: int) -> list[Op]:
        ops = list(self.pool)
        random.Random(self.seed * 7919 + r).shuffle(ops)
        return ops

    def warmup(self) -> Op:
        return self.pool[0]

    def coverage(self) -> list[Op]:
        return [self.pool[0], self.pool[RANDOM_PER_TYPE], self.pool[-1]]

    def execute(self, op: Op, tr):
        ell, p, v = op.args
        with tr.span("simulator.trace"):
            traj = mb.trace(p, v, ell, BOUNCES)
        with tr.span("simulator.detect_period"):
            sig = mb.detect_period(traj)
        with tr.span("simulator.chasles_residual"):
            chasles = mb.chasles_residual(traj)
        tr.count("simulator.traces")
        tr.count("simulator.bounces", len(traj.bounces))
        tr.count("simulator.truncated", traj.error is not None or len(traj.bounces) < BOUNCES)
        tr.count("simulator.periods_found", sig is not None)
        return traj, sig, chasles

    def check(self, op: Op, result) -> list[str]:
        traj, sig, chasles = result
        ell, _, v = op.args
        bad = []
        if traj.error is not None or len(traj.bounces) != BOUNCES:
            bad.append(f"truncated after {len(traj.bounces)} bounces: {traj.error}")
        if not chasles <= CHASLES_TOL:
            bad.append(f"Chasles residual {chasles:.3e}")
        lt0 = mb.classify_direction(v, tol=LINETYPE_TOL)
        if any(mb.classify_direction(b.outgoing, tol=LINETYPE_TOL) is not lt0
               for b in traj.bounces):
            bad.append("line type changed")
        if any(abs(ell.surface_residual(b.point)) > SURFACE_TOL for b in traj.bounces):
            bad.append("bounce off the surface")
        if sig is not None and traj.case is not None:
            if not mb.parity_ok(sig, traj.case):
                bad.append(f"signature {sig} breaks the {traj.case.value} parity laws")
            if traj.case in (mb.CausticCase.S3, mb.CausticCase.T4) and sig.n % 2 == 1:
                bad.append(f"odd period {sig.n} in {traj.case.value}")
        if op.kind == "exact4":
            got = None if sig is None else (sig.n, sig.m1, sig.n1, sig.n2)
            if got != SIG_EXACT:
                bad.append(f"exact 4-periodic start gave {got}")
        return bad

    def replay(self, op: Op, result, tr) -> None:
        """Inner stages of `trace`, replayed at the op's recorded bounces."""
        traj = result[0]
        ell, p, v = op.args
        recs = traj.bounces
        k = len(recs)
        if not k:
            return
        prev = [p] + [b.point for b in recs[:-1]]
        with tr.span("confocal.line_caustics"):
            mb.line_caustics(p, v, ell)
        with tr.span("simulator.next_impact", k):
            for q, b in zip(prev, recs):
                mb.next_impact(q, b.incoming, ell)
        with tr.span("simulator.classify_surface_point", k):
            for b in recs:
                mb.classify_surface_point(b.point, ell)
        with tr.span("simulator.reflect_at", k):
            for b in recs:
                try:
                    mb.reflect_at(b.point, b.incoming, ell)
                except BilliardError:
                    pass
        with tr.span("confocal.elliptic_coordinates", k):
            for b in recs:
                try:
                    mb.elliptic_coordinates(b.point, ell)
                except BilliardError:
                    pass
        normals = [mb.surface_normal(b.point, ell) for b in recs]
        with tr.span("minkowski.reflect_direction", k):
            for b, n in zip(recs, normals):
                mb.reflect_direction(b.incoming, n, tol=0.0)
        xyz = [(b.point.x1, b.point.x2, b.point.x3) for b in recs]
        Vec3 = mb.Vec3
        with tr.span("minkowski.vec3_new", k):
            for x1, x2, x3 in xyz:
                Vec3(x1, x2, x3)
