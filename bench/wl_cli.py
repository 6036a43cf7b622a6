"""`cli` workload: one op is one `mbl` command in a fresh interpreter
(`python -m minkbilliards.cli ...`), one child process at a time.

This is the only workload that pays interpreter start and import on every
op, as users do.  Its trace output needs every lambda, so lazy elliptic
coordinates save nothing here, and its exact verdicts are SATISFIED with
small coefficient heights, so a NOT-SATISFIED shortcut is bypassed.
"""

from __future__ import annotations

import csv
import json
import os
import random
import subprocess
from fractions import Fraction as F

import minkbilliards as mb

from common import Ctx, Op, ReferenceRoots, admissible_start

A = (4.0, 2.0, 1.0)
E421 = mb.Ellipsoid(*A)
TRACE_BOUNCES = 200
# the exact rational configurations of the test suite, at multiples of
# their periods: (params, case, extra flags, n)
CAYLEY = [
    ("1,6/7,6,3/4,-3", "S1", (), 4), ("1,6/7,6,3/4,-3", "S1", (), 8),
    ("1,6/7,6,3/4,-3", "S1", (), 12),
    ("6,3/2,2,2,2", "double", (), 4), ("6,3/2,2,2,2", "double", (), 8),
    ("6,3/2,2,2,2", "double", (), 12),
    ("8,7,15,840/169", "light", ("--light",), 6), ("8,7,15,840/169", "light", ("--light",), 12),
]
# find-periodic specs: S specs have roots, T specs none (exit code 1)
S_SPECS = [("S1", 4), ("S1", 5), ("S2", 5), ("S4", 5)]
T_SPECS = [("T3", 4), ("T1", 5), ("T2", 5), ("T1", 6)]
FIND_SPECS = [spec for pair in zip(S_SPECS, T_SPECS) for spec in pair]
CV_SPECS = [("S1", 4), ("S2", 5), ("S1", 6), ("S3", 6)]
LINETYPE_NAMES = {mb.LineType.SPACELIKE: "space-like", mb.LineType.TIMELIKE: "time-like",
                  mb.LineType.LIGHTLIKE: "light-like"}
TRAJ_KEYS = {"ellipsoid", "linetype", "caustics", "case", "bounces", "period"}
BOUNCE_KEYS = {"t", "point", "component", "lambda"}
COMPONENTS = {"capN", "capS", "belt", "tropic"}
GENERIC_VARIANTS = (mb.PellVariant.EVEN_A, mb.PellVariant.EVEN_B,
                    mb.PellVariant.ODD_C, mb.PellVariant.ODD_D)
# one round: every command once; each command's inputs rotate from round to round
ROUND_KINDS = ("classify", "caustics", "trace", "check-cayley", "verify-pell", "find-periodic",
               "cross-validate")


def triple(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def _certificates() -> dict[str, mb.PellSolution]:
    s1 = mb.HyperellipticParams(F(1), F(6, 7), F(6), F(3, 4), F(-3))
    n6 = mb.HyperellipticParams(F(4), F(2), F(1), F(-2), F(-4, 3))
    even_b = mb.solve_pell(s1, 4, mb.PellVariant.EVEN_B)
    return {
        "s1_evenB_n4": even_b,
        "n6_evenA_n6": mb.solve_pell(n6, 6, mb.PellVariant.EVEN_A),
        "s1_composed_n8": mb.compose_pell(even_b),
        "double_n4": mb.solve_pell_singular((F(6), F(3, 2), F(2)), F(2), 4,
                                            mb.PellVariant.DOUBLE_B),
        "light_n6": mb.solve_pell_singular((F(8), F(7), F(15)), F(840, 169), 6,
                                           mb.PellVariant.LIGHT_EVEN),
    }


class Workload:
    name = "cli"

    def __init__(self, seed: int, ctx: Ctx) -> None:
        self.seed = seed
        self.ctx = ctx
        self.rng = random.Random(seed)
        self.offset = self.rng.randrange(1000)
        self.ref = ReferenceRoots(ctx.root)
        ctx.work.mkdir(parents=True, exist_ok=True)
        self.certs = {}
        for name, sol in _certificates().items():
            path = ctx.work / f"cert_{name}.json"
            path.write_text(sol.to_json())
            self.certs[name] = path
        self.specs = {}
        for case, n in {*S_SPECS, *T_SPECS, *CV_SPECS}:
            path = ctx.work / f"spec_{case}_{n}.json"
            path.write_text(json.dumps({"ellipsoid": list(A), "case": case, "n": n, "grid": 32}))
            self.specs[(case, n)] = path
        lts = (mb.LineType.SPACELIKE, mb.LineType.TIMELIKE, mb.LineType.LIGHTLIKE)
        self.starts = [admissible_start(self.rng, E421, lts[k % 3], TRACE_BOUNCES)
                       for k in range(6)]
        self.max_rss_kib = 0

    def _op(self, kind: str, r: int) -> Op:
        i = r + self.offset
        rng = random.Random(self.seed * 7919 + r)
        if kind == "classify":
            v = mb.Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            return Op(kind, ("classify", "--", *(repr(x) for x in v.as_tuple())))
        if kind in ("caustics", "trace"):
            p, v = self.starts[rng.randrange(len(self.starts))]
            argv = [kind, f"--ellipsoid={triple(A)}", f"--point={triple(p.as_tuple())}",
                    f"--dir={triple(v.as_tuple())}"]
            if kind == "trace":
                argv += ["--bounces", str(TRACE_BOUNCES), "--out", "traj.json", "--csv", "traj.csv"]
            return Op(kind, tuple(argv))
        if kind == "check-cayley":
            params, case, flags, n = CAYLEY[i % len(CAYLEY)]
            return Op(kind, ("check-cayley", "--params", params, "--case", case, *flags,
                             "--n", str(n)))
        if kind == "verify-pell":
            names = sorted(self.certs)
            return Op(kind, ("verify-pell", "--cert", str(self.certs[names[i % len(names)]])))
        if kind == "find-periodic":
            spec = FIND_SPECS[i % len(FIND_SPECS)]
            label = "find-periodic-empty" if spec in T_SPECS else kind
        else:
            spec, label = CV_SPECS[i % len(CV_SPECS)], kind
        return Op(label, (kind, "--spec", str(self.specs[spec]), spec))

    def round(self, r: int) -> list[Op]:
        return [self._op(kind, r) for kind in ROUND_KINDS]

    def warmup(self) -> Op:
        return self._op("classify", 0)

    def coverage(self) -> list[Op]:
        """The first op of each command that a cli.* metric times."""
        return [op for op in self.round(0) if op.args[0] != "caustics"]

    def execute(self, op: Op, tr):
        argv = [a for a in op.args if isinstance(a, str)]
        with tr.span("cli." + argv[0].replace("-", "_")):
            with open(self.ctx.work / "stderr.txt", "w+b") as err:
                child = subprocess.Popen([self.ctx.python, "-m", "minkbilliards.cli", *argv],
                                         cwd=self.ctx.work, env=self.ctx.child_env,
                                         stdout=subprocess.PIPE, stderr=err)
                out = child.stdout.read()
                child.stdout.close()
                _, status, usage = os.wait4(child.pid, 0)
                child.returncode = os.waitstatus_to_exitcode(status)
                err.seek(0)
                stderr = err.read().decode("utf8", "replace")
        self.max_rss_kib = max(self.max_rss_kib, usage.ru_maxrss)
        written = 0
        if op.kind == "trace":
            written = sum((self.ctx.work / f).stat().st_size for f in ("traj.json", "traj.csv"))
        tr.count("cli.output_bytes", len(out) + written)
        return child.returncode, out.decode("utf8", "replace"), stderr

    def check(self, op: Op, result) -> list[str]:
        code, out, stderr = result
        want = 1 if op.kind == "find-periodic-empty" else 0
        if code != want:
            return [f"exit {code} (expected {want}): {stderr.strip()[-200:]}"]
        try:
            return getattr(self, "_check_" + op.kind.replace("-", "_"))(op, out)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return [f"malformed output: {exc!r}"]

    def _check_classify(self, op, out):
        v = mb.Vec3(*(float(x) for x in op.args[2:5]))
        want = LINETYPE_NAMES[mb.classify_direction(v)]
        return [] if out.strip() == want else [f"classify printed {out.strip()!r}, want {want}"]

    def _check_caustics(self, op, out):
        doc = json.loads(out)
        v = mb.Vec3(*(float(x) for x in op.args[3].split("=")[1].split(",")))
        bad = []
        if set(doc) != {"gamma1", "gamma2", "linetype", "epsilon", "case"}:
            bad.append(f"caustics keys {sorted(doc)}")
        if doc["linetype"] != mb.classify_direction(v).value:
            bad.append(f"caustics linetype {doc['linetype']}")
        return bad

    def _check_trace(self, op, out):
        bad = [] if out == "" else ["trace with --out printed to stdout"]
        doc = json.loads((self.ctx.work / "traj.json").read_text())
        if set(doc) != TRAJ_KEYS:
            bad.append(f"trajectory keys {sorted(doc)}")
        bounces = doc["bounces"]
        if len(bounces) != TRACE_BOUNCES:
            bad.append(f"{len(bounces)} bounces")
        for b in bounces:
            if (set(b) != BOUNCE_KEYS or b["component"] not in COMPONENTS
                    or len(b["point"]) != 3 or b["lambda"] is None or len(b["lambda"]) != 3):
                bad.append(f"bounce record {b}")
                break
            if abs(E421.surface_residual(mb.Vec3(*b["point"]))) > 1e-12:
                bad.append("bounce off the surface")
                break
        with open(self.ctx.work / "traj.csv", encoding="utf8", newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != len(bounces) + 1 or len(rows[0]) != 8:
            bad.append(f"CSV has {len(rows)} rows")
        return bad

    def _check_check_cayley(self, op, out):
        return [] if out.strip() == "SATISFIED" else [f"check-cayley printed {out.strip()!r}"]

    def _check_verify_pell(self, op, out):
        if out.strip() != "VALID":
            return [f"verify-pell printed {out.strip()!r}"]
        sol = mb.PellSolution.from_json_dict(json.loads(open(op.args[2], encoding="utf8").read()))
        return [] if mb.verify_pell(sol) else ["written certificate does not verify in-process"]

    def _check_find_periodic(self, op, out):
        doc = json.loads(out)
        return self.ref.mismatch(*op.args[3], [(c["gamma1"], c["gamma2"]) for c in doc])

    def _check_find_periodic_empty(self, op, out):
        return [] if json.loads(out) == [] else [f"expected no candidate, got {out.strip()[:200]}"]

    def _check_cross_validate(self, op, out):
        doc = json.loads(out)
        bad = [f"report ({r['gamma1']}, {r['gamma2']}) not valid" for r in doc if not r["valid"]]
        return bad + self.ref.mismatch(*op.args[3], [(r["gamma1"], r["gamma2"]) for r in doc])

    def replay(self, op: Op, result, tr) -> None:
        """In-process replays of the exact work behind check-cayley and
        verify-pell: the rank test, certificate parsing, verification and
        composition."""
        if op.kind == "check-cayley":
            vals = [F(x) for x in op.args[2].split(",")]
            light = "--light" in op.args
            g2 = None if light or len(vals) < 5 else vals[4]
            params = mb.HyperellipticParams(*vals[:4], g2)
            with tr.span("conditions.cayley_test"):
                ok = mb.cayley_test(params, mb.CausticCase(op.args[4]), int(op.args[-1]))
            tr.count("conditions.cayley_calls")
            tr.count("conditions.satisfied", ok)
        elif op.kind == "verify-pell":
            with open(op.args[2], encoding="utf8") as fh:
                sol = mb.PellSolution.from_json_dict(json.load(fh))
            with tr.span("pell.verify_pell"):
                mb.verify_pell(sol)
            with tr.span("pell.cert_json"):
                sol.to_json()
            if sol.variant not in GENERIC_VARIANTS:
                # composition is defined for the generic variants only
                with open(self.certs["s1_evenB_n4"], encoding="utf8") as fh:
                    sol = mb.PellSolution.from_json_dict(json.load(fh))
            with tr.span("pell.compose_pell"):
                mb.compose_pell(sol)
