"""The four workloads: seeded inputs, the timed call and the output check.

Each workload is a closed loop with one client: the next task starts when
the previous one has returned.  Its inputs are ``rounds`` rounds generated from
the seed during set-up.  A round is a fixed mix of task kinds in a seeded
order, so a run made of whole rounds has the same mix however fast the
program is.  A run longer than that starts again at the first round.

Every task's output is checked after the timed loop: against a closed form
from ``cases.py`` where the package documents one, otherwise against a
value recorded by ``make_reference.py``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

import cases
import speed

ROUNDS = 128
TOL = 1e-12          # closed forms: agreement is ~1e-15 at the reference commit
TOL_RECORDED = 1e-10  # float values recorded from the reference commit
TOL_RESIDUAL = 1e-9   # hv float residuals, the package's own feasibility tolerance

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")


class Task(NamedTuple):
    kind: str
    args: tuple
    expected: object = None


class PoolDraws:
    """Draws pooled cases in a seeded order; every case once before any repeats."""

    def __init__(self, seed, workload: str, sizes: dict):
        self._order = {}
        self._next = {}
        for pool, size in sizes.items():
            order = list(range(size))
            random.Random(f"{seed}/{workload}/{pool}").shuffle(order)
            self._order[pool] = order
            self._next[pool] = 0

    def draw(self, pool: str) -> int:
        k = self._next[pool]
        self._next[pool] = k + 1
        order = self._order[pool]
        return order[k % len(order)]


class Workload:
    name = ""
    modules: tuple = ()
    mix: tuple = ()  # (kind, tasks per round)
    rounds = ROUNDS
    # Tasks run in the worker's own process: the reference loop, run there
    # between tasks, tracks the speed they ran at and scales their times.
    speed_reference = speed.LOOP

    def setup(self, seed, reference) -> list:
        """Import the layers this workload uses and generate every round's inputs."""
        for module in self.modules:
            setattr(self, module.rsplit(".", 1)[1], importlib.import_module(module))
        self.reference = reference
        self.draws = PoolDraws(seed, self.name, self.pool_sizes(reference))
        rounds = []
        for r in range(self.rounds):
            rng = random.Random(f"{seed}/{self.name}/{r}")
            tasks = [self.make_task(kind, rng) for kind, count in self.mix for _ in range(count)]
            rng.shuffle(tasks)
            rounds.append(tasks)
        return rounds

    def pool_sizes(self, reference) -> dict:
        return {}

    def run(self, task: Task):
        return getattr(self, "run_" + task.kind)(*task.args)

    def check(self, task: Task, output) -> bool:
        return bool(getattr(self, "check_" + task.kind)(task, output))


def _close(a, b, tol=TOL) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _noise(rng):
    return rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.2)


def _scale(visibility, background):
    return (1.0 - background) * visibility


THETA2_GRID_9 = [-math.pi / 2 + k * math.pi / 8 for k in range(9)]
PHI_GRID_9 = [k * math.pi / 4 for k in range(9)]


class SurfaceScan(Workload):
    """Circuit analysis: single settings, CHSH, surfaces and visibility fits."""

    name = "surface_scan"
    modules = ("qduality.circuit",)
    mix = (("correlation", 24), ("coincidence_probabilities", 16), ("chsh", 8),
           ("surface", 2), ("surface_large", 1), ("fit_visibility", 4))
    LARGE = 21

    def make_task(self, kind, rng):
        if kind in ("correlation", "coincidence_probabilities"):
            theta1, theta2, phi = rng.uniform(-math.pi, math.pi), rng.uniform(
                -math.pi / 2, math.pi / 2), rng.uniform(0, 2 * math.pi)
            return Task(kind, (theta1, theta2, phi, *_noise(rng)))
        if kind == "chsh":
            return Task(kind, (rng.uniform(0, 2 * math.pi), *_noise(rng)))
        if kind == "surface":
            return Task(kind, (rng.uniform(-math.pi, math.pi), *_noise(rng)))
        if kind == "surface_large":
            grid2 = tuple(np.linspace(-math.pi / 2, math.pi / 2, self.LARGE))
            grid_phi = tuple(np.linspace(0.0, 2 * math.pi, self.LARGE))
            return Task(kind, (rng.uniform(-math.pi, math.pi), *_noise(rng), grid2, grid_phi))
        # fit_visibility: a synthetic curve V * E_ideal(theta2) plus Gaussian noise
        while True:
            theta1, phi = rng.uniform(-math.pi, math.pi), rng.uniform(0, 2 * math.pi)
            theta2 = [rng.uniform(-math.pi / 2, math.pi / 2) for _ in range(rng.randint(9, 17))]
            ideal = [cases.correlation(theta1, t2, phi) for t2 in theta2]
            if sum(e * e for e in ideal) > 0.01:
                break
        visibility = rng.uniform(0.6, 1.0)
        measured = [visibility * e + rng.gauss(0.0, 0.01) for e in ideal]
        return Task(kind, (tuple(theta2), tuple(measured), theta1, phi))

    def _config(self, theta1, theta2, phi, visibility, background):
        c = self.circuit
        return c.ExperimentConfig(phi=phi, theta1=theta1, theta2=theta2,
                                  noise=c.NoiseParams(visibility, background))

    def run_correlation(self, *args):
        return self.circuit.correlation(self._config(*args))

    def check_correlation(self, task, out):
        t1, t2, phi, vis, bg = task.args
        return abs(out - cases.correlation(t1, t2, phi, _scale(vis, bg))) <= TOL

    def run_coincidence_probabilities(self, *args):
        return self.circuit.coincidence_probabilities(self._config(*args))

    def check_coincidence_probabilities(self, task, out):
        t1, t2, phi, vis, bg = task.args
        return _close([out.p_pp, out.p_pm, out.p_mp, out.p_mm],
                      cases.probabilities(t1, t2, phi, _scale(vis, bg)))

    def run_chsh(self, phi, vis, bg):
        return self.circuit.chsh(phi, noise=self.circuit.NoiseParams(vis, bg))

    def check_chsh(self, task, out):
        phi, vis, bg = task.args
        return abs(out - cases.chsh(phi, _scale(vis, bg))) <= 10 * TOL

    def run_surface(self, theta1, vis, bg):
        return self.circuit.correlation_surface(theta1, noise=self.circuit.NoiseParams(vis, bg))

    def check_surface(self, task, out):
        theta1, vis, bg = task.args
        return _surface_ok(out, theta1, _scale(vis, bg), THETA2_GRID_9, PHI_GRID_9)

    def run_surface_large(self, theta1, vis, bg, grid2, grid_phi):
        return self.circuit.correlation_surface(theta1, grid2, grid_phi,
                                                noise=self.circuit.NoiseParams(vis, bg))

    def check_surface_large(self, task, out):
        theta1, vis, bg, grid2, grid_phi = task.args
        return _surface_ok(out, theta1, _scale(vis, bg), grid2, grid_phi)

    def run_fit_visibility(self, theta2, measured, theta1, phi):
        return self.circuit.fit_visibility(theta2, measured, theta1, phi)

    def check_fit_visibility(self, task, out):
        theta2, measured, theta1, phi = task.args
        ideal = np.array([cases.correlation(theta1, t2, phi) for t2 in theta2])
        expected = float(np.dot(ideal, measured) / np.dot(ideal, ideal))
        return abs(out - expected) <= 100 * TOL


def _surface_ok(table, theta1, scale, grid2, grid_phi) -> bool:
    expected = [[cases.correlation(theta1, t2, phi, scale) for phi in grid_phi] for t2 in grid2]
    return _close(table, expected)


class FockPipeline(Workload):
    """The second-quantized model: pipeline correlations, gate maps, analyzer."""

    name = "fock_pipeline"
    modules = ("qduality.circuit", "qduality.fock")
    mix = (("v1", 12), ("v0", 6), ("mid", 12), ("surface", 1), ("cz", 4), ("ch", 4),
           ("bsm_projector", 4), ("bsm_scan", 4))
    SCAN = tuple(np.linspace(10.5, 12.8, 47))
    GRID2 = tuple(np.linspace(-math.pi / 2, math.pi / 2, 5))
    GRID_PHI = tuple(np.linspace(0.0, 2 * math.pi, 5))

    def pool_sizes(self, reference):
        return {"v0": len(reference["v0"]), "mid": len(reference["mid"])}

    def make_task(self, kind, rng):
        if kind == "v1":
            return Task(kind, (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2),
                               rng.uniform(0, 2 * math.pi), 1.0))
        if kind in ("v0", "mid"):
            i = self.draws.draw(kind)
            return Task(kind, cases.fock_case(kind, i), self.reference[kind][i])
        if kind == "surface":
            return Task(kind, (rng.uniform(-math.pi, math.pi), self.GRID2, self.GRID_PHI))
        if kind in ("cz", "ch"):
            return Task(kind, (rng.uniform(0.0, 1.0),))
        if kind == "bsm_projector":
            return Task(kind, (rng.uniform(-math.pi / 2, math.pi / 2),))
        return Task(kind, (rng.uniform(-math.pi / 2, math.pi / 2), rng.uniform(11.0, 12.3),
                           rng.uniform(0.2, 0.6), self.SCAN))

    def run_v1(self, theta1, theta2, phi, v):
        config = self.circuit.ExperimentConfig(phi=phi, theta1=theta1, theta2=theta2)
        return self.fock.physical_correlation(config, v)

    run_v0 = run_mid = run_v1

    def check_v1(self, task, out):
        theta1, theta2, phi, _ = task.args
        return abs(out - cases.correlation(theta1, theta2, phi)) <= TOL

    def check_v0(self, task, out):
        return abs(out - task.expected) <= TOL_RECORDED

    check_mid = check_v0

    def run_surface(self, theta1, grid2, grid_phi):
        return [[self.run_v1(theta1, theta2, phi, 1.0) for phi in grid_phi] for theta2 in grid2]

    def check_surface(self, task, out):
        return _surface_ok(out, task.args[0], 1.0, task.args[1], task.args[2])

    def run_cz(self, v):
        return self.fock.physical_cz(v)

    def run_ch(self, v):
        return self.fock.physical_ch(v)

    def _check_gate(self, task, out, unitary, key):
        (v,), (gate_map, probability) = task.args, out
        rho = cases.gate_test_rho()
        ref0 = np.array([[complex(*z) for z in row] for row in self.reference[key]])
        expected = v * (unitary @ rho @ unitary.conj().T) / 9.0 + (1.0 - v) * ref0
        return (abs(probability - (v / 9.0 + (1.0 - v) * 2.0 / 9.0)) <= TOL
                and _close(gate_map.apply(rho), expected))

    def check_cz(self, task, out):
        return self._check_gate(task, out, np.diag([1.0, 1.0, 1.0, -1.0]), "cz_v0")

    def check_ch(self, task, out):
        ch = np.eye(4, dtype=complex)
        ch[2:, 2:] = np.array([[1, 1], [1, -1]]) / cases.SQRT2
        return self._check_gate(task, out, ch, "ch_v0")

    def run_bsm_projector(self, theta2):
        return self.fock.bsm_projector_physical(theta2)

    def check_bsm_projector(self, task, out):
        ket = cases.bob_ket(task.args[0])
        return _close(out.matrix, np.outer(ket, ket.conj()))

    def run_bsm_scan(self, theta2, x0, sigma, positions):
        return self.fock.bsm_scan(theta2, self.fock.OverlapModel(x0=x0, sigma=sigma), positions)

    def check_bsm_scan(self, task, out):
        theta2, x0, sigma, positions = task.args
        for k, x in enumerate(positions):
            rates = cases.bsm_rates(theta2, math.exp(-((x - x0) ** 2) / (2.0 * sigma**2)))
            if any(abs(out.rates[key][k] - value) > TOL for key, value in rates.items()):
                return False
        return True


class HvFeasibility(Workload):
    """Hidden-variable feasibility: HiGHS on float targets, the exact simplex on Fractions."""

    name = "hv_feasibility"
    modules = ("qduality.hv",)
    FLOAT_N = tuple(range(4, 11))
    EXACT_N = (2, 4)
    # Cost roughly doubles with n.  Eighteen float tasks at each of n = 4..6
    # put as many tasks below the ten float n = 7 tasks as above them, so the
    # median latency falls inside that block, not on the step between two
    # sizes.  Exact LPs at n = 3 (0.2-0.45 s, by case) and n = 4 (0.6-1.3 s)
    # cost more than float n = 10 (0.18 s, steady).  With no n = 3 and one
    # n = 4 LP in a round of 5 to 9 s, a run has fewer than ten of them, so
    # the tail (ten tasks beyond it) falls inside the float n = 10 block,
    # not among a few widely spread exact cases.  Exact n = 2 LPs bring the
    # exact path to about 40% of the time; most are tagged models, since the
    # infeasible pool has 32 cases and a run draws none twice.
    mix = (tuple((("float", n), 18 if n < 7 else 10) for n in FLOAT_N)
           + ((("quadrature", 6), 2), (("quadrature", 8), 2))
           + ((("exact_infeasible", 2), 6), (("exact_infeasible", 4), 1))
           + ((("exact_feasible", 2), 18),))
    rounds = 16  # a 20 s run uses at most five

    def pool_sizes(self, reference):
        sizes = {f"float{n}": len(reference["float"][str(n)]) for n in self.FLOAT_N}
        sizes.update({f"exact{n}": len(reference["exact"][str(n)]) for n in self.EXACT_N})
        return sizes

    def make_task(self, kind, rng):
        kind, n = kind
        if kind == "float":
            i = self.draws.draw(f"float{n}")
            feasible, residual = self.reference["float"][str(n)][i]
            return Task("float", (cases.hv_settings("float", n, i),), (feasible, residual))
        if kind == "quadrature":
            settings = [(math.pi / 4, phi) for phi in
                        sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))]
            return Task("quadrature", (settings,))
        if kind == "exact_infeasible":
            i = self.draws.draw(f"exact{n}")
            case = self.reference["exact"][str(n)][i]
            targets = [[[Fraction(x) for x in row] for row in table] for table in case["targets"]]
            wave = [cases.wave_probs_from_cos(Fraction(c)) for c in case["cos"]]
            settings = cases.hv_settings("exact", n, case["case"])
            return Task("exact_infeasible", (settings, targets, wave),
                        Fraction(case["residual"]))
        # exact_feasible: targets of a random rational tagged model
        strategies = [(rng.choice(("particle", "wave")),
                       tuple(rng.choice(cases.SIGNS) for _ in range(n)))
                      for _ in range(rng.randint(2, 5))]
        weights = [Fraction(rng.randint(1, 9)) for _ in strategies]
        weights = [w / sum(weights) for w in weights]
        cosines = [Fraction(rng.randint(-8, 8), 8) for _ in range(n)]
        wave = [cases.wave_probs_from_cos(c) for c in cosines]
        settings = [(rng.uniform(-math.pi / 2, math.pi / 2), math.acos(float(c))) for c in cosines]
        return Task("exact_feasible", (settings, cases.tagged_joint(strategies, weights, wave), wave))

    def run_float(self, settings, basis="real"):
        hv = self.hv
        targets = [hv.quantum_joint(theta2, phi, basis) for theta2, phi in settings]
        return targets, hv.feasibility(targets, hv.SettingsList(settings))

    def run_quadrature(self, settings):
        return self.run_float(settings, "quadrature")

    def run_exact_infeasible(self, settings, targets, wave):
        return targets, self.hv.feasibility(targets, self.hv.SettingsList(settings), wave)

    run_exact_feasible = run_exact_infeasible

    def check_float(self, task, out):
        targets, result = out
        feasible, residual = task.expected
        return (result.method == "float" and result.feasible == feasible
                and abs(float(result.residual) - residual) <= TOL_RESIDUAL
                and (not feasible or _witness_ok(result.model, task.args[0], targets)))

    def check_quadrature(self, task, out):
        targets, result = out
        return (result.method == "float" and result.feasible
                and result.residual <= TOL_RESIDUAL
                and _witness_ok(result.model, task.args[0], targets))

    def check_exact_infeasible(self, task, out):
        _, result = out
        return (result.method == "exact" and not result.feasible
                and isinstance(result.residual, Fraction) and result.residual == task.expected)

    def check_exact_feasible(self, task, out):
        _, result = out
        settings, targets, wave = task.args
        return (result.method == "exact" and result.feasible and result.residual == 0
                and _witness_ok(result.model, settings, targets, wave))


def _witness_ok(model, settings, targets, wave=None) -> bool:
    """The witness model reproduces the targets: exactly for Fractions, to 1e-8 otherwise."""
    if model is None:
        return False
    exact = wave is not None
    if not exact:
        wave = [(math.cos(phi / 2) ** 2, 1.0 - math.cos(phi / 2) ** 2) for _, phi in settings]
    strategies = [(s.tag, s.bob_outcomes) for s in model.strategies]
    joints = cases.tagged_joint(strategies, model.weights, wave)
    for got, want in zip(joints, targets):
        for s in (0, 1):
            for b in (0, 1):
                if exact and got[s][b] != want[s][b]:
                    return False
                if not exact and abs(float(got[s][b]) - float(want[s][b])) > 1e-8:
                    return False
    return len(joints) == len(targets)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


CLI_OUT = "perfbench/.work/cli"
_SIM = ["simulate", "--theta1", "0", "--theta2", "pi/8", "--phi", "3pi/2"]
CLI_COMMANDS = {
    "simulate_5585": _SIM + ["--shots", "5585", "--seed", "7"],
    "simulate_1e6": _SIM + ["--shots", "1000000", "--seed", "7"],
    "simulate_1e7": _SIM + ["--shots", "10000000", "--seed", "7"],
    "surface_9x9": ["surface", "--theta1", "0", "--visibility", "0.86"],
    "surface_17x33": ["surface", "--theta1", "pi/4", "--grid", "17x33", "--visibility", "0.9",
                      "--out", f"{CLI_OUT}/surface.csv"],
    "chsh_model": ["chsh", "--phi", "3pi/2", "--visibility", "0.7718"],
    "chsh_data": ["chsh", "--from", "data/table_a1.csv"],
    "hom": ["hom", "--transmission", "1/3", "--x0", "11.63", "--sigma", "0.3",
            "--from", "10.5", "--to", "12.8", "--steps", "47", "--out", f"{CLI_OUT}/dip.csv"],
    "hvcheck_infeasible": ["hvcheck", "--settings", "perfbench/data/settings_infeasible.csv"],
    "hvcheck_feasible": ["hvcheck", "--settings", "perfbench/data/settings_feasible.csv",
                         "--mode", "objectivity"],
    "hvcheck_chsh_bound": ["hvcheck", "--settings", "perfbench/data/settings_infeasible.csv",
                           "--mode", "chsh-bound"],
    "analyze": ["analyze", "--from", "data/table_a1.csv", "--out", f"{CLI_OUT}/results.csv"],
    "usage_error": ["simulate", "--theta1", "3pi/x", "--theta2", "0", "--phi", "0"],
}
LAUNCHER = os.path.join(HERE, "launch.py")


def run_cli(argv, trace_path=None):
    """Run one command line through the launcher; (exit code, stdout sha, {out file: sha})."""
    outs = [argv[k + 1] for k, a in enumerate(argv) if a == "--out"]
    for out in outs:
        if os.path.exists(os.path.join(ROOT, out)):
            os.remove(os.path.join(ROOT, out))
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE", None)
    if trace_path:
        env["PERFBENCH_TRACE"] = trace_path
    proc = subprocess.run([sys.executable, LAUNCHER, *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120)
    files = {}
    for out in outs:
        path = os.path.join(ROOT, out)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[os.path.basename(out)] = _sha(fh.read())
    return {"exit": proc.returncode, "stdout": _sha(proc.stdout), "files": files}


class CliSession(Workload):
    """The README command lines, each a fresh interpreter, import included."""

    name = "cli_session"
    modules = ("qduality.cli",)
    mix = tuple((key, 1) for key in CLI_COMMANDS)
    tracer = None
    # Each command is a fresh interpreter, mostly start-up and imports, which
    # the reference loop does not track; a fresh `import numpy` does.
    speed_reference = speed.IMPORT

    def setup(self, seed, reference):
        os.makedirs(os.path.join(ROOT, CLI_OUT), exist_ok=True)
        return super().setup(seed, reference)

    def make_task(self, kind, rng):
        return Task("command", (kind, CLI_COMMANDS[kind]), self.reference[kind])

    def run_command(self, key, argv):
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return run_cli(argv)
        path = os.path.join(WORK, f"cli-trace-{tracer.task_id}.json")
        out = run_cli(argv, path)
        with open(path, encoding="utf-8") as fh:
            tracer.merge(json.load(fh))
        return out

    def check_command(self, task, out):
        return out == task.expected


WORKLOADS = {w.name: w for w in (SurfaceScan, FockPipeline, HvFeasibility, CliSession)}
