"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py [fock_pipeline] [hv_feasibility] [cli_session]

Run from the repository root on the commit whose outputs are the reference
(the files in perfbench/reference/ were recorded on the commit that added
the benchmark).  Takes about a minute.  surface_scan needs no file: every
one of its outputs is checked against a closed form in cases.py.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cases  # noqa: E402
import workloads  # noqa: E402

FOCK_POOLS = {"v0": 768, "mid": 1536}  # ROUNDS x tasks of that kind per round
HV_FLOAT_CASES = 128
HV_EXACT_CASES = 32


def fock_pipeline() -> dict:
    from qduality import circuit, fock

    ref = {}
    for kind, size in FOCK_POOLS.items():
        values = []
        for i in range(size):
            theta1, theta2, phi, v = cases.fock_case(kind, i)
            config = circuit.ExperimentConfig(phi=phi, theta1=theta1, theta2=theta2)
            values.append(fock.physical_correlation(config, v))
        ref[kind] = values
    rho = cases.gate_test_rho()
    for key, build in (("cz_v0", fock.physical_cz), ("ch_v0", fock.physical_ch)):
        out = build(0.0)[0].apply(rho)
        ref[key] = [[[z.real, z.imag] for z in row] for row in out.tolist()]
    return ref


def hv_feasibility() -> dict:
    from qduality import hv

    ref = {"float": {}, "exact": {}}
    for n in workloads.HvFeasibility.FLOAT_N:
        rows = []
        for i in range(HV_FLOAT_CASES):
            settings = cases.hv_settings("float", n, i)
            targets = [hv.quantum_joint(t2, phi) for t2, phi in settings]
            result = hv.feasibility(targets, hv.SettingsList(settings))
            rows.append([result.feasible, float(result.residual)])
        ref["float"][str(n)] = rows
    for n in workloads.HvFeasibility.EXACT_N:
        rows = []
        i = 0
        while len(rows) < HV_EXACT_CASES:
            settings = cases.hv_settings("exact", n, i)
            targets = [cases.rationalize_joint(hv.quantum_joint(t2, phi)) for t2, phi in settings]
            cosines = [cases.rational_cos(phi) for _, phi in settings]
            wave = [cases.wave_probs_from_cos(c) for c in cosines]
            result = hv.feasibility(targets, hv.SettingsList(settings), wave)
            if not result.feasible:  # the exact_infeasible pool keeps infeasible cases only
                rows.append({"case": i,
                             "targets": [[[str(x) for x in row] for row in t] for t in targets],
                             "cos": [str(c) for c in cosines],
                             "residual": str(result.residual)})
            i += 1
        ref["exact"][str(n)] = rows
    return ref


EXPECTED_EXIT = {"hvcheck_infeasible": 3, "usage_error": 1}


def cli_session() -> dict:
    os.makedirs(os.path.join(workloads.ROOT, workloads.CLI_OUT), exist_ok=True)
    ref = {}
    for key, argv in workloads.CLI_COMMANDS.items():
        ref[key] = workloads.run_cli(argv)
        if ref[key]["exit"] != EXPECTED_EXIT.get(key, 0):
            raise SystemExit(f"{key}: exit {ref[key]['exit']}, expected {EXPECTED_EXIT.get(key, 0)}")
    return ref


BUILDERS = {"fock_pipeline": fock_pipeline, "hv_feasibility": hv_feasibility,
            "cli_session": cli_session}


def main(argv) -> int:
    for name in argv or BUILDERS:
        ref = BUILDERS[name]()
        path = os.path.join(HERE, "reference", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
