"""Metric names, units and how each per-layer metric is read off a traced run.

BENCHMARK.json lists the same names and units; selftest.py checks that the
two agree.  Per-layer counts and seconds are totals per traced round (one
pass over a round's task mix), so they do not depend on how many rounds a
run fitted into its time.  See README.md for which end-to-end metric each
layer metric should move, and on which workload.
"""

from __future__ import annotations

from spans import LAYERS

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("tasks_per_s", "1/s", "higher"),
    ("task_p50_ms", "ms", "lower"),
    ("task_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _calls(span):
    return lambda s, c, x: s.get(span, {}).get("calls", 0)


def _self(span):
    return lambda s, c, x: s.get(span, {}).get("self_s", 0.0)


def _count(key):
    return lambda s, c, x: c.get(key, 0)


def _extra(key):
    return lambda s, c, x: x.get(key, 0.0)


def _kept_ratio(s, c, x):
    attempted = c.get("fock.postselect.input", 0)
    return c.get("fock.postselect.kept", 0) / attempted if attempted else 0.0


def _share(layer):
    def share(s, c, x):
        total = x.get("traced_task_s", 0.0)
        busy = sum(v["self_s"] for k, v in s.items() if k.split(".", 1)[0] == layer)
        return busy / total if total else 0.0
    return share


def _other_share(s, c, x):
    return 1.0 - sum(_share(layer)(s, c, x) for layer in LAYERS) if x.get("traced_task_s") else 0.0


# name, unit, better, value(summary, counters, extra), divided by traced rounds
PER_LAYER = (
    ("qstate.objects.built", "count", "lower", _calls("qstate.objects"), True),
    ("qstate.objects.self_s", "s", "lower", _self("qstate.objects"), True),
    ("qstate.apply_gate.calls", "count", "lower", _calls("qstate.apply_gate"), True),
    ("qstate.apply_gate.self_s", "s", "lower", _self("qstate.apply_gate"), True),
    ("qstate.outcome_probability.calls", "count", "lower", _calls("qstate.outcome_probability"), True),
    ("qstate.outcome_probability.self_s", "s", "lower", _self("qstate.outcome_probability"), True),
    ("circuit.coincidence_probabilities.calls", "count", "lower",
     _calls("circuit.coincidence_probabilities"), True),
    ("circuit.coincidence_probabilities.self_s", "s", "lower",
     _self("circuit.coincidence_probabilities"), True),
    ("circuit.final_state.calls", "count", "lower", _calls("circuit.final_state"), True),
    ("circuit.final_state.self_s", "s", "lower", _self("circuit.final_state"), True),
    ("circuit.joint_probability.calls", "count", "lower", _calls("circuit.joint_probability"), True),
    ("circuit.joint_probability.self_s", "s", "lower", _self("circuit.joint_probability"), True),
    ("circuit.correlation_surface.points", "count", "higher",
     _count("circuit.correlation_surface.points"), True),
    ("circuit.correlation_surface.self_s", "s", "lower", _self("circuit.correlation_surface"), True),
    ("circuit.sample_counts.calls", "count", "lower", _calls("circuit.sample_counts"), True),
    ("circuit.sample_counts.self_s", "s", "lower", _self("circuit.sample_counts"), True),
    ("circuit.sample_counts.shots", "count", "higher", _count("circuit.sample_counts.shots"), True),
    ("circuit.sample_counts.bytes_computed", "B", "lower",
     _count("circuit.sample_counts.bytes_computed"), True),
    ("fock.ModeState.transform.calls", "count", "lower", _calls("fock.ModeState.transform"), True),
    ("fock.ModeState.transform.self_s", "s", "lower", _self("fock.ModeState.transform"), True),
    ("fock.ModeState.transform.terms", "count", "lower", _count("fock.ModeState.transform.terms"), True),
    ("fock.postselect.kept_ratio", "ratio", "higher", _kept_ratio, False),
    ("fock.physical_correlation.calls", "count", "lower", _calls("fock.physical_correlation"), True),
    ("fock.physical_correlation.self_s", "s", "lower", _self("fock.physical_correlation"), True),
    ("fock.gate_maps.self_s", "s", "lower", _self("fock.gate_maps"), True),
    ("hv.feasibility.calls", "count", "lower", _calls("hv.feasibility"), True),
    ("hv.feasibility.self_s", "s", "lower", _self("hv.feasibility"), True),
    ("hv.enumerate_strategies.strategies", "count", "lower",
     _count("hv.enumerate_strategies.strategies"), True),
    ("hv.enumerate_strategies.self_s", "s", "lower", _self("hv.enumerate_strategies"), True),
    ("hv.linprog.calls", "count", "lower", _calls("hv.linprog"), True),
    ("hv.linprog.self_s", "s", "lower", _self("hv.linprog"), True),
    ("hv.linprog.cells", "count", "lower", _count("hv.linprog.cells"), True),
    ("hv.quantum_joint.calls", "count", "lower", _calls("hv.quantum_joint"), True),
    ("hv.quantum_joint.self_s", "s", "lower", _self("hv.quantum_joint"), True),
    ("hv.witness.strategies", "count", "lower", _count("hv.witness.strategies"), True),
    ("lp.solve.calls", "count", "lower", _calls("lp.solve"), True),
    ("lp.solve.self_s", "s", "lower", _self("lp.solve"), True),
    ("lp.pivots", "count", "lower", _calls("lp.pivot"), True),
    ("lp.pivot.self_s", "s", "lower", _self("lp.pivot"), True),
    ("lp.tableau_cells", "count", "lower", _count("lp.tableau_cells"), True),
    ("cli.import_s", "s", "lower", _extra("cli.import_s"), False),
    ("cli.import.scipy_share", "ratio", "lower", _extra("cli.import.scipy_share"), False),
    ("cli.main.self_s", "s", "lower", _self("cli.main"), True),
    ("trace.overhead_frac", "ratio", "lower", _extra("trace.overhead_frac"), False),
) + tuple((f"share.{layer}", "ratio", "lower", _share(layer), False) for layer in LAYERS) + (
    ("share.other", "ratio", "lower", _other_share, False),
)


def per_layer(summary: dict, counters: dict, extra: dict, rounds: int) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}."""
    out = {}
    for name, unit, _, value, per_round in PER_LAYER:
        v = value(summary, counters, extra)
        out[name] = {"value": v / rounds if per_round and rounds else v, "unit": unit}
    return out
