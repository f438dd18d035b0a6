"""The layer boundaries the traced run wraps, and the per-layer metrics.

Everything here acts on pitchsim from outside. ``pitchsim.engine`` binds
its layer functions by name (``from .mobility import step_player``), so the
traced run rebinds those names in the engine module, plus a few methods
and the names ``pitchsim.cli`` binds, and restores them all afterwards.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from spans import SpanLog, SpanTotals, TracerCost

# name bound in pitchsim.engine -> layer
ENGINE_NAMES = {
    "step_group_reference": "mobility",
    "schedule_mode": "mobility",
    "step_player": "mobility",
    "step_lactate": "physiology",
    "trigger_transmissions": "protocol.trigger",
    "thefame_route": "protocol.routing",
    "wstm_route": "protocol.routing",
    "transmit_hop": "channel",
    "propagation_delay": "channel",
    "direct_tx_energy": "energy",
    "relay_rx_energy": "energy",
}

# name bound in pitchsim.cli -> layer; the benchmark points cli.run_match
# at its own engine entry, which the match workloads call as well
CLI_NAMES = {
    "run_match": "engine",
    "parse_scenario": "scenario",
    "emit_comparison_reports": "report",
}

# (module, class, attribute, layer); Battery.dead is a property
METHODS = (
    ("physiology", "FatigueMonitor", "check", "physiology"),
    ("energy", "Battery", "debit", "energy"),
    ("energy", "Battery", "dead", "energy"),
    ("engine", "MatchSim", "alive_count", "engine"),
    ("engine", "MatchSim", "residual_total", "engine"),
)

CLI_SPAN = "cli/main"

SELF_LAYERS = ("mobility", "physiology", "protocol.trigger", "protocol.routing",
               "channel", "energy", "engine", "report", "scenario", "cli")

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    "mobility.calls": "count",
    "physiology.calls": "count",
    "physiology.events": "count",
    "protocol.trigger.packets": "count",
    "protocol.routing.calls": "count",
    "protocol.routing.hops": "count",
    "protocol.routing.found_ratio": "ratio",
    "geometry.points": "count",
    "channel.trials": "count",
    "channel.delivered_ratio": "ratio",
    "energy.debits": "count",
    "energy.dead_checks": "count",
    "engine.scans": "count",
    "report.bytes": "bytes",
    "trace.overhead_s": "s",
}

# per-layer metrics that must repeat exactly for the same code and seed
COUNT_METRICS = tuple(k for k, unit in PER_LAYER_UNITS.items()
                      if unit in ("count", "bytes", "ratio"))


def layer_of(span_name: str) -> str:
    """Span names are ``layer/function``."""
    return span_name.split("/", 1)[0]


def _on_result_hooks(counts):
    def event(result):
        if result is not None:
            counts["physiology.events"] += 1

    def packets(result):
        counts["protocol.trigger.packets"] += len(result)

    def route(result):
        if result is not None:
            counts["protocol.routing.found"] += 1
            counts["protocol.routing.hops"] += result.n_hops

    def hop(result):
        if result:
            counts["channel.delivered"] += 1

    def report(paths):
        counts["report.bytes"] += sum(os.path.getsize(p) for p in paths)

    return {
        "physiology/FatigueMonitor.check": event,
        "protocol.trigger/trigger_transmissions": packets,
        "protocol.routing/thefame_route": route,
        "protocol.routing/wstm_route": route,
        "channel/transmit_hop": hop,
        "report/emit_comparison_reports": report,
    }


@contextmanager
def instrumented(log: SpanLog, pitchsim_modules: dict):
    """Wrap every layer boundary of the given pitchsim modules (by short
    name: engine, cli, energy, ...) while the block runs."""
    hooks = _on_result_hooks(log.counts)
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrapped(fn, span_name):
        return log.wrap(fn, span_name, hooks.get(span_name))

    try:
        engine, cli = pitchsim_modules["engine"], pitchsim_modules["cli"]
        for attr, layer in ENGINE_NAMES.items():
            patch(engine, attr, wrapped(getattr(engine, attr), f"{layer}/{attr}"))
        for attr, layer in CLI_NAMES.items():
            patch(cli, attr, wrapped(getattr(cli, attr), f"{layer}/{attr}"))
        for module, cls_name, attr, layer in METHODS:
            cls = getattr(pitchsim_modules[module], cls_name)
            original = vars(cls)[attr]
            name = f"{layer}/{cls_name}.{attr}"
            if isinstance(original, property):
                patch(cls, attr, property(wrapped(original.fget, name)))
            else:
                patch(cls, attr, wrapped(original, name))
        point = pitchsim_modules["geometry"].Point
        patch(point, "__post_init__", log.count_calls(point.__post_init__))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(totals: SpanTotals, run_id: int, counts, cost: TracerCost,
                  tracer_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced op (one run id), except the trace
    overhead. ``tracer_s``, the op's traced minus untraced wall time, is
    taken off the self times in the proportions ``cost`` gives."""
    keys = [key for key in totals.calls if key[0] == run_id]
    model_ns = sum(totals.tracer_ns(key, cost) for key in keys)
    scale = max(tracer_s * 1e9, 0.0) / model_ns if model_ns else 0.0
    self_ns = dict.fromkeys(SELF_LAYERS, 0.0)
    calls: dict[str, int] = {}
    points = 0
    for key in keys:
        name = key[1]
        calls[name] = totals.calls[key]
        self_ns[layer_of(name)] += (totals.self_ns[key]
                                    - scale * totals.tracer_ns(key, cost))
        points += totals.counted[key]

    def layer_calls(layer):
        return sum(n for name, n in calls.items() if layer_of(name) == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_s": ns / 1e9 for layer, ns in self_ns.items()}
    routes = layer_calls("protocol.routing")
    trials = calls.get("channel/transmit_hop", 0)
    m.update({
        "mobility.calls": layer_calls("mobility"),
        "physiology.calls": layer_calls("physiology"),
        "physiology.events": counts["physiology.events"],
        "protocol.trigger.packets": counts["protocol.trigger.packets"],
        "protocol.routing.calls": routes,
        "protocol.routing.hops": counts["protocol.routing.hops"],
        "protocol.routing.found_ratio": ratio(counts["protocol.routing.found"], routes),
        "geometry.points": points,
        "channel.trials": trials,
        "channel.delivered_ratio": ratio(counts["channel.delivered"], trials),
        "energy.debits": calls.get("energy/Battery.debit", 0),
        "energy.dead_checks": calls.get("energy/Battery.dead", 0),
        "engine.scans": (calls.get("engine/MatchSim.alive_count", 0)
                         + calls.get("engine/MatchSim.residual_total", 0)),
        "report.bytes": counts["report.bytes"],
    })
    return m
