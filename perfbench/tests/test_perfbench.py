"""Tests of the benchmark's own machinery (perfbench/)."""

import functools
import json
import sys
import threading
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402
import serve_load  # noqa: E402
import sweeps  # noqa: E402
from tracer import (  # noqa: E402
    Tracer,
    callback_layer,
    layer_of,
    self_times_from_spans,
)

common.use_source_tree()


def busy(n: int) -> int:
    return sum(range(n))


def test_same_seed_gives_the_same_request_sequence():
    first = serve_load.request_sequence(7, 0, 128)
    assert first == serve_load.request_sequence(7, 0, 128)
    assert first != serve_load.request_sequence(8, 0, 128)
    assert first != serve_load.request_sequence(7, 1, 128)
    stride = 1 + serve_load.WARM_PER_COLD
    assert len(first) == 128 * stride
    asked = set()
    for position, index in enumerate(first):
        if position % stride == 0:
            assert index not in asked  # each point's first query is cold
            asked.add(index)
        else:
            assert index in asked  # revisits only ask points already asked
    assert asked == set(range(128))


def test_a_perturbed_record_fails_the_digest_check():
    from repro.orchestrate.manifest import apply_overrides
    from repro.sweep import run_sweep

    pin = next(point for point
               in common.load_pins()["workloads"]["serve-mixed"]["points"]
               if point["sweep"] == "packet-size"
               and point["args"]["size"] == 16 and point["key"] == "64")
    spec = apply_overrides("packet-size", dict(pin["args"], packets=[64]))
    record = run_sweep(spec, workers=1, cache=False).outcomes[0].record
    reply = {"key": pin["key"], "cached": False, "record": record}
    assert serve_load.check_reply(pin, 200, json.dumps(reply).encode())[0]

    stats = dict(record["component_stats"])
    first = sorted(stats)[0]
    stats[first] += 1
    perturbed = dict(reply, record=dict(record, component_stats=stats))
    ok, _cached, reason = serve_load.check_reply(
        pin, 200, json.dumps(perturbed).encode())
    assert not ok and "differs" in reason
    assert not serve_load.check_reply(pin, 500, b"{}")[0]


def test_self_time_is_parent_minus_children_per_thread():
    tracer = Tracer()
    leaf = tracer.wrap_function(lambda: busy(20_000), "leaf")

    def middle_body():
        busy(10_000)
        leaf()
        leaf()

    middle = tracer.wrap_function(middle_body, "middle")

    def top():
        with tracer.span("top", op="op-1"):
            busy(5_000)
            middle()

    threads = [threading.Thread(target=top) for _ in range(2)]
    for thread in threads:
        thread.start()
    top()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()

    states = tracer.threads()
    assert len(states) == 3
    for state in states:
        spans = {name: [s for s in state.log if s[2] == name]
                 for name in ("top", "middle", "leaf")}
        assert [len(spans[name]) for name in spans] == [1, 1, 2]
        duration = {name: sum(s[4] - s[3] for s in group)
                    for name, group in spans.items()}
        assert state.self_ns["top"] == duration["top"] - duration["middle"]
        assert state.self_ns["middle"] == duration["middle"] - duration["leaf"]
        assert state.self_ns["leaf"] == duration["leaf"]
        assert sum(state.self_ns.values()) == duration["top"]
        assert self_times_from_spans(state.log) == state.self_ns
        assert {span[5] for span in state.log} == {"op-1"}


def test_callback_layer_for_bound_methods_closures_and_lambdas():
    from repro.cache.cache import Cache
    from repro.dma.engine import DMAEngine
    from repro.interconnect.bus import MemBus

    holder = object()
    assert callback_layer(types.MethodType(Cache.send, holder)) == "cache"
    # An inherited method belongs to the package that defines it.
    assert callback_layer(types.MethodType(MemBus.schedule, holder)) == "sim"
    namespace = {"__name__": "repro.interconnect.pcie.link"}
    exec("def outer(x):\n"
         "    def closure():\n"
         "        return x\n"
         "    return closure, (lambda: x)\n", namespace)
    closure, lam = namespace["outer"](1)
    assert callback_layer(closure) == "interconnect.pcie"
    assert callback_layer(lam) == "interconnect.pcie"
    assert callback_layer(functools.partial(DMAEngine.submit, holder)) == "dma"
    assert callback_layer(lambda: None) == "other"


def test_layer_self_times_sum_to_traced_operation_time(tmp_path):
    from repro.core.runner import clear_system_memo
    from repro.sweep import build_sweep

    tracer = Tracer()
    clear_system_memo()
    tracer.install()
    try:
        spec = build_sweep("packet-size", size=16, packets=(64, 128))
        outcomes, _gaps, pass_ns = sweeps.timed_pass(spec, tmp_path, tracer)
    finally:
        tracer.uninstall()
        # Systems built while traced hold wrapped bound methods.
        clear_system_memo()
    totals = tracer.totals()
    assert len(outcomes) == 2
    assert abs(sum(totals["self_ns"].values()) - pass_ns) <= 0.05 * pass_ns
    layers = {layer_of(name) for name in totals["self_ns"]}
    assert {"sweep", "sweep.cache", "core.acquire", "core.drive",
            "core.snapshot", "sim", "cache", "interconnect.bus",
            "interconnect.pcie", "smmu", "dma", "memory", "accel"} <= layers
    assert totals["events"] > 0
