"""The hot-path rule: no generic builtin call per event or per entry.

On CPython a call to min, max, range, length_hint, sorted or sum costs
several times the inline code it stands for (README, "Benchmark and
exactness checks"), and the functions below run once per engine event or
per ring entry. Each one is looked up in the package source by its
qualified name, nested functions included ("Nic.attach_connection.poll_event"
is the poll callback built there, "Engine.run_queue.fn" the callback of a
run queue), and its AST may call none of those builtins beyond the
per-batch exceptions named in ALLOWED. This is a check on the code, not a
timing.
"""

import ast
from pathlib import Path

import pytest

import nicsim

PKG = Path(nicsim.__file__).parent

BANNED = {"min", "max", "range", "length_hint", "sorted", "sum"}

# module -> functions that run per event or per entry
HOT = {
    "engine": ["Engine.schedule", "Engine.schedule_batch", "Engine.run_queue.fn",
               "Engine.run_until"],
    "interconnect": ["BusArbiter.request"],
    "rings": [
        "TxRing.tx_acquire_run", "TxRing.tx_publish_run", "TxRing.dirty_run",
        "TxRing.nic_fetch", "TxRing.nic_release", "RxRing.rx_deliver_run",
        "RxRing.rx_poll_run", "RxRing.rx_release_run", "_as_entry", "_entries", "_lead",
        "_read", "_write",
    ],
    "nic": [
        "Wire.send", "Wire.send_batch",
        "Nic.attach_connection.poll_event", "Nic.attach_connection.fetch_event",
        "Nic.attach_connection.forward_event", "Nic.on_tx_publish",
        "Nic._on_inval",
        "Nic._trigger_batch", "Nic._fetch", "Nic.rx_arrival", "Nic.rx_arrival_batch",
        "Nic._rx_deliver", "Nic.on_rx_slot_freed",
    ],
    "host": [
        "_ConnHost._submit_run", "_ConnHost._copied",
        "_ConnHost.on_tx_free", "_ConnHost.on_rx_visible", "_ConnHost._pickups",
        "_ConnHost._pickup", "ClientEndpoint.start_call", "ClientEndpoint._take_run",
        "ServerEndpoint._take", "ServerEndpoint._answer", "ServerEndpoint._answer_run",
    ],
}

# (module, function, builtin) -> calls allowed: once per batch, not per entry
ALLOWED = {
    # the items of the delivery batch handed to schedule_batch
    ("nic", "Nic.rx_arrival_batch", "range"): 1,
    # the items of the pickup batch handed to schedule_batch, and the
    # record loop that runs only when a trace is collected
    ("host", "_ConnHost.on_rx_visible", "range"): 2,
}


def _find(tree, qualname):
    node = tree
    for part in qualname.split("."):
        matches = [n for n in ast.iter_child_nodes(node)
                   if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part]
        if len(matches) != 1:
            raise LookupError(qualname)
        node = matches[0]
    return node


def _builtin_calls(fn):
    """{builtin name: calls} made anywhere inside fn."""
    calls = {}
    for n in ast.walk(fn):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in BANNED:
            calls[n.func.id] = calls.get(n.func.id, 0) + 1
    return calls


@pytest.mark.parametrize("module,qualname",
                         [(m, q) for m, names in HOT.items() for q in names])
def test_hot_function_calls_no_generic_builtin(module, qualname):
    tree = ast.parse((PKG / f"{module}.py").read_text())
    calls = _builtin_calls(_find(tree, qualname))
    over = {name: n for name, n in calls.items()
            if n > ALLOWED.get((module, qualname, name), 0)}
    assert not over, f"{module}.{qualname} calls {over} per event (see ALLOWED)"


def test_every_allowed_exception_is_still_used():
    # an exception that the code no longer needs is taken out of ALLOWED
    for (module, qualname, name), n in ALLOWED.items():
        assert qualname in HOT[module]
        tree = ast.parse((PKG / f"{module}.py").read_text())
        assert _builtin_calls(_find(tree, qualname)).get(name, 0) == n, (module, qualname, name)


def test_the_rule_catches_a_builtin_call():
    tree = ast.parse("class A:\n    def f(self, a, b):\n"
                     "        def g():\n            return max(a, b)\n        return g\n")
    assert _builtin_calls(_find(tree, "A.f")) == {"max": 1}
    assert _builtin_calls(_find(tree, "A.f.g")) == {"max": 1}
    with pytest.raises(LookupError):
        _find(tree, "A.h")
