"""Guards for the one message path per node.

The protocols are written once, as sans-io ``*_effects`` generators; the
cycle engine drives them and the service runtime delegates to them.  A
synchronous twin ``name`` next to ``name_effects`` is a second copy of the
same protocol step, so the only such pair allowed is the node's two wire
entry points, one per driver.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.p3q import node as node_module
from repro.simulator import transport

SRC = Path(node_module.__file__).resolve().parents[1]

#: The two drivers' entry points: ``handle_message`` (cycle engine) and
#: ``handle_message_effects`` (service runtime) share one handler table.
ALLOWED_PAIRS = {("P3QNode", "handle_message")}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_class_defines_a_sync_twin_of_an_effects_method():
    twins = []
    for path, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = {
                item.name
                for item in cls.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for name in sorted(names):
                if f"{name}_effects" in names and (cls.name, name) not in ALLOWED_PAIRS:
                    twins.append(f"{path.relative_to(SRC)}:{cls.name}.{name}")
    assert twins == []


def _messages_sent_through_effects():
    """Message classes the protocols yield inside a request or one-way send."""
    catalogue = {
        name: obj
        for name, obj in vars(transport).items()
        if isinstance(obj, type) and issubclass(obj, transport.Message)
    }
    sent = set()
    for _path, tree in _modules():
        for call in ast.walk(tree):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in ("RequestEffect", "SendEffect")
                and len(call.args) >= 3
                and isinstance(call.args[2], ast.Call)
                and isinstance(call.args[2].func, ast.Name)
            ):
                sent.add(catalogue[call.args[2].func.id])
    return sent, catalogue


def test_node_handler_tables_are_disjoint():
    plain = set(node_module._MESSAGE_HANDLERS)
    round_trip = set(node_module._ROUND_TRIP_HANDLERS)
    assert plain.isdisjoint(round_trip)


def test_node_handler_tables_cover_every_message_a_node_receives():
    sent, catalogue = _messages_sent_through_effects()
    # A latency transport defers a deferrable reply and delivers it later
    # as a one-way send (``Transport.drain``), so it reaches the handlers
    # too; non-deferrable replies only ever return to a live round-trip.
    deferred = {cls for cls in catalogue.values() if cls.DEFERRABLE}
    handled = set(node_module._MESSAGE_HANDLERS) | set(node_module._ROUND_TRIP_HANDLERS)
    assert sent, "no RequestEffect / SendEffect found under src/repro"
    assert handled == sent | deferred
