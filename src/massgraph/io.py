"""Script parsing, canonical JSON export, and DOT rendering.

Script documents (version 1) look like::

    {
      "version": 1,
      "kernel": {"mu": 0.0, "sigma": 1.0},
      "initial": {"masses": [2.0, 2.0], "edges": [[1, 2, 2.0]]},
      "events": [
        {"type": "add_edge", "k": 1, "l": 2, "w": 2.5},
        {"type": "add_node", "mass": 3.0, "label": "optional"},
        {"type": "prune", "threshold": 3.6}
      ]
    }

Parsing is strict: unknown fields are rejected so typos fail loudly. The
parser checks only the JSON's shape; every number rule (integer ids >= 1,
finite numbers, masses and weights > 1) is the model's own, from graph and
kernel, and reports the JSON path of the element that breaks it. Exports
are canonical -- keys sorted, floats rendered as their shortest round-trip
decimals -- so identical inputs always yield byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import NoReturn

from .engine import AddEdge, AddNode, Event, Prune, PruneReport
from .errors import InputError, MassGraphError, ScriptError
from .graph import GraphState, NodeRecord, above_one, edge_key, new_graph, node_id
from .kernel import KernelParams, as_float, as_int
from .scenario import PhaseHistory, run_script

SCRIPT_VERSION = 1


def _fail(path: str, message: str) -> NoReturn:
    raise ScriptError(f"{path}: {message}", path=path)


def _at(path: str, rule, *args):
    """``rule(*args)``, with a model error re-raised at the JSON ``path``."""
    try:
        return rule(*args)
    except MassGraphError as err:
        _fail(path, str(err))


def _as_object(value, path: str, required: tuple[str, ...],
               optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    for name in value:
        if name not in required and name not in optional:
            _fail(f"{path}.{name}", "unknown field")
    for name in required:
        if name not in value:
            _fail(path, f"missing required field '{name}'")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_triples(value, path: str) -> list[tuple[int, int, float]]:
    """A list of ``[i, j, w]`` edge triples as canonical ``(low, high, w)``,
    no pair listed twice."""
    triples: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for idx, raw in enumerate(_as_list(value, path)):
        entry_path = f"{path}[{idx}]"
        entry = _as_list(raw, entry_path)
        if len(entry) != 3:
            _fail(entry_path, f"expected [i, j, w], got {len(entry)} elements")
        i = _at(f"{entry_path}[0]", node_id, entry[0])
        j = _at(f"{entry_path}[1]", node_id, entry[1])
        key = _at(entry_path, edge_key, i, j)
        if key in seen:
            _fail(entry_path, f"duplicate edge for pair {key}")
        seen.add(key)
        triples.append((*key, _at(f"{entry_path}[2]", above_one, entry[2], "initial weight")))
    return triples


def _decode(data: bytes) -> object:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ScriptError(f"document is not valid UTF-8: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ScriptError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}",
            line=err.lineno, column=err.colno,
        ) from err
    except ValueError as err:  # an integer literal beyond Python's digit limit
        raise ScriptError(f"invalid JSON: {err}") from err


def _parse_event(raw, path: str) -> Event:
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    kind = raw.get("type")
    if kind == "add_edge":
        _as_object(raw, path, required=("type", "k", "l", "w"))
        k = _at(f"{path}.k", node_id, raw["k"])
        l = _at(f"{path}.l", node_id, raw["l"])
        _at(path, edge_key, k, l)
        w = _at(f"{path}.w", above_one, raw["w"], "edge weight")
        return AddEdge(k=k, l=l, initial_weight=w)
    if kind == "add_node":
        _as_object(raw, path, required=("type", "mass"), optional=("label",))
        mass = _at(f"{path}.mass", above_one, raw["mass"], "node mass")
        label = _as_str(raw["label"], f"{path}.label") if "label" in raw else None
        return AddNode(initial_mass=mass, label=label)
    if kind == "prune":
        _as_object(raw, path, required=("type", "threshold"))
        return Prune(threshold=_at(f"{path}.threshold", as_float, raw["threshold"],
                                   "prune threshold"))
    _fail(f"{path}.type", f"unknown event type {kind!r}")


def parse_script(data: bytes) -> tuple[GraphState, list[Event], KernelParams]:
    """Parse a version-1 script document into domain values.

    Raises :class:`ScriptError` with line/column for malformed JSON, or
    with the JSON path of the first violated constraint.
    """
    return _script_values(_decode(data))


def _script_values(doc) -> tuple[GraphState, list[Event], KernelParams]:
    root = _as_object(doc, "$", required=("version", "kernel", "initial", "events"))
    version = _at("version", as_int, root["version"], "version")
    if version != SCRIPT_VERSION:
        _fail("version", f"unsupported script version {version}, expected {SCRIPT_VERSION}")

    kernel_obj = _as_object(root["kernel"], "kernel", required=("mu", "sigma"))
    mu = _at("kernel.mu", as_float, kernel_obj["mu"], "mu")
    sigma = _at("kernel.sigma", as_float, kernel_obj["sigma"], "sigma")
    # with mu and sigma finite, only sigma's sign can still break KernelParams
    params = _at("kernel.sigma", KernelParams, mu, sigma)

    initial = _as_object(root["initial"], "initial", required=("masses", "edges"))
    masses = [
        _at(f"initial.masses[{idx}]", above_one, raw, "initial mass")
        for idx, raw in enumerate(_as_list(initial["masses"], "initial.masses"))
    ]
    triples = _as_triples(initial["edges"], "initial.edges")
    state = _at("initial.edges", new_graph, masses, triples, params)

    events = [
        _parse_event(raw, f"events[{idx}]")
        for idx, raw in enumerate(_as_list(root["events"], "events"))
    ]
    return state, events, params


def event_to_json(event: Event) -> dict:
    """One event as its tagged script-document record."""
    if isinstance(event, AddEdge):
        return {"type": "add_edge", "k": event.k, "l": event.l,
                "w": float(event.initial_weight)}
    if isinstance(event, AddNode):
        record = {"type": "add_node", "mass": float(event.initial_mass)}
        if event.label is not None:
            record["label"] = event.label
        return record
    if isinstance(event, Prune):
        return {"type": "prune", "threshold": float(event.threshold)}
    raise TypeError(f"not an event: {event!r}")


def script_document(initial: GraphState, events: list[Event]) -> dict:
    """Render a phase-0 state and event list as a script document."""
    if initial.phase != 0:
        raise InputError(f"script documents describe phase-0 states, got phase {initial.phase}")
    nodes = [initial.nodes[i] for i in sorted(initial.nodes)]
    if initial.nodes != {i: NodeRecord(rec.mass) for i, rec in enumerate(nodes, 1)}:
        raise InputError("phase-0 nodes must be numbered from 1, alive and unlabelled")
    return {
        "version": SCRIPT_VERSION,
        "kernel": {"mu": float(initial.params.mu), "sigma": float(initial.params.sigma)},
        "initial": {
            "masses": [float(rec.mass) for rec in nodes],
            "edges": _edges_to_json(initial),
        },
        "events": [event_to_json(event) for event in events],
    }


def canonical_json_bytes(obj) -> bytes:
    """Sorted keys, compact separators, shortest round-trip floats, one
    trailing newline: identical values always produce identical bytes."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"),
                       allow_nan=False) + "\n").encode("utf-8")


def _edges_to_json(state: GraphState) -> list:
    return [[a, b, float(edge.weight)] for (a, b), edge in sorted(state.edges.items())]


def _snapshot_to_json(state: GraphState) -> dict:
    nodes = []
    for i in sorted(state.nodes):
        rec = state.nodes[i]
        entry = {"id": i, "mass": float(rec.mass), "alive": rec.alive}
        if rec.label is not None:
            entry["label"] = rec.label
        nodes.append(entry)
    return {"phase": state.phase, "nodes": nodes, "edges": _edges_to_json(state)}


def _report_to_json(report: PruneReport) -> dict:
    return {
        "threshold": float(report.threshold),
        "removed_edges": [[a, b, float(w)] for (a, b), w in report.removed_edges],
        "removed_nodes": list(report.removed_nodes),
    }


def state_digest(state: GraphState) -> str:
    """Stable content hash of everything a state holds: its exported
    snapshot plus the kernel parameters. Non-finite values hash too."""
    payload = _snapshot_to_json(state)
    payload["params"] = [float(state.params.mu), float(state.params.sigma)]
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def export_history_json(history: PhaseHistory) -> bytes:
    """Canonical JSON bytes of a full-state history and of its script, which
    a ``history.source`` that is set must equal."""
    script = script_document(history.snapshots[0], history.events)
    if history.source is not None and history.source != script:
        raise InputError("history.source is not the script of this run")
    doc = {
        "script": script,
        "snapshots": [_snapshot_to_json(state) for state in history.snapshots],
        "prune_reports": [_report_to_json(report) for report in history.prune_reports],
    }
    return canonical_json_bytes(doc)


def _require_replay(raw, path: str, run: list, to_json) -> None:
    """Fail unless the JSON array ``raw`` equals ``run`` in its export
    layout ``to_json``, at the first entry and field that differ."""
    entries = _as_list(raw, path)
    if len(entries) != len(run):
        _fail(path, f"the script's run has {len(run)}, got {len(entries)}")
    for idx, (entry, value) in enumerate(zip(entries, run)):
        expected = to_json(value)
        if entry != expected:
            at = f"{path}[{idx}]"
            _as_object(entry, at, required=tuple(expected))
            name = next(name for name in expected if entry[name] != expected[name])
            _fail(at, f"{name} differs from the script's run")


def load_history(data: bytes) -> PhaseHistory:
    """Replay the script a history embeds and return that run.

    The engine is the only source of the returned states: the file's
    ``snapshots`` and ``prune_reports`` must equal, as decoded JSON values,
    the export of the replay -- exactly, so a history written where the
    float math differs in the last bit does not load. Errors carry the
    JSON path ``script`` when the script does not parse or its run fails,
    and otherwise the first entry that differs, such as ``snapshots[3]``,
    with the first differing field named in the message.
    """
    root = _as_object(_decode(data), "$", required=("script", "snapshots", "prune_reports"))
    initial, events, _ = _at("script", _script_values, root["script"])
    history = _at("script", run_script, initial, events)
    _require_replay(root["snapshots"], "snapshots", history.snapshots, _snapshot_to_json)
    _require_replay(root["prune_reports"], "prune_reports", history.prune_reports,
                    _report_to_json)
    return history


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(state: GraphState) -> bytes:
    """Graphviz DOT text of graph ``memory``: node diameter is
    0.3 + 0.15 * ln(mass), edge penwidth 1 + 0.75 * ln(max(weight, 1));
    dead nodes are omitted; ordering is ascending ids."""
    lines = ["graph memory {",
             "  node [shape=circle fixedsize=true];"]
    for i in state.alive_ids():
        rec = state.nodes[i]
        width = 0.3 + 0.15 * math.log(rec.mass)
        label = _dot_escape(rec.label) if rec.label is not None else str(i)
        lines.append(f'  {i} [label="{label}" width={width:.4f}];')
    for (a, b), edge in sorted(state.edges.items()):
        pen = 1.0 + 0.75 * math.log(max(edge.weight, 1.0))
        lines.append(f"  {a} -- {b} [penwidth={pen:.4f}];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
