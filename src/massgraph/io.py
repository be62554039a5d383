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

Parsing is strict: unknown fields are rejected so typos fail loudly, and
every numeric constraint of the domain types is re-checked with a JSON
path in the error. Exports are canonical -- keys sorted, floats rendered
as their shortest round-trip decimals -- so identical inputs always yield
byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NoReturn

from .engine import AddEdge, AddNode, Event, Prune, PruneReport
from .errors import InputError, ScriptError
from .graph import EdgeRecord, GraphState, NodeRecord, new_graph, validate_state
from .kernel import KernelParams
from .scenario import PhaseHistory

SCRIPT_VERSION = 1


def _fail(path: str, message: str) -> NoReturn:
    raise ScriptError(f"{path}: {message}", path=path)


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


def _as_number(value, path: str, *, exclusive_min: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    v = float(value)
    if not math.isfinite(v):
        _fail(path, f"must be finite, got {value}")
    if exclusive_min is not None and not v > exclusive_min:
        _fail(path, f"must be > {exclusive_min}, got {value}")
    return v


def _as_int(value, path: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {type(value).__name__}")
    return value


def _as_triples(value, path: str, *, max_id: int | None = None,
                exclusive_min: float | None = None) -> list[tuple[int, int, float]]:
    """A list of ``[i, j, w]`` edge triples as canonical ``(low, high, w)``:
    endpoints distinct (and at most ``max_id``), no pair listed twice."""
    triples: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for idx, raw in enumerate(_as_list(value, path)):
        entry_path = f"{path}[{idx}]"
        entry = _as_list(raw, entry_path)
        if len(entry) != 3:
            _fail(entry_path, f"expected [i, j, w], got {len(entry)} elements")
        i = _as_int(entry[0], f"{entry_path}[0]", minimum=1)
        j = _as_int(entry[1], f"{entry_path}[1]", minimum=1)
        if i == j:
            _fail(entry_path, f"edge endpoints must differ, got {i} twice")
        if max_id is not None and max(i, j) > max_id:
            _fail(entry_path, f"endpoint out of range, only nodes 1..{max_id} exist")
        key = (i, j) if i < j else (j, i)
        if key in seen:
            _fail(entry_path, f"duplicate edge for pair {key}")
        seen.add(key)
        triples.append((*key, _as_number(entry[2], f"{entry_path}[2]",
                                         exclusive_min=exclusive_min)))
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


def _parse_event(raw, path: str) -> Event:
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    kind = raw.get("type")
    if kind == "add_edge":
        _as_object(raw, path, required=("type", "k", "l", "w"))
        k = _as_int(raw["k"], f"{path}.k", minimum=1)
        l = _as_int(raw["l"], f"{path}.l", minimum=1)
        if k == l:
            _fail(path, f"edge endpoints must differ, got k = l = {k}")
        w = _as_number(raw["w"], f"{path}.w", exclusive_min=1.0)
        return AddEdge(k=k, l=l, initial_weight=w)
    if kind == "add_node":
        _as_object(raw, path, required=("type", "mass"), optional=("label",))
        mass = _as_number(raw["mass"], f"{path}.mass", exclusive_min=1.0)
        label = _as_str(raw["label"], f"{path}.label") if "label" in raw else None
        return AddNode(initial_mass=mass, label=label)
    if kind == "prune":
        _as_object(raw, path, required=("type", "threshold"))
        return Prune(threshold=_as_number(raw["threshold"], f"{path}.threshold"))
    _fail(f"{path}.type", f"unknown event type {kind!r}")


def parse_script(data: bytes) -> tuple[GraphState, list[Event], KernelParams]:
    """Parse a version-1 script document into domain values.

    Raises :class:`ScriptError` with line/column for malformed JSON, or
    with the JSON path of the first violated constraint.
    """
    doc = _decode(data)
    root = _as_object(doc, "$", required=("version", "kernel", "initial", "events"))
    version = _as_int(root["version"], "version")
    if version != SCRIPT_VERSION:
        _fail("version", f"unsupported script version {version}, expected {SCRIPT_VERSION}")

    kernel_obj = _as_object(root["kernel"], "kernel", required=("mu", "sigma"))
    mu = _as_number(kernel_obj["mu"], "kernel.mu")
    sigma = _as_number(kernel_obj["sigma"], "kernel.sigma", exclusive_min=0.0)
    params = KernelParams(mu=mu, sigma=sigma)

    initial = _as_object(root["initial"], "initial", required=("masses", "edges"))
    masses = [
        _as_number(raw, f"initial.masses[{idx}]", exclusive_min=1.0)
        for idx, raw in enumerate(_as_list(initial["masses"], "initial.masses"))
    ]
    triples = _as_triples(initial["edges"], "initial.edges", max_id=len(masses),
                          exclusive_min=1.0)

    events = [
        _parse_event(raw, f"events[{idx}]")
        for idx, raw in enumerate(_as_list(root["events"], "events"))
    ]
    return new_graph(masses, triples, params), events, params


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
    ids = initial.node_ids()
    if ids != list(range(1, len(ids) + 1)):
        raise InputError("phase-0 node ids must be contiguous from 1")
    return {
        "version": SCRIPT_VERSION,
        "kernel": {"mu": float(initial.params.mu), "sigma": float(initial.params.sigma)},
        "initial": {
            "masses": [float(initial.nodes[i].mass) for i in ids],
            "edges": [
                [key[0], key[1], float(edge.weight)]
                for key, edge in sorted(initial.edges.items())
            ],
        },
        "events": [event_to_json(event) for event in events],
    }


def canonical_json_bytes(obj) -> bytes:
    """Sorted keys, compact separators, shortest round-trip floats, one
    trailing newline: identical values always produce identical bytes."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"),
                       allow_nan=False) + "\n").encode("utf-8")


def _snapshot_to_json(state: GraphState) -> dict:
    nodes = []
    for i in sorted(state.nodes):
        rec = state.nodes[i]
        entry = {"id": i, "mass": float(rec.mass), "alive": rec.alive}
        if rec.label is not None:
            entry["label"] = rec.label
        nodes.append(entry)
    return {
        "phase": state.phase,
        "nodes": nodes,
        "edges": [
            [key[0], key[1], float(edge.weight)]
            for key, edge in sorted(state.edges.items())
        ],
    }


def export_history_json(history: PhaseHistory) -> bytes:
    """Canonical JSON bytes of a full-state history."""
    doc = {
        "script": history.source,
        "snapshots": [_snapshot_to_json(state) for state in history.snapshots],
        "prune_reports": [
            {
                "threshold": float(report.threshold),
                "removed_edges": [[a, b, float(w)] for (a, b), w in report.removed_edges],
                "removed_nodes": list(report.removed_nodes),
            }
            for report in history.prune_reports
        ],
    }
    return canonical_json_bytes(doc)


def _parse_snapshot(raw, path: str, params: KernelParams) -> GraphState:
    obj = _as_object(raw, path, required=("phase", "nodes", "edges"))
    phase = _as_int(obj["phase"], f"{path}.phase", minimum=0)
    nodes: dict[int, NodeRecord] = {}
    for idx, raw_node in enumerate(_as_list(obj["nodes"], f"{path}.nodes")):
        node_path = f"{path}.nodes[{idx}]"
        node_obj = _as_object(raw_node, node_path,
                              required=("id", "mass", "alive"), optional=("label",))
        node_id = _as_int(node_obj["id"], f"{node_path}.id", minimum=1)
        if node_id in nodes:
            _fail(node_path, f"duplicate node id {node_id}")
        nodes[node_id] = NodeRecord(
            mass=_as_number(node_obj["mass"], f"{node_path}.mass"),
            label=_as_str(node_obj["label"], f"{node_path}.label") if "label" in node_obj else None,
            alive=_as_bool(node_obj["alive"], f"{node_path}.alive"),
        )
    # drifted weights below 1 are legal in histories; only structure is checked
    edges = {(i, j): EdgeRecord(w) for i, j, w in _as_triples(obj["edges"], f"{path}.edges")}
    return GraphState(phase=phase, nodes=nodes, edges=edges, params=params)


def load_history(data: bytes) -> PhaseHistory:
    """Parse an exported history back into snapshots and reports.

    A snapshot's JSON holds everything a state defines, and the kernel
    parameters come from the embedded script, so every loaded snapshot has
    the same :func:`state_digest` as the state that was exported.
    """
    doc = _decode(data)
    root = _as_object(doc, "$", required=("script", "snapshots", "prune_reports"))
    script = root["script"]
    events: list[Event] = []
    params = KernelParams()
    if script is not None:
        _, events, params = parse_script(canonical_json_bytes(script))
    snapshots = [
        _parse_snapshot(raw, f"snapshots[{idx}]", params)
        for idx, raw in enumerate(_as_list(root["snapshots"], "snapshots"))
    ]
    for idx, state in enumerate(snapshots):
        if state.phase != idx:
            _fail(f"snapshots[{idx}].phase", f"expected phase {idx}, got {state.phase}")
        problems = validate_state(state)
        if problems:
            _fail(f"snapshots[{idx}]", "; ".join(problems))
    reports = []
    for idx, raw in enumerate(_as_list(root["prune_reports"], "prune_reports")):
        path = f"prune_reports[{idx}]"
        obj = _as_object(raw, path, required=("threshold", "removed_edges", "removed_nodes"))
        removed_edges = tuple(
            ((a, b), w) for a, b, w in _as_triples(obj["removed_edges"], f"{path}.removed_edges")
        )
        removed_nodes = tuple(
            _as_int(raw_id, f"{path}.removed_nodes[{jdx}]", minimum=1)
            for jdx, raw_id in enumerate(_as_list(obj["removed_nodes"], f"{path}.removed_nodes"))
        )
        reports.append(PruneReport(
            threshold=_as_number(obj["threshold"], f"{path}.threshold"),
            removed_edges=removed_edges,
            removed_nodes=removed_nodes,
        ))
    return PhaseHistory(source=script, snapshots=snapshots, events=events,
                        prune_reports=reports)


@dataclass(frozen=True)
class DotStyle:
    """Scaling of masses to node diameters and weights to line widths."""

    node_base: float = 0.3
    node_scale: float = 0.15
    pen_base: float = 1.0
    pen_scale: float = 0.75
    graph_name: str = "memory"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(state: GraphState, style: DotStyle | None = None) -> bytes:
    """Graphviz DOT text: node diameter grows with ln(mass), edge penwidth
    with ln(weight); dead nodes are omitted; ordering is ascending ids."""
    if style is None:
        style = DotStyle()
    lines = [f"graph {style.graph_name} {{",
             "  node [shape=circle fixedsize=true];"]
    for i in state.alive_ids():
        rec = state.nodes[i]
        width = style.node_base + style.node_scale * math.log(rec.mass)
        label = _dot_escape(rec.label) if rec.label is not None else str(i)
        lines.append(f'  {i} [label="{label}" width={width:.4f}];')
    for key in sorted(state.edges):
        a, b = key
        pen = style.pen_base + style.pen_scale * math.log(max(state.edges[key].weight, 1.0))
        lines.append(f"  {a} -- {b} [penwidth={pen:.4f}];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
