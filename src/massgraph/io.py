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
parser checks only the JSON's shape and the version; each model rule lives
where the model takes the values (:class:`KernelParams`, ``new_graph``,
the event types), and the parser puts the JSON element it handed over
before the ``path`` an error names: ``kernel.sigma``,
``initial.edges[1][2]``, ``events[3].w``. An object whose keys are exactly
its event kind's is built as it is, with no path string; an event refused
there, and every other object, takes the checked path, which checks the
object's shape first. :func:`script_document` writes each event's fields
as the event holds them, which is as parsing reads them back, and refuses
a phase-0 state by :func:`~massgraph.graph.initial_inputs`, the rule
``run_script`` applies too, with :class:`~massgraph.errors.InputError`.
Exports are canonical -- keys sorted, floats rendered as their shortest
round-trip decimals -- so identical inputs always yield byte-identical
files.

A history's snapshots are written as text, not built as dicts first: the
writer keeps each array's keys in ascending order beside their texts,
and each phase rewrites only what its delta wrote (its node ids and edge
keys, as the engine names them), so export pays for what each phase
changed, plus the join and copying of the output. A
history loads if and only if its canonical encoding equals the export of
its script's one replay, byte for byte; a file whose own bytes differ is
decoded whole and its re-encoding compared. The export is compared piece
by piece, and a load that fails names the JSON path of the first piece
that differs. The same snapshot text, with the kernel parameters, is
what :func:`state_digest` hashes.

Export and load fold each phase's delta into one working copy of phase 0,
in place, as the run did, and build neither the ``snapshots`` list nor a
state per phase. The writer hands that state to a private per-state hook,
through which the command line's ``run`` writes its DOT files and
``stats`` makes its rows, so each folds the run once for a file in
canonical bytes and holds one state and its text beside its input or
output.
"""

from __future__ import annotations

import io
import json
import math
from bisect import bisect_left
from collections.abc import Callable, Iterator
from itertools import chain, compress
from operator import is_not
from typing import NoReturn

from .engine import AddEdge, AddNode, Event, Prune, PruneReport, _written
from .errors import MassGraphError, ScriptError
from .graph import EdgeRecord, GraphState, NodeRecord, initial_inputs, new_graph
from .kernel import KernelParams, as_int
from .scenario import PhaseHistory, run_script

SCRIPT_VERSION = 1


def _fail(path: str, message: str) -> NoReturn:
    raise ScriptError(f"{path}: {message}", path=path)


_FIELDS = {"initial_weight": "w", "initial_mass": "mass"}  # as a script names them


def _at(path: str, rule, *args):
    """``rule(*args)``, with a model error re-raised at ``path``, then the path it names."""
    try:
        return rule(*args)
    except MassGraphError as err:
        if err.path is not None:
            path = f"{path}.{_FIELDS.get(err.path, err.path)}"
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


def _require_bytes(data) -> None:
    if not isinstance(data, (bytes, bytearray)):
        raise ScriptError(f"expected a bytes document, got {type(data).__name__}")


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
    except (ValueError, RecursionError) as err:  # beyond the digit or the nesting limit
        raise ScriptError(f"invalid JSON: {err}") from err


def _parse_event(raw, idx: int) -> Event:
    # the shortcut: an object with exactly its kind's keys is built as it is
    # (a missing id, number or threshold reads as None, which the event
    # refuses); an event that refuses its fields is left to the checked path
    # below, which checks the JSON's shape and names the refused field
    if type(raw) is dict:
        kind = raw.get("type")
        try:
            if kind == "add_edge" and len(raw) == 4:
                return AddEdge(raw.get("k"), raw.get("l"), raw.get("w"))
            if kind == "add_node":
                label = raw.get("label")
                if len(raw) == (2 if label is None else 3):
                    return AddNode(raw.get("mass"), label)
            if kind == "prune" and len(raw) == 2:
                return Prune(raw.get("threshold"))
        except MassGraphError:
            pass
    path = f"events[{idx}]"
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    kind = raw.get("type")
    if kind == "add_edge":
        _as_object(raw, path, required=("type", "k", "l", "w"))
        return _at(path, AddEdge, raw["k"], raw["l"], raw["w"])
    if kind == "add_node":
        _as_object(raw, path, required=("type", "mass"), optional=("label",))
        # the mass first, as AddNode checks it; a label is a string, never null
        mass = _at(path, AddNode, raw["mass"]).initial_mass
        if not isinstance(label := raw.get("label", ""), str):
            _fail(f"{path}.label", f"expected a string, got {type(label).__name__}")
        return AddNode(mass, raw.get("label"))
    if kind == "prune":
        _as_object(raw, path, required=("type", "threshold"))
        return _at(path, Prune, raw["threshold"])
    _fail(f"{path}.type", f"unknown event type {kind!r}")


def parse_script(data: bytes) -> tuple[GraphState, list[Event], KernelParams]:
    """Parse a version-1 script document into domain values.

    Raises :class:`ScriptError` with line/column for malformed JSON, or
    with the JSON path of the first violated constraint; input that is not
    ``bytes`` or ``bytearray`` raises :class:`ScriptError` too.
    """
    _require_bytes(data)
    return _script_values(_decode(data))


def _script_values(doc) -> tuple[GraphState, list[Event], KernelParams]:
    root = _as_object(doc, "$", required=("version", "kernel", "initial", "events"))
    version = _at("version", as_int, root["version"], "version")
    if version != SCRIPT_VERSION:
        _fail("version", f"unsupported script version {version}, expected {SCRIPT_VERSION}")

    kernel = _as_object(root["kernel"], "kernel", required=("mu", "sigma"))
    params = _at("kernel", KernelParams, kernel["mu"], kernel["sigma"])

    initial = _as_object(root["initial"], "initial", required=("masses", "edges"))
    state = _at("initial", new_graph, _as_list(initial["masses"], "initial.masses"),
                _as_list(initial["edges"], "initial.edges"), params)

    events = [_parse_event(raw, idx) for idx, raw in enumerate(_as_list(root["events"], "events"))]
    return state, events, params


def _event_to_json(event: Event) -> dict:
    """One event as its tagged script-document record, which
    :func:`parse_script` reads back as the same event: an event holds its
    fields as the model's rules take them."""
    if isinstance(event, AddEdge):
        return {"type": "add_edge", "k": event.k, "l": event.l, "w": event.initial_weight}
    if isinstance(event, AddNode):
        record = {"type": "add_node", "mass": event.initial_mass}
        if event.label is not None:
            record["label"] = event.label
        return record
    if isinstance(event, Prune):
        return {"type": "prune", "threshold": event.threshold}
    raise TypeError(f"not an event: {event!r}")


def script_document(initial: GraphState, events: list[Event]) -> dict:
    """Render a phase-0 state and event list as a script document, which
    :func:`parse_script` reads back as equal values. The phase-0 state is
    refused as :func:`~massgraph.graph.initial_inputs` refuses it, as
    ``run_script`` does; an event refused its fields when it was built."""
    masses, weights = initial_inputs(initial)
    return {
        "version": SCRIPT_VERSION,
        "kernel": {"mu": float(initial.params.mu), "sigma": float(initial.params.sigma)},
        "initial": {"masses": masses, "edges": [[a, b, w] for a, b, w in weights]},
        "events": [_event_to_json(event) for event in events],
    }


def _compact(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def canonical_json_bytes(obj) -> bytes:
    """Sorted keys, compact separators, shortest round-trip floats, one
    trailing newline: identical values always produce identical bytes."""
    return _compact(obj) + b"\n"


class _SnapshotWriter:
    """The canonical JSON text of snapshots, written in phase order.

    Per array it keeps the dict last written, its keys in ascending order,
    their texts in that order, and their join. Only changed keys are
    rendered: with the state's delta, the node ids and edge keys that the
    engine names as the delta's writes; without, each key whose record is
    not the one last written. An array the delta wrote nothing in and lost
    no key of keeps its join, whether or not its dict is the one last
    written. A new key goes in at its place
    by bisection and keys a prune removed are filtered out, so no phase
    sorts. A number that is not finite is written as ``json.dumps`` writes
    it (``NaN``, ``Infinity``) and turns ``finite`` false, so a caller that
    needs JSON can refuse it.
    """

    def __init__(self):
        self.finite = True
        self._arrays = {"nodes": ({}, [], [], b""), "edges": ({}, [], [], b"")}

    def _number(self, value) -> str:
        x = float(value)
        if math.isfinite(x):
            return repr(x)
        self.finite = False
        return json.dumps(x)

    def _node(self, i: int, rec: NodeRecord) -> bytes:
        label = "" if rec.label is None else f'"label":{json.dumps(rec.label)},'
        alive = "true" if rec.alive else "false"
        return f'{{"alive":{alive},"id":{i},{label}"mass":{self._number(rec.mass)}}}'.encode()

    def _edge(self, pair: tuple[int, int], weight: EdgeRecord) -> bytes:
        return f"[{pair[0]},{pair[1]},{self._number(weight)}]".encode()

    def _array(self, name: str, records: dict, render, changed=None) -> bytes:
        """The comma-joined texts of ``records`` in ascending key order, with
        the keys in ``changed`` (by default, as above) rendered afresh."""
        last, keys, texts, text = self._arrays[name]
        if not keys:  # every key is new: in ascending order, each one goes last
            changed = sorted(records)
        elif changed is None:  # found without a Python-level step per record
            if records is last:
                return text
            changed = compress(records, map(is_not, map(last.get, records), records.values()))
        elif not changed and len(keys) == len(records):  # the delta wrote nothing here
            return text
        for key in changed:
            at = bisect_left(keys, key)
            if at == len(keys) or keys[at] != key:  # a new key
                keys.insert(at, key)
                texts.insert(at, b"")
            texts[at] = render(key, records[key])
        if len(keys) != len(records):  # keys that are gone
            kept = list(map(records.__contains__, keys))
            keys, texts = list(compress(keys, kept)), list(compress(texts, kept))
        text = b",".join(texts)
        self._arrays[name] = (records, keys, texts, text)
        return text

    def text(self, state: GraphState, lead: bytes = b"", delta=None) -> bytes:
        """``state``'s snapshot text, after ``lead``; ``delta``, when given,
        is its phase's delta."""
        ids, edges = (None, None) if delta is None else _written(state, delta)
        return b'%b{"edges":[%b],"nodes":[%b],"phase":%d}' % (
            lead, self._array("edges", state.edges, self._edge, edges),
            self._array("nodes", state.nodes, self._node, ids), state.phase)


def _report_to_json(report: PruneReport) -> dict:
    return {
        "threshold": float(report.threshold),
        "removed_edges": [[a, b, float(w)] for (a, b), w in report.removed_edges],
        "removed_nodes": list(report.removed_nodes),
    }


def state_digest(state: GraphState) -> str:
    """Stable content hash of everything a state holds: its snapshot's
    export text plus the kernel parameters. Non-finite values hash too."""
    import hashlib  # here, so that importing the package does not load it

    digest = hashlib.sha256(_SnapshotWriter().text(state))
    digest.update(f"[{float(state.params.mu)!r},{float(state.params.sigma)!r}]".encode())
    return digest.hexdigest()


def _history_pieces(history: PhaseHistory,
                    each: Callable[[GraphState], object] | None = None
                    ) -> Iterator[tuple[str, bytes]]:
    """The canonical bytes of ``history`` in pieces that join to them, each
    with its JSON path: the head and the closing ``]`` as
    ``prune_reports``, each report as ``prune_reports[i]``, the script as
    ``script``, each snapshot as ``snapshots[p]``, and the head and tail
    around them as ``snapshots``. The top-level keys sort as
    ``prune_reports``, ``script``, ``snapshots``, and the compact JSON of
    an array is its elements' joined by commas. ``each(state)``, when
    given, is called on each state in phase order, before its snapshot is
    written: phase 0, then one working copy of it, stepped in place and
    valid until the next call, whose shifted weights are bare floats, then
    ``final`` (or the built ``snapshots``). A number that is not finite
    raises ValueError before its snapshot's piece is yielded."""
    steps = history._steps(in_place=True)
    initial = next(steps)[0]
    script = script_document(initial, history.events)
    yield "prune_reports", b'{"prune_reports":['
    lead = b""
    for i, report in enumerate(history.prune_reports):
        yield f"prune_reports[{i}]", lead + _compact(_report_to_json(report))
        lead = b","
    yield "prune_reports", b"]"
    yield "script", b',"script":' + _compact(script)
    yield "snapshots", b',"snapshots":['
    writer = _SnapshotWriter()
    lead = b""
    for state, delta in chain(((initial, None),), steps):
        if each is not None:
            each(state)
        text = writer.text(state, lead, delta)
        if not writer.finite:
            raise ValueError("Out of range float values are not JSON compliant")
        yield f"snapshots[{state.phase}]", text
        lead = b","
    yield "snapshots", b"]}\n"


def export_history_json(history: PhaseHistory) -> bytes:
    """Canonical JSON bytes of a full-state history and of its script. A
    number that is not finite raises ValueError."""
    out = io.BytesIO()  # grows in place, where a join would hold every piece too
    out.writelines(piece for _, piece in _history_pieces(history))
    return out.getvalue()


def _root(data: bytes) -> dict:
    return _as_object(_decode(data), "$", required=("script", "snapshots", "prune_reports"))


def _checked_run(data: bytes,
                 row: Callable[[GraphState], object] | None = None) -> tuple[PhaseHistory, list]:
    """:func:`load_history` of ``data``, which loads if and only if its
    canonical encoding equals the export of its script's one replay, and
    ``row(state)`` of each state in phase order, made in the pass that
    compares it, and afresh in a compare of the re-encoding. The bytes as
    they are are compared when the script can be sliced from them, and the
    re-encoding of the decoded file unless it is those bytes; a failing
    load names the path of the first piece the last compare found out of
    place, with no other pass over the states."""
    _require_bytes(data)
    rows = []
    each = None if row is None else (lambda state: rows.append(row(state)))

    def difference(target: bytes) -> str | None:
        rows.clear()
        offset = 0
        for path, piece in _history_pieces(history, each):
            if not target.startswith(piece, offset):
                return path
            offset += len(piece)
        return None if offset == len(target) else path  # bytes after the tail

    script_key, snapshots_key = b'],"script":', b',"snapshots":['
    root = compared = None
    try:  # the script alone, from where the writer puts it: a quote inside a
        # string follows a backslash, never a comma, and a history that can
        # load holds no other such keys, so the first match of each is it
        start = data.index(script_key) + len(script_key)
        script = json.loads(data[start:data.index(snapshots_key, start)])
    except (ValueError, RecursionError):  # no such slice, or one that does not decode
        script = (root := _root(data))["script"]
    try:  # at the script, whatever the error names within it
        initial, events, _ = _script_values(script)
        del script  # before the run and the compare: the run holds what it needs of it
        history = run_script(initial, events)
    except MassGraphError as err:
        _fail("script", str(err))
    if root is None:  # the script was sliced: the bytes as they are first
        if (path := difference(data)) is None:
            return history, rows
        compared, root = data, _root(data)
    # NaN and Infinity are written as the literals json reads, and differ
    # from every export, which holds none
    canonical = json.dumps(root, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    if canonical != compared and (path := difference(canonical)) is None:
        return history, rows
    _fail(path, "differs from the script's run")


def load_history(data: bytes) -> PhaseHistory:
    """Replay the script a history embeds and return that run.

    The engine is the only source of the returned states: ``data`` loads
    if and only if its canonical encoding equals the export of the
    script's one replay, byte for byte, so neither a value the writer
    never writes (``1`` for ``true`` or for a float, ``1.0`` for an id)
    nor a history written where float math differs in the last bit
    loads. Errors carry the JSON path ``script`` when the script does not
    parse, its run fails or only its spelling differs, and otherwise that
    of the first entry that differs, in file order, such as
    ``snapshots[3]``. When an array holds fewer entries than the run, the
    first missing one is named (``snapshots[4]``, ``prune_reports[0]``);
    when it holds more, the array (``snapshots``).
    """
    return _checked_run(data)[0]


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(state: GraphState) -> bytes:
    """Graphviz DOT text of graph ``memory``: node diameter is
    0.3 + 0.15 * ln(mass), edge penwidth 1 + 0.75 * ln(max(weight, 1));
    dead nodes are omitted; ordering is ascending ids."""
    lines = ["graph memory {",
             "  node [shape=circle fixedsize=true];"]
    for i in state._alive:
        rec = state.nodes[i]
        width = 0.3 + 0.15 * math.log(rec.mass)
        label = _dot_escape(rec.label) if rec.label is not None else str(i)
        lines.append(f'  {i} [label="{label}" width={width:.4f}];')
    for (a, b), weight in sorted(state.edges.items()):
        pen = 1.0 + 0.75 * math.log(max(weight, 1.0))
        lines.append(f"  {a} -- {b} [penwidth={pen:.4f}];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
