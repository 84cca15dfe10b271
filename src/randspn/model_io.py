"""Versioned on-disk model format.

A model file is canonical JSON (sorted keys, no whitespace) holding the
explicit region/partition lists, the structural configuration that generated
them (seed included), all parameters, the feature-scaling statistics and
free-form training provenance. Parameters are stored per region id, either
as base64 little-endian float64 bytes (``raw``, bit-exact) or as decimal
strings (``decimal``, human-readable; Python's shortest-repr decimals also
round-trip exactly).

The explicit structure is authoritative; the stored seed merely allows
regenerating an identical region graph with this package's generator.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .circuit import (
    Circuit,
    ParameterSet,
    construct_circuit,
    count_parameters,
    parameter_layout,
)
from .data import Scaling
from .errors import DataFormatError, InvalidInput, ModelVersionError
from .region_graph import Partition, Region, RegionGraph

FORMAT_NAME = "randspn-model"
FORMAT_VERSION = 1
RAW, DECIMAL = "raw", "decimal"


def _encode_array(arr: np.ndarray, encoding: str):
    arr = np.ascontiguousarray(arr, dtype=float)
    if encoding == RAW:
        data = base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")
    elif encoding == DECIMAL:
        data = [repr(float(v)) for v in arr.reshape(-1)]
    else:
        raise InvalidInput(f"unknown parameter encoding {encoding!r}")
    return {"shape": list(arr.shape), "data": data}


def _decode_array(entry, encoding, shape, where):
    """The finite values of one stored matrix, flattened; its stored shape must be ``shape``.

    The shape is checked before the data is decoded.
    """
    try:
        stored, data = entry["shape"], entry["data"]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed parameter entry at {where}: {exc}") from exc
    if stored != list(shape):
        raise DataFormatError(
            f"wiring-width mismatch for {where}: file has shape {stored!r}, "
            f"circuit expects {list(shape)}"
        )
    if encoding == DECIMAL and not (
        isinstance(data, list) and all(isinstance(v, str) for v in data)
    ):
        raise DataFormatError(f"parameter {where}: decimal data must be a list of strings")
    try:
        if encoding == RAW:
            flat = np.frombuffer(base64.b64decode(data), dtype="<f8")
        else:
            flat = np.array([float(v) for v in data])
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed parameter entry at {where}: {exc}") from exc
    if flat.size != shape[0] * shape[1]:
        raise DataFormatError(f"parameter {where}: {flat.size} values do not fill shape {stored}")
    if not np.isfinite(flat).all():
        raise DataFormatError(f"parameter {where}: non-finite value")
    return flat


def model_to_dict(
    circuit: Circuit,
    params: ParameterSet,
    scaling: Scaling | None = None,
    provenance: dict | None = None,
    encoding: str = RAW,
) -> dict:
    """Serialize to the documented JSON-ready structure."""
    graph = circuit.graph
    regions = [[r.level, list(r.scope)] for r in graph.regions]
    partitions = [
        [p.parent.index, p.children[0].index, p.children[1].index]
        for p in graph.partitions
    ]

    groups = {"sum_logits": {}, "leaf_means": {}, "leaf_logits": {}}
    if params.train_variance:
        groups["leaf_log_vars"] = {}
    for tensor in params.layout:
        members = circuit.plan[tensor.group].blocks
        for block, matrix in zip(members, tensor.view(params.flat)):
            groups[tensor.name][str(block.node.index)] = _encode_array(matrix, encoding)

    return {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "param_encoding": encoding,
        "structure": {
            "num_vars": graph.num_vars,
            "num_classes": circuit.classes_C,
            "depth": graph.depth,
            "repetitions": graph.repetitions,
            "sums_per_region": circuit.sums_S,
            "leaves_per_region": circuit.leaves_I,
            "structure_seed": graph.seed,
            "regions": regions,
            "partitions": partitions,
        },
        "leaf_family": circuit.leaf_family,
        "train_variance": params.train_variance,
        "parameters": groups,
        "scaling": None if scaling is None else scaling.to_dict(),
        "provenance": provenance or {},
        "param_counts": count_parameters(circuit, params.train_variance),
    }


def save_model(circuit, params, path, scaling=None, provenance=None, encoding=RAW):
    """Write a model file; a non-finite number anywhere raises ValueError."""
    if not np.isfinite(params.flat).all():
        raise ValueError("cannot save a non-finite parameter")
    document = model_to_dict(circuit, params, scaling, provenance, encoding)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _checked_int(structure, key, nullable=False):
    """An int >= 1 (any int, or null, when ``nullable``) from the structure."""
    value = structure[key]
    if nullable and value is None:
        return None
    if type(value) is not int or (not nullable and value < 1):  # a bool is no int here
        wanted = "an int or null" if nullable else "an int >= 1"
        raise DataFormatError(f"structure field {key!r} must be {wanted}, got {value!r}")
    return value


def _rebuild_graph(structure) -> RegionGraph:
    graph = RegionGraph(
        num_vars=_checked_int(structure, "num_vars"),
        depth=_checked_int(structure, "depth"),
        repetitions=_checked_int(structure, "repetitions"),
        seed=_checked_int(structure, "structure_seed", nullable=True),
    )
    for idx, (level, scope) in enumerate(structure["regions"]):
        if type(level) is not int or not all(type(v) is int for v in scope):
            raise DataFormatError(
                f"structure field 'regions' entry {idx}: level and scope must be ints"
            )
        graph.regions.append(Region(idx, tuple(scope), level))
    for idx, ends in enumerate(structure["partitions"]):
        if not all(type(i) is int and 0 <= i < len(graph.regions) for i in ends):
            raise DataFormatError(
                f"structure field 'partitions' entry {idx}: ends must be region indices"
            )
        parent, left, right = (graph.regions[i] for i in ends)
        graph.partitions.append(Partition(idx, parent, (left, right)))
    return graph


def dict_to_model(document: dict):
    """Rebuild (circuit, params, meta) from a parsed model document.

    Every fault in the document raises DataFormatError, or its subclass
    ModelVersionError for an unsupported format version.
    """
    try:
        return _decode_document(document)
    except DataFormatError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # wrong JSON types or indices, or a structure that construct_circuit
        # rejects (StructureError and InvalidInput are ValueErrors)
        raise DataFormatError(f"invalid model file: {exc}") from exc


def _decode_document(document: dict):
    try:
        if document.get("format") != FORMAT_NAME:
            raise DataFormatError(f"not a {FORMAT_NAME} file")
        version = document["format_version"]
        if version != FORMAT_VERSION:
            raise ModelVersionError(
                f"file format version {version} is not supported (reader expects "
                f"{FORMAT_VERSION})"
            )
        encoding = document["param_encoding"]
        if encoding not in (RAW, DECIMAL):
            raise DataFormatError(f"unknown parameter encoding {encoding!r}")
        structure = document["structure"]
        leaf_family = document["leaf_family"]
        stored_params = document["parameters"]
    except KeyError as exc:
        raise DataFormatError(f"model file is missing field {exc}") from exc

    graph = _rebuild_graph(structure)
    circuit = construct_circuit(
        graph,
        classes_C=_checked_int(structure, "num_classes"),
        sums_S=_checked_int(structure, "sums_per_region"),
        leaves_I=_checked_int(structure, "leaves_per_region"),
        leaf_family=leaf_family,
    )

    train_variance = document.get("train_variance", False)
    provenance = document.get("provenance", {})
    if not isinstance(train_variance, bool):
        raise DataFormatError(f"train_variance must be true or false, got {train_variance!r}")
    if not isinstance(provenance, dict):
        raise DataFormatError("provenance must be an object")
    layout = parameter_layout(circuit, train_variance)
    entries = [  # (name, region key, matrix shape), in flat order
        (t.name, str(b.node.index), t.shape[1:])
        for t in layout for b in circuit.plan[t.group].blocks
    ]
    stored = {(name, region) for name, matrices in stored_params.items() for region in matrices}
    expected = {(name, region) for name, region, _ in entries}
    if stored != expected:
        name, region = min(stored ^ expected)
        fault = "unexpected" if (name, region) in stored else "missing"
        raise DataFormatError(f"{fault} {name} for region {region}")
    params = ParameterSet(layout, np.concatenate([
        _decode_array(stored_params[name][region], encoding, shape, f"{name}[{region}]")
        for name, region, shape in entries
    ]))

    scaling = document.get("scaling")
    if scaling is not None:
        scaling = Scaling.from_dict(scaling)
        if scaling.means is not None and len(scaling.means) != graph.num_vars:
            raise DataFormatError(
                f"scaling: {len(scaling.means)} means for {graph.num_vars} features"
            )
    meta = {
        "structure": {k: v for k, v in structure.items() if k not in ("regions", "partitions")},
        "leaf_family": leaf_family,
        "train_variance": train_variance,
        "param_encoding": encoding,
        "scaling": scaling,
        "provenance": provenance,
        "param_counts": document.get("param_counts"),
    }
    return circuit, params, meta


def _reject_constant(token):
    raise DataFormatError(f"non-finite number {token} is not valid JSON")


def load_model(path):
    """Load and structurally validate a model file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle, parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    return dict_to_model(document)
