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


def _decode_array(entry, encoding, where):
    try:
        shape = tuple(int(v) for v in entry["shape"])
        if encoding == RAW:
            flat = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
        else:
            flat = np.array([float(v) for v in entry["data"]], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed parameter entry at {where}: {exc}") from exc
    if flat.size != int(np.prod(shape)):
        raise DataFormatError(
            f"parameter {where}: {flat.size} values do not fill shape {list(shape)}"
        )
    return flat.reshape(shape)


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
    if params.leaf_log_vars is not None:
        groups["leaf_log_vars"] = {}
    for slot in params.layout:
        groups[slot.group][str(slot.region)] = _encode_array(
            slot.view(params.flat), encoding
        )

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
        "train_variance": params.leaf_log_vars is not None,
        "parameters": groups,
        "scaling": None if scaling is None else scaling.to_dict(),
        "provenance": provenance or {},
        "param_counts": count_parameters(
            circuit, train_variance=params.leaf_log_vars is not None
        ),
    }


def save_model(circuit, params, path, scaling=None, provenance=None, encoding=RAW):
    """Write a model file; a non-finite number anywhere raises ValueError."""
    document = model_to_dict(circuit, params, scaling, provenance, encoding)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _checked_int(structure, key, nullable=False):
    """An int >= 1 (any int, or null, when ``nullable``) from the structure."""
    value = structure[key]
    if nullable and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or (
        not nullable and value < 1
    ):
        wanted = "an int or null" if nullable else "an int >= 1"
        raise DataFormatError(f"structure field {key!r} must be {wanted}, got {value!r}")
    return value


def _rebuild_graph(structure) -> RegionGraph:
    graph = RegionGraph(
        num_vars=structure["num_vars"],
        depth=_checked_int(structure, "depth"),
        repetitions=_checked_int(structure, "repetitions"),
        seed=_checked_int(structure, "structure_seed", nullable=True),
    )
    for idx, (level, scope) in enumerate(structure["regions"]):
        graph.regions.append(Region(idx, tuple(int(v) for v in scope), int(level)))
    for idx, (parent, left, right) in enumerate(structure["partitions"]):
        try:
            node = Partition(
                idx, graph.regions[parent], (graph.regions[left], graph.regions[right])
            )
        except IndexError:
            raise DataFormatError(
                f"partition {idx} references a missing region"
            ) from None
        graph.partitions.append(node)
        node.parent.child_partitions.append(node)
        for child in node.children:
            child.parent_partitions.append(node)
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
        classes_C=structure["num_classes"],
        sums_S=structure["sums_per_region"],
        leaves_I=structure["leaves_per_region"],
        leaf_family=leaf_family,
    )

    layout = parameter_layout(circuit, bool(document.get("train_variance")))
    flat = np.zeros(sum(slot.size for slot in layout))
    for slot in layout:
        where = f"{slot.group}[{slot.region}]"
        entry = stored_params.get(slot.group, {}).get(str(slot.region))
        if entry is None:
            raise DataFormatError(f"missing {slot.group} for region {slot.region}")
        arr = _decode_array(entry, encoding, where)
        if arr.shape != slot.shape:
            raise DataFormatError(
                f"wiring-width mismatch for {where}: file has shape "
                f"{list(arr.shape)}, circuit expects {list(slot.shape)}"
            )
        slot.view(flat)[...] = arr
    params = ParameterSet(layout, flat)

    meta = {
        "structure": {k: v for k, v in structure.items() if k not in ("regions", "partitions")},
        "leaf_family": leaf_family,
        "train_variance": document.get("train_variance", False),
        "param_encoding": encoding,
        "scaling": None
        if document.get("scaling") is None
        else Scaling.from_dict(document["scaling"]),
        "provenance": document.get("provenance", {}),
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
