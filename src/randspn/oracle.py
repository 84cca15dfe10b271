"""Independent brute-force reference implementations, for tests only.

This module deliberately shares no evaluation code with the engine: it
parses the documented model-file format itself and evaluates circuits by
naive node-by-node recursion in the linear domain. Runtime is exponential in
the number of variables, guarded at 12.
"""

from __future__ import annotations

import base64
import itertools
import json
import math

import numpy as np

MAX_BRUTE_FORCE_VARS = 12


class OracleError(ValueError):
    pass


def _decode_array(entry, encoding):
    shape = tuple(entry["shape"])
    if encoding == "raw":
        flat = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
    elif encoding == "decimal":
        flat = np.array([float(v) for v in entry["data"]], dtype=float)
    else:
        raise OracleError(f"unknown parameter encoding {encoding!r}")
    if flat.size != int(np.prod(shape)):
        raise OracleError(f"array data length {flat.size} != shape {shape}")
    return flat.reshape(shape)


class OracleModel:
    """Node-level view of a serialized model."""

    def __init__(self, document: dict):
        structure = document["structure"]
        self.num_vars = structure["num_vars"]
        self.num_classes = structure["num_classes"]
        self.leaf_family = document["leaf_family"]
        encoding = document["param_encoding"]
        params = document["parameters"]

        self.scopes = [tuple(scope) for _, scope in structure["regions"]]
        self.child_partitions = [[] for _ in self.scopes]
        self.partitions = [tuple(p) for p in structure["partitions"]]
        for pid, (parent, _, _) in enumerate(self.partitions):
            self.child_partitions[parent].append(pid)
        for kids in self.child_partitions:
            kids.sort()

        full = tuple(range(self.num_vars))
        roots = [i for i, s in enumerate(self.scopes) if s == full]
        if len(roots) != 1:
            raise OracleError(f"expected exactly one root region, found {len(roots)}")
        self.root = roots[0]

        def grab(group, rid):
            entry = params.get(group, {}).get(str(rid))
            return None if entry is None else _decode_array(entry, encoding)

        self.sum_logits = {}
        self.leaf_loc = {}
        self.leaf_log_vars = {}
        for rid in range(len(self.scopes)):
            logits = grab("sum_logits", rid)
            if logits is not None:
                self.sum_logits[rid] = logits
            loc = grab("leaf_means", rid)
            if loc is None:
                loc = grab("leaf_logits", rid)
            if loc is not None:
                self.leaf_loc[rid] = loc
            lv = grab("leaf_log_vars", rid)
            if lv is not None:
                self.leaf_log_vars[rid] = lv

    def node_count(self, rid) -> int:
        if rid == self.root and rid in self.sum_logits:
            return self.sum_logits[rid].shape[0]
        if self.child_partitions[rid]:
            return self.sum_logits[rid].shape[0]
        return self.leaf_loc[rid].shape[0]

    def _leaf_value(self, rid, node, x, missing):
        value = 1.0
        loc = self.leaf_loc[rid]
        for pos, var in enumerate(self.scopes[rid]):
            if var in missing:
                continue
            if self.leaf_family == "bernoulli":
                p = 1.0 / (1.0 + math.exp(-loc[node, pos]))
                value *= p if x[var] == 1 else (1.0 - p)
            else:
                variance = 1.0
                if rid in self.leaf_log_vars:
                    variance = max(math.exp(self.leaf_log_vars[rid][node, pos]), 1e-4)
                diff = x[var] - loc[node, pos]
                value *= math.exp(-0.5 * diff * diff / variance) / math.sqrt(
                    2.0 * math.pi * variance
                )
        return value

    def _value(self, rid, node, x, missing, memo):
        key = (rid, node)
        if key in memo:
            return memo[key]
        is_sum = rid in self.sum_logits and (self.child_partitions[rid] or rid == self.root)
        if not is_sum:
            result = self._leaf_value(rid, node, x, missing)
        else:
            children = []
            if self.child_partitions[rid]:
                for pid in self.child_partitions[rid]:
                    _, left, right = self.partitions[pid]
                    n_right = self.node_count(right)
                    for i in range(self.node_count(left)):
                        vi = self._value(left, i, x, missing, memo)
                        for j in range(n_right):
                            children.append(vi * self._value(right, j, x, missing, memo))
            else:
                # single-variable model: root sums mix the root's own leaves
                for i in range(self.leaf_loc[rid].shape[0]):
                    children.append(self._leaf_value(rid, i, x, missing))
            logits = self.sum_logits[rid][node]
            shifted = [math.exp(v - max(logits)) for v in logits]
            total = sum(shifted)
            weights = [v / total for v in shifted]
            result = sum(w * v for w, v in zip(weights, children))
        memo[key] = result
        return result

    def evaluate(self, x, missing=()):
        """Linear-domain value of every class root at one assignment."""
        missing = set(missing)
        memo = {}
        return [
            self._value(self.root, c, x, missing, memo) for c in range(self.num_classes)
        ]


def load_model_dict(document: dict) -> OracleModel:
    return OracleModel(document)


def load_model_file(path) -> OracleModel:
    with open(path, "r", encoding="utf-8") as handle:
        return OracleModel(json.load(handle))


def enumerate_assignments(num_vars):
    """All binary assignments, last variable toggling fastest."""
    return list(itertools.product((0, 1), repeat=num_vars))


def brute_force_mass(model: OracleModel) -> np.ndarray:
    """(2^n, C) log-probability table over every binary assignment."""
    if model.leaf_family != "bernoulli":
        raise OracleError("brute-force mass tables require Bernoulli leaves")
    if model.num_vars > MAX_BRUTE_FORCE_VARS:
        raise OracleError(
            f"{model.num_vars} variables exceed the brute-force cap "
            f"of {MAX_BRUTE_FORCE_VARS}"
        )
    table = np.empty((2**model.num_vars, model.num_classes))
    for row, assignment in enumerate(enumerate_assignments(model.num_vars)):
        table[row] = [math.log(v) if v > 0 else -math.inf for v in model.evaluate(assignment)]
    return table


def brute_force_marginal(model: OracleModel, assignment, missing_set) -> np.ndarray:
    """Per-root log-marginal, enumerating every completion of the missing set."""
    if model.leaf_family != "bernoulli":
        raise OracleError("brute-force marginals require Bernoulli leaves")
    missing = sorted(set(missing_set))
    if model.num_vars > MAX_BRUTE_FORCE_VARS:
        raise OracleError(
            f"{model.num_vars} variables exceed the brute-force cap "
            f"of {MAX_BRUTE_FORCE_VARS}"
        )
    totals = np.zeros(model.num_classes)
    x = list(assignment)
    for completion in itertools.product((0, 1), repeat=len(missing)):
        for var, value in zip(missing, completion):
            x[var] = value
        totals += np.asarray(model.evaluate(x))
    with np.errstate(divide="ignore"):
        return np.log(totals)


def finite_diff_gradient(objective, arrays: dict, step: float) -> dict:
    """Central finite differences of ``objective`` over a dict of ndarrays."""
    grads = {name: np.zeros(arr.shape) for name, arr in arrays.items()}  # C order: reshape is a view
    work = {name: arr.copy() for name, arr in arrays.items()}
    for name, arr in work.items():
        flat = arr.reshape(-1)
        grad_flat = grads[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            upper = objective(work)
            flat[i] = original - step
            lower = objective(work)
            flat[i] = original
            if not (math.isfinite(upper) and math.isfinite(lower)):
                raise OracleError(
                    f"objective non-finite while probing {name}[{i}]"
                )
            grad_flat[i] = (upper - lower) / (2.0 * step)
    return grads
