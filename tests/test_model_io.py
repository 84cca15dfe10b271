import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randspn as rs
from randspn.data import Scaling
from randspn.errors import DataFormatError, ModelVersionError, StructureError
from conftest import random_circuit, randomize_params, root_second


def _model(rng, **kwargs):
    circuit, params = random_circuit(rng, **kwargs)
    params = randomize_params(params, rng, 0.5)
    return circuit, params


def test_raw_roundtrip_is_bit_exact(tmp_path, rng):
    circuit, params = _model(rng, num_vars=6)
    batch = rng.normal(size=(5, 6))
    before = rs.forward_log(circuit, params, batch)

    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path, provenance={"lambda": 0.2, "epochs": 7})
    loaded_circuit, loaded_params, meta = rs.load_model(path)
    after = rs.forward_log(loaded_circuit, loaded_params, batch)
    np.testing.assert_array_equal(before, after)
    assert meta["provenance"]["lambda"] == 0.2

    # save(load(save(x))) is byte-identical in raw mode
    rs.save_model(loaded_circuit, loaded_params, tmp_path / "again.json",
                  provenance={"lambda": 0.2, "epochs": 7})
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "again.json").read_bytes()


def test_decimal_roundtrip_preserves_values(tmp_path, rng):
    circuit, params = _model(rng, num_vars=4)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path, encoding="decimal")
    _, loaded_params, meta = rs.load_model(path)
    assert meta["param_encoding"] == "decimal"
    np.testing.assert_array_equal(params.flat, loaded_params.flat)  # repr round-trips float64 exactly


def test_scaling_and_counts_survive_roundtrip(tmp_path, rng):
    circuit, params = _model(rng, num_vars=5)
    scaling = Scaling(mode="divmax", max_value=255.0)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path, scaling=scaling)
    loaded_circuit, _, meta = rs.load_model(path)
    assert meta["scaling"].mode == "divmax"
    assert meta["scaling"].max_value == 255.0
    assert meta["param_counts"] == rs.count_parameters(loaded_circuit)


def test_structure_seed_reconstructs_identical_graph(tmp_path):
    graph = rs.random_region_graph(9, 2, 3, seed=77)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = rs.init_parameters(circuit, seed=1)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path)
    _, _, meta = rs.load_model(path)
    s = meta["structure"]
    regenerated = rs.random_region_graph(
        s["num_vars"], s["depth"], s["repetitions"], s["structure_seed"]
    )
    assert regenerated.structure_signature() == graph.structure_signature()


def test_version_gate(tmp_path, rng):
    circuit, params = _model(rng, num_vars=3)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelVersionError):
        rs.load_model(path)

    doc["format_version"] = 1
    doc["format"] = "something-else"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError):
        rs.load_model(path)


def test_tampered_weight_row_is_a_load_error(tmp_path, rng):
    circuit, params = _model(rng, num_vars=4)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path, encoding="decimal")
    doc = json.loads(path.read_text())
    rid, entry = next(iter(doc["parameters"]["sum_logits"].items()))
    width = entry["shape"][1]
    entry["shape"][0] -= 1  # delete one weight row
    entry["data"] = entry["data"][:-width]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="wiring-width"):
        rs.load_model(path)


def test_malformed_and_invalid_files(tmp_path, rng):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataFormatError):
        rs.load_model(path)
    path.write_bytes(b"\xff\xfe{}")  # not UTF-8
    with pytest.raises(DataFormatError):
        rs.load_model(path)

    circuit, params = _model(rng, num_vars=4)
    good = tmp_path / "model.json"
    rs.save_model(circuit, params, good)
    doc = json.loads(good.read_text())
    del doc["parameters"]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="missing field"):
        rs.load_model(path)

    # corrupt the structure so circuit validation fails on load
    doc = json.loads(good.read_text())
    doc["structure"]["regions"][1][1] = doc["structure"]["regions"][1][1][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises((StructureError, DataFormatError)):
        rs.load_model(path)


def _non_finite_parameter(doc):
    entry = next(iter(doc["parameters"]["sum_logits"].values()))
    values = np.frombuffer(base64.b64decode(entry["data"]), "<f8").copy()
    values[0] = np.inf
    entry["data"] = base64.b64encode(values.tobytes()).decode("ascii")


def _self_referencing_partition(doc):
    partition = doc["structure"]["partitions"][0]
    partition[1] = partition[0]  # the region becomes its own child


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda d: d.update(parameters=[]), id="parameters-list"),
    pytest.param(lambda d: d["structure"].update(regions=None), id="regions-null"),
    pytest.param(lambda d: d["structure"].update(num_vars="4"), id="num-vars-string"),
    pytest.param(lambda d: d["structure"]["regions"][1].__setitem__(1, ["a"]),
                 id="scope-non-numeric"),
    pytest.param(_self_referencing_partition, id="self-referencing-partition"),
    pytest.param(lambda d: d["structure"].update(num_classes=0), id="zero-classes"),
    pytest.param(lambda d: d.update(leaf_family="poisson"), id="unknown-leaf-family"),
    pytest.param(lambda d: d["structure"].update(depth="x"), id="depth-string"),
    pytest.param(lambda d: d["structure"].update(depth=0), id="depth-zero"),
    pytest.param(lambda d: d["structure"].update(depth=1.5), id="depth-float"),
    pytest.param(lambda d: d["structure"].update(depth=True), id="depth-bool"),
    pytest.param(lambda d: d["structure"].update(depth=None), id="depth-null"),
    pytest.param(lambda d: d["structure"].update(repetitions=-1),
                 id="repetitions-negative"),
    pytest.param(lambda d: d["structure"].update(repetitions="2"),
                 id="repetitions-string"),
    pytest.param(lambda d: d["structure"].update(repetitions=False),
                 id="repetitions-bool"),
    pytest.param(lambda d: d["structure"].update(structure_seed="7"),
                 id="structure-seed-string"),
    pytest.param(lambda d: d["structure"].update(structure_seed=7.0),
                 id="structure-seed-float"),
    pytest.param(lambda d: d["structure"].update(structure_seed=True),
                 id="structure-seed-bool"),
    pytest.param(lambda d: d["structure"].pop("structure_seed"),
                 id="structure-seed-missing"),
    pytest.param(lambda d: d["provenance"].update(seed=float("nan")), id="nan-token"),
    pytest.param(lambda d: d["structure"].update(num_vars=float("inf")),
                 id="infinity-token"),
    # a million-wide block needs terabytes: shapes are checked before allocating
    pytest.param(lambda d: d["structure"].update(leaves_per_region=1000000),
                 id="oversized-leaves"),
    pytest.param(lambda d: d["structure"].update(sums_per_region=1000000),
                 id="oversized-sums"),
    pytest.param(_non_finite_parameter, id="non-finite-parameter"),
    pytest.param(lambda d: d.update(scaling={"mode": "zscore", "means": [0.0], "stds": [1.0]}),
                 id="scaling-of-one-feature"),
])
def test_every_fault_in_the_file_is_a_data_format_error(tmp_path, rng, mutate):
    circuit, params = _model(rng, num_vars=4)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError):
        rs.load_model(path)


def _scope(doc, convert):
    region = doc["structure"]["regions"][1]
    region[1] = [convert(v) for v in region[1]]


def _to_float(key):
    return lambda doc: doc["structure"].update({key: float(doc["structure"][key])})


@pytest.mark.parametrize("field, mutate", [
    pytest.param("regions", lambda d: _scope(d, float), id="scope-floats"),
    pytest.param("regions", lambda d: _scope(d, lambda v: v + 0.9), id="scope-fractions"),
    pytest.param("regions", lambda d: _scope(d, str), id="scope-strings"),
    pytest.param("regions", lambda d: _scope(d, bool), id="scope-bools"),
    pytest.param("regions", lambda d: d["structure"]["regions"][1].__setitem__(0, True),
                 id="level-bool"),
    pytest.param("regions", lambda d: d["structure"]["regions"][1].__setitem__(0, 1.0),
                 id="level-float"),
    pytest.param("partitions", lambda d: d["structure"]["partitions"][0].__setitem__(1, True),
                 id="partition-end-bool"),
    *[pytest.param(key, lambda d, key=key: d["structure"].update({key: True}),
                   id=f"{key}-bool")
      for key in ("num_classes", "sums_per_region", "leaves_per_region")],
    *[pytest.param(key, _to_float(key), id=f"{key}-float")
      for key in ("num_classes", "sums_per_region", "leaves_per_region")],
])
def test_structure_numbers_must_be_json_ints(tmp_path, rng, field, mutate):
    # each of these once loaded as its int(), or reached the circuit unchecked
    circuit, params = _model(rng, num_vars=4)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=f"structure field '{field}'"):
        rs.load_model(path)


def test_a_root_that_is_not_region_0_is_a_data_format_error(tmp_path):
    # as many classes as sums, so every stored shape fits the swapped file
    circuit = rs.construct_circuit(rs.random_region_graph(4, 2, 2, seed=3), 2, 2, 2)
    path = tmp_path / "model.json"
    rs.save_model(circuit, rs.init_parameters(circuit, seed=0), path)
    doc = json.loads(path.read_text())
    root_second(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=r"is not graph.regions\[0\]"):
        rs.load_model(path)


def test_save_model_refuses_non_finite_numbers(tmp_path, rng):
    circuit, params = _model(rng, num_vars=4)
    path = tmp_path / "model.json"
    with pytest.raises(ValueError):
        rs.save_model(circuit, params, path, provenance={"seed": float("nan")})
    scaling = Scaling(mode="zscore", means=np.zeros(4), stds=np.array([1.0, np.inf, 1.0, 1.0]))
    with pytest.raises(ValueError):
        rs.save_model(circuit, params, path, scaling=scaling)
    flat = params.flat.copy()
    flat[0] = np.inf
    with pytest.raises(ValueError):
        rs.save_model(circuit, rs.ParameterSet(params.layout, flat), path)


def test_null_structure_seed_loads(tmp_path, rng):
    circuit, params = _model(rng, num_vars=4)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path)
    doc = json.loads(path.read_text())
    doc["structure"]["structure_seed"] = None
    path.write_text(json.dumps(doc))
    loaded_circuit, loaded_params, meta = rs.load_model(path)
    assert meta["structure"]["structure_seed"] is None
    np.testing.assert_array_equal(loaded_params.flat, params.flat)


def test_oracle_agreement_through_the_file(tmp_path, rng):
    from randspn.oracle import brute_force_mass, enumerate_assignments, load_model_file

    circuit, params = random_circuit(rng, num_vars=5, leaf_family="bernoulli")
    params = randomize_params(params, rng)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path)
    model = load_model_file(path)
    X = np.array(enumerate_assignments(5), dtype=float)
    np.testing.assert_allclose(
        rs.forward_log(circuit, params, X), brute_force_mass(model), atol=1e-9
    )


def _fuzz_documents():
    """Saved small model documents: Gaussian (variances, zscore) raw and decimal, Bernoulli."""
    rng = np.random.default_rng(31)
    graph = rs.random_region_graph(4, 2, 2, seed=3)
    documents = []
    for family, encoding in (("gaussian", "raw"), ("gaussian", "decimal"), ("bernoulli", "raw")):
        circuit = rs.construct_circuit(graph, 2, 2, 2, family)
        params = rs.init_parameters(circuit, seed=5, train_variance=family == "gaussian")
        params = randomize_params(params, rng, 0.5)
        scaling = (
            Scaling(mode="zscore", means=rng.normal(size=4), stds=rng.uniform(0.5, 2.0, 4))
            if family == "gaussian" else Scaling(mode="divmax", max_value=255.0)
        )
        provenance = {"class_log_prior": [np.log(0.25), np.log(0.75)], "seed": 3}
        documents.append((
            json.dumps(rs.model_to_dict(circuit, params, scaling, provenance, encoding)),
            (circuit, params),
        ))
    return documents


FUZZ_DOCUMENTS = _fuzz_documents()
# values a mutation puts in place of another: every JSON type, ints far
# outside any valid range and strings no stored value may hold
REPLACEMENTS = [None, True, False, 0, -1, 1, 2, 3, 10**6, 2**63, 10**30, 1.5, -0.5,
                "", "x", "nan", "-1e999", [], [1], {}, {"a": 1}]


def _fields(doc):
    """Every (container path, key) of a JSON document, grouped by field.

    List positions and region ids are one field each, so a mutation draws
    ``format_version`` as often as one of the many parameter values.
    """
    fields = {}

    def walk(node, path, field):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
            node, list) else ()
        for key, value in items:
            name = field + ("*" if isinstance(key, int) or key.isdigit() else key,)
            fields.setdefault(name, []).append((path, key))
            walk(value, path + (key,), name)

    walk(doc, (), ())
    return list(fields.values())


@st.composite
def mutated_documents(draw):
    """(text, original model, mutated path): one mutation of a saved document."""
    text, original = draw(st.sampled_from(FUZZ_DOCUMENTS))
    doc = json.loads(text)
    path, key = draw(st.sampled_from(draw(st.sampled_from(_fields(doc)))))
    parent = doc
    for step in path:
        parent = parent[step]
    value = parent[key]
    kind = draw(st.sampled_from(["delete", "replace", "int", "truncate"]))
    if kind == "delete":
        del parent[key]
    elif kind == "int" and isinstance(value, int) and not isinstance(value, bool):
        parent[key] = value + draw(st.sampled_from([-2, -1, 1, 2, 10**6, 2**40, 10**30]))
    elif kind == "truncate" and isinstance(value, (str, list)) and value and path[-1:] != (
        "data",  # a cut decimal string is another valid number; cut the list instead
    ):
        parent[key] = value[: draw(st.integers(0, len(value) - 1))]
    else:
        parent[key] = draw(st.sampled_from(REPLACEMENTS))
    return json.dumps(doc), original, path + (key,)


def _wiring(circuit):
    return circuit.leaf_family, [
        (g.kind, g.regions, g.width, g.columns, None if g.scope is None else g.scope.tolist(),
         [(source, at.tolist()) for source, at, _ in g.reads], g.runs)
        for g in circuit.plan
    ]


@settings(max_examples=1000, deadline=None)
@given(mutated_documents())
def test_a_mutated_model_file_loads_equal_or_is_a_data_format_error(tmp_path_factory, case):
    text, (circuit, params), path = case
    file = tmp_path_factory.mktemp("fuzz") / "model.json"
    file.write_text(text)
    try:
        loaded, loaded_params, meta = rs.load_model(file)
    except ModelVersionError:
        assert path == ("format_version",)
        return
    except DataFormatError:
        return
    # what loads is the saved model, and every stored value it carries is usable
    assert _wiring(loaded) == _wiring(circuit)
    assert loaded_params.layout == params.layout
    assert loaded_params.flat.tobytes() == params.flat.tobytes()
    if meta["scaling"] is not None:
        rs.apply_scaling(rs.Dataset(np.ones((2, 4))), meta["scaling"])
    assert isinstance(meta["provenance"], dict)
