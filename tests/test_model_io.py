import json

import numpy as np
import pytest

import randspn as rs
from randspn.data import Scaling
from randspn.errors import DataFormatError, ModelVersionError, StructureError
from conftest import random_circuit, randomize_params


def _model(rng, **kwargs):
    circuit, params = random_circuit(rng, **kwargs)
    randomize_params(params, rng, 0.5)
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
    randomize_params(params, rng)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path)
    model = load_model_file(path)
    X = np.array(enumerate_assignments(5), dtype=float)
    np.testing.assert_allclose(
        rs.forward_log(circuit, params, X), brute_force_mass(model), atol=1e-9
    )
