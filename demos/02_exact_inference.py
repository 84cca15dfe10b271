#!/usr/bin/env python3
"""Exact log-domain inference: densities, marginals, conditionals.

The whole point of this model family: the same bottom-up pass that evaluates
the joint density answers any marginalization query exactly, just by zeroing
the masked leaf terms. No sampling, no approximation.
"""

import numpy as np

import randspn as rs
from randspn.model_io import model_to_dict
from randspn.oracle import brute_force_mass, enumerate_assignments, load_model_dict

rng = np.random.default_rng(0)

# --- a discrete model small enough to enumerate ------------------------------

graph = rs.random_region_graph(num_vars=5, depth=2, repetitions=2, seed=9)
circuit = rs.construct_circuit(graph, classes_C=2, sums_S=2, leaves_I=2,
                               leaf_family="bernoulli")
params = rs.init_parameters(circuit, seed=9)
params.flat += rng.normal(0, 1.0, params.flat.shape)

X = np.array(enumerate_assignments(5), dtype=float)
roots = rs.forward_log(circuit, params, X)
print("per-class total mass over all 32 assignments:",
      np.exp(roots).sum(axis=0))  # exactly 1: the circuit is normalized

# the naive enumeration oracle agrees with the layered engine
table = brute_force_mass(load_model_dict(model_to_dict(circuit, params)))
print("max |engine - brute force|:", float(np.abs(roots - table).max()))

# --- marginal queries ---------------------------------------------------------

x = np.array([[1, 0, 1, 1, 0]], dtype=float)
full = rs.log_marginal_input(circuit, params, x)
print(f"\nlog p(x) at {x[0].astype(int)}: {full[0]:.4f}")

missing = np.array([[False, True, False, True, False]])
partial = rs.log_marginal_input(circuit, params, x, missing=missing)
print(f"log p(x_0, x_2, x_4) marginalizing vars 1 and 3: {partial[0]:.4f}")

everything = rs.log_marginal_input(circuit, params, x,
                                   missing=np.ones((1, 5), bool))
print(f"marginalizing everything: {everything[0]} (log of total mass 1)")

# --- conditionals -------------------------------------------------------------

query = np.array([[True, True, False, False, False]])
evidence = np.array([[False, False, True, True, False]])
cond = rs.conditional_log(circuit, params, x, query, evidence)
print(f"\nlog p(x_0, x_1 | x_2, x_3): {cond[0]:.4f}")

# --- classification under missing features ------------------------------------

labels_prior = rs.uniform_log_prior(circuit.classes_C)
batch = np.array(enumerate_assignments(5), dtype=float)[:8]
masked = rs.random_missing_mask(batch.shape, 0.4, seed=3)
print("\npredictions with 40% of features missing:",
      rs.classify(circuit, params, batch, labels_prior, missing=masked))

# --- Gaussian leaves: quadrature confirms normalization ------------------------

g2 = rs.random_region_graph(2, 1, 1, seed=4)
c2 = rs.construct_circuit(g2, classes_C=1, sums_S=1, leaves_I=3)
p2 = rs.init_parameters(c2, seed=4)
axis = np.linspace(-10, 10, 501)
xx, yy = np.meshgrid(axis, axis, indexing="ij")
grid = np.column_stack([xx.ravel(), yy.ravel()])
density = np.exp(rs.forward_log(c2, p2, grid)[:, 0]).reshape(501, 501)
mass = np.trapezoid(np.trapezoid(density, axis, axis=1), axis)
print(f"\n2-D Gaussian circuit mass by quadrature: {mass:.6f}")
