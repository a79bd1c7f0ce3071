"""The complete catalogue of small graphs with real or Turyn diagonalisers.

The catalogue reads each graph off the built-in real and Turyn matrices,
each read once as built and dephased: every neighbour set of vertex 0
gives exact eigenvalues and then a candidate Laplacian, kept when it is
the Laplacian of a simple graph.  Dephasing at another column would add
nothing: for a character table it only permutes the columns, and the
order-6 conference lift gives only K_6 and its complement, which every
dephased matrix of order 6 diagonalises.  Candidates are deduplicated by
their exact spectrum and then up to isomorphism, and each class is
certified against its witness.  No graph is enumerated and no float is used.

Note the order-8 result: the well-known nine entries plus 4K_2, which
passes every filter (1-regular, spectrum {0,0,0,0,2,2,2,2}, certified by
the order-8 real matrix) and is the complement of K_{2,2,2,2}.
"""

from chd import catalogue, certify, complete, graph_union, instance_library

entries = catalogue(8)
print(f"{len(entries)} graphs on up to 8 vertices:\n")
print(f"{'order':>5} {'degree':>6}  {'name':<18} witness")
for e in entries:
    print(f"{e.order:>5} {e.degree:>6}  {e.name:<18} {e.hadamard_name}")

# every witness is an exact certificate
assert all(certify(e.graph, e.hadamard) is not None for e in entries)

# the obstruction in action: 3K_2 has an odd number of equal components,
# so nothing real or Turyn can diagonalise it (or its complement K_{2,2,2})
three_k2 = graph_union(graph_union(complete(2), complete(2)), complete(2))
for name, h in instance_library()[6]:
    assert certify(three_k2, h) is None
print("\n3K_2 rejected by every order-6 library matrix, as it must be.")
