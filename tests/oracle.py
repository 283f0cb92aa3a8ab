"""Reference values independent of the solver package.

Closed forms at p = r for paths and loose paths, and a brute-force
maximizer of P(x) = r * sum_e prod_{v in e} x_v over the nonnegative unit
l^p sphere.  The maximizer works in the simplex of t_v = x_v^p: a coarse
composition grid followed by pattern search that shifts mass h between
coordinate pairs, halving h until it drops below 1e-4.
"""

import math

import numpy as np


def path_lambda(n: int) -> float:
    """lambda^(2) of the path with n vertices: its adjacency spectral radius."""
    return 2.0 * math.cos(math.pi / (n + 1))


def loose_path_lambda(n: int, r: int) -> float:
    """lambda^(r) of the loose r-uniform path made from the n-vertex path by
    adding r - 2 fresh vertices to every edge: (2 cos(pi/(n+1)))^(2/r)."""
    return path_lambda(n) ** (2.0 / r)


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_force_lambda(G, p: float, coarse: int = 8) -> float:
    n, r = G.n, G.r
    edges = G.edges_array

    def evaluate(T):
        X = np.power(T, 1.0 / p)
        return r * X[:, edges].prod(axis=2).sum(axis=1)

    T = np.array(list(compositions(coarse, n)), dtype=float) / coarse
    P = evaluate(T)
    t = T[np.argmax(P)]
    best = float(P.max())
    h = 1.0 / coarse
    while h > 1e-4:
        cands = []
        for i in range(n):
            for j in range(n):
                if i != j and t[j] >= h:
                    c = t.copy()
                    c[i] += h
                    c[j] -= h
                    cands.append(c)
        if cands:
            C = np.asarray(cands)
            Pc = evaluate(C)
            k = int(np.argmax(Pc))
            if Pc[k] > best + 1e-15:
                best, t = float(Pc[k]), C[k]
                continue
        h *= 0.5
    return best
