import copy
import math

import numpy as np
import pytest

from uhs.analysis import (
    degree_bound,
    extension_sandwich_check,
    simple_degree_bound,
    sweep,
    weight_bounds,
)
from uhs.constructions import join_lambda, power_lambda, product_lambda, star_g2, star_g2_orbits
from uhs.errors import PreconditionError, check_tol
from uhs.labeling import Labeling, classify_labeling, classify_labeling_sub_r, lambda_from_alpha
from uhs.solver import (
    SolverOptions,
    certificate_search_sub_r,
    compose_components,
    solve_p_spectral,
    solve_weight_system,
)

G = star_g2()  # r = 3
B = np.full((G.m, G.r), 0.5)
W = np.full(G.m, 1.0 / G.m)
FEW = SolverOptions(max_iter=5)  # a call that got past its check ends fast


def _labeling_with_p(p):
    # a Labeling rejects a non-finite p itself; this reaches classify_labeling's own check
    L = copy.copy(Labeling(B=B, w=W, p=4.0, alpha=0.25))
    object.__setattr__(L, "p", p)
    return L


# every function that checks p, with the regime it needs
CALLS = {
    "solve_p_spectral": lambda p: solve_p_spectral(G, p, FEW),  # p >= 1
    "certificate_search_sub_r": lambda p: certificate_search_sub_r(G, p, FEW),  # 1 <= p < r
    "solve_weight_system": lambda p: solve_weight_system(G, star_g2_orbits(), p),  # p > r
    "compose_components": lambda p: compose_components([1.0, 2.0], p, 3),  # p > r
    "Labeling": lambda p: Labeling(B=B, w=W, p=p, alpha=0.25),  # p >= 1
    "classify_labeling": lambda p: classify_labeling(G, _labeling_with_p(p)),  # p >= r
    "classify_labeling_sub_r": lambda p: classify_labeling_sub_r(G, B, 0.25, p),  # 1 <= p < r
    "lambda_from_alpha": lambda p: lambda_from_alpha(0.5, 3, p),  # p > r
    "degree_bound": lambda p: degree_bound(G, p),  # p > r
    "simple_degree_bound": lambda p: simple_degree_bound(G, p),  # p > r
    "weight_bounds": lambda p: weight_bounds(1.0, 1, 2, 3, p),  # p > r
    "extension_sandwich_check": lambda p: extension_sandwich_check(G, p, FEW),  # p > r
    "sweep": lambda p: sweep(G, [p], FEW),  # each grid point p >= 1
    "join_lambda": lambda p: join_lambda(1.0, 1.0, 1, 2, p),  # p > r1 + r2
    "product_lambda": lambda p: product_lambda(1.0, 1.0, 3, p),  # p > r
    "power_lambda": lambda p: power_lambda(1.0, 3, p),  # p > r
}


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_p_check_rejects_non_finite_p(name, p):
    with pytest.raises(PreconditionError, match="finite p"):
        CALLS[name](p)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_check_tol_rejects_a_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(PreconditionError, match="tol must be positive and finite"):
        check_tol(tol)
