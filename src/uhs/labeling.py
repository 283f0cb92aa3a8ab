"""Labeling certificates: corner weights B(v,e), edge weights w(e), target alpha.

A labeling certifies a value of the p-spectral radius through three
conditions (edge weights summing to 1, unit row sums at vertices, and a
common per-edge value alpha), plus a consistency condition equating the
ratios w(e)/B(v,e) across the edges at each vertex.  Classification
reports the tightest class the residuals support at a given tolerance.
B and w are stored per corner (v, e) of the m x r edge array, so every
condition is one scatter or one reduction over that array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import edge_products
from .core import UniformHypergraph, degrees
from .errors import PreconditionError, check_p, check_tol

DEFAULT_TOL = 1e-8
JSON_BLOCK_ROWS = 4096  # rows of B (entries of w) encoded per piece of the certificate text

CLASS_NORMAL = "normal"
CLASS_SUBNORMAL = "subnormal"
CLASS_STRICT_SUB = "strictly-subnormal"
CLASS_SUPERNORMAL = "supernormal"
CLASS_STRICT_SUPER = "strictly-supernormal"
CLASS_NONE = "none"


@dataclass(frozen=True)
class PVector:
    """Nonnegative vector on the unit l^p sphere (normalized on build)."""

    values: np.ndarray
    p: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if (v < 0).any():
            raise PreconditionError("PVector entries must be nonnegative")
        nrm = float(np.power(v, self.p).sum() ** (1.0 / self.p)) if v.size else 0.0
        if nrm > 0:
            v = v / nrm
        object.__setattr__(self, "values", v)

    def norm_p(self) -> float:
        return float(np.power(self.values, self.p).sum() ** (1.0 / self.p))


@dataclass(frozen=True)
class Labeling:
    """B stored densely per (edge, position-within-edge); support is exactly r*m."""

    B: np.ndarray  # (m, r), positions matching the sorted edge tuples
    w: np.ndarray  # (m,)
    p: float
    alpha: float

    def __post_init__(self) -> None:
        B = np.asarray(self.B, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "w", w)
        finite = np.isfinite(B).all() and np.isfinite(w).all()
        if not (finite and math.isfinite(self.alpha)):
            raise PreconditionError("labeling entries must be finite")
        if (B <= 0).any() or (w <= 0).any():
            raise PreconditionError("labeling entries must be positive")
        check_p(self.p, "p >= 1", "a labeling")
        if self.alpha <= 0:
            raise PreconditionError(f"alpha={self.alpha} must be positive")

    def to_json(self) -> str:
        return "".join(self.json_pieces())

    def json_pieces(self):
        """Yield the text of ``json.dumps(payload, sort_keys=True, allow_nan=False)``
        in pieces of at most JSON_BLOCK_ROWS rows of B or entries of w, so a
        writer never holds the whole certificate as Python lists or one string."""

        def rows(a: np.ndarray):
            for i in range(0, len(a), JSON_BLOCK_ROWS):
                # no indent: only then does json run its C encoder (same float reprs)
                text = json.dumps(a[i : i + JSON_BLOCK_ROWS].tolist(), allow_nan=False)[1:-1]
                yield text if i == 0 else ", " + text

        yield '{"B": ['
        yield from rows(self.B)
        yield f'], "alpha": {json.dumps(self.alpha)}, "p": {json.dumps(self.p)}, "w": ['
        yield from rows(self.w)
        yield "]}"

    @classmethod
    def from_json(cls, text: str) -> "Labeling":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise PreconditionError("certificate is not a JSON object")
        missing = sorted({"B", "w", "p", "alpha"} - data.keys())
        if missing:
            raise PreconditionError(f"certificate lacks {', '.join(missing)}")
        p, alpha = data["p"], data["alpha"]
        if type(p) not in (int, float) or type(alpha) not in (int, float):  # bool, str, null, list
            raise PreconditionError("certificate p and alpha must be numbers")
        try:
            p, alpha = float(p), float(alpha)
            # the inferred dtype tells numbers from strings, bools and nulls
            # without a Python loop over the entries
            B, w = np.asarray(data["B"]), np.asarray(data["w"])
        except (OverflowError, ValueError) as exc:  # an integer past the float range, a ragged B
            raise PreconditionError(f"certificate entry is not a float or an array: {exc}") from exc
        if B.dtype.kind not in "iuf" or w.dtype.kind not in "iuf":
            raise PreconditionError("certificate B and w entries must be numbers")
        return cls(B=B, w=w, p=p, alpha=alpha)


@dataclass(frozen=True)
class LabelingVerdict:
    classification: str
    consistent: bool
    residuals: dict = field(compare=False)
    tol: float

    def to_json(self) -> str:
        payload = {
            "class": self.classification,
            "consistent": self.consistent,
            "tol": self.tol,
            "residuals": {k: v for k, v in self.residuals.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def lambda_from_alpha(alpha: float, r: int, p: float) -> float:
    """r^{1-r/p} * alpha^{-1/p}; inverse of alpha_from_lambda for p > r."""
    check_p(p, "p > r", "lambda_from_alpha", r)
    if alpha <= 0:
        raise PreconditionError("alpha must be positive")
    return r ** (1.0 - r / p) * alpha ** (-1.0 / p)


def alpha_from_lambda(lam: float, r: int, p: float) -> float:
    """r^{p-r} / lam^p (well-defined for any p >= 1, including p = r)."""
    if lam <= 0:
        raise PreconditionError("lambda must be positive")
    return r ** (p - r) / lam**p


def _check_support(G: UniformHypergraph, B: np.ndarray, w: np.ndarray) -> None:
    if B.shape != (G.m, G.r) or w.shape != (G.m,):
        raise PreconditionError(
            f"labeling support mismatch: expected B {G.m}x{G.r} and w of length {G.m}"
        )


def _row_sums(G: UniformHypergraph, B: np.ndarray) -> np.ndarray:
    return np.bincount(G.edges_array.ravel(), weights=B.ravel(), minlength=G.n)


def _relative_spread(G: UniformHypergraph, corner: np.ndarray) -> np.ndarray:
    """(max - min) / max of an (m, r) corner array over the corners at each
    vertex; 0 where the max is not positive (isolated vertices)."""
    hi = np.full(G.n, -np.inf)
    lo = np.full(G.n, np.inf)
    np.maximum.at(hi, G.edges_array, corner)
    np.minimum.at(lo, G.edges_array, corner)
    spread = np.zeros(G.n)
    np.divide(hi - lo, hi, out=spread, where=hi > 0)
    return spread


def condition_residuals(
    G: UniformHypergraph, B: np.ndarray, w: np.ndarray, p: float, alpha: float
) -> dict:
    """Signed residuals of the three defining conditions plus consistency spread.

    The edge residual is relative to alpha, w(e)^{p-r} prod B(v,e) / alpha - 1,
    so it keeps its meaning when alpha = r^{p-r} / lambda^p is tiny.  No
    regime gate here.
    """
    _check_support(G, B, w)
    return {
        "weight_sum": float(w.sum() - 1.0),
        "rows": _row_sums(G, B) - 1.0,
        "edges": w ** (p - G.r) * edge_products(B) / alpha - 1.0,
        "consistency_spread": _relative_spread(G, w[:, None] / B),
    }


def _summary(res: dict) -> dict:
    return {
        "weight_sum": res["weight_sum"],
        "row_max_abs": float(np.abs(res["rows"]).max()) if res["rows"].size else 0.0,
        "edge_max_abs": float(np.abs(res["edges"]).max()) if res["edges"].size else 0.0,
        "consistency_spread_max": float(res["consistency_spread"].max())
        if res["consistency_spread"].size
        else 0.0,
    }


def classify_labeling(
    G: UniformHypergraph, L: Labeling, tol: float = DEFAULT_TOL
) -> LabelingVerdict:
    """Classify a labeling in the p >= r regime against the three conditions.

    At p = r the edge condition is prod B(v,e) = alpha (Lu-Man).
    """
    check_p(
        L.p, "p >= r", "classify_labeling", G.r, "; use classify_labeling_sub_r for 1 <= p < r"
    )
    check_tol(tol)
    res = condition_residuals(G, L.B, L.w, L.p, L.alpha)
    ws, rows, edges = res["weight_sum"], res["rows"], res["edges"]
    consistent = bool((res["consistency_spread"] <= tol).all())

    def within(x):
        return abs(x) <= tol

    normal = within(ws) and bool((np.abs(rows) <= tol).all()) and bool(
        (np.abs(edges) <= tol).all()
    )
    sub = ws <= tol and bool((rows <= tol).all()) and bool((edges >= -tol).all())
    sup = ws >= -tol and bool((rows >= -tol).all()) and bool((edges <= tol).all())
    if normal:
        cls = CLASS_NORMAL
    elif sub:
        slack = max(-ws, float((-rows).max(initial=0.0)), float(edges.max(initial=0.0)))
        cls = CLASS_STRICT_SUB if slack > 10 * tol else CLASS_SUBNORMAL
    elif sup:
        slack = max(ws, float(rows.max(initial=0.0)), float((-edges).max(initial=0.0)))
        cls = CLASS_STRICT_SUPER if slack > 10 * tol else CLASS_SUPERNORMAL
    else:
        cls = CLASS_NONE
    return LabelingVerdict(cls, consistent, _summary(res), tol)


def classify_labeling_sub_r(
    G: UniformHypergraph,
    B: np.ndarray,
    alpha: float,
    p: float,
    tol: float = DEFAULT_TOL,
) -> LabelingVerdict:
    """Subnormality check in the 1 <= p < r regime.

    Conditions: row sums at most 1, and m^{r-p} * prod_{v in e} B(v,e)
    at least alpha on every edge.
    """
    check_p(p, "1 <= p < r", "classify_labeling_sub_r", G.r)
    check_tol(tol)
    B = np.asarray(B, dtype=float)
    if B.shape != (G.m, G.r):
        raise PreconditionError(f"B support mismatch: expected {G.m}x{G.r}")
    rows = _row_sums(G, B) - 1.0
    edge_vals = G.m ** (G.r - p) * edge_products(B) - alpha
    ok = bool((rows <= tol).all()) and bool((edge_vals >= -tol).all())
    residuals = {  # 0.0 for no edges: the verdict JSON has no infinities
        "row_max": float(rows.max()) if rows.size else 0.0,
        "edge_min": float(edge_vals.min()) if edge_vals.size else 0.0,
    }
    return LabelingVerdict(CLASS_SUBNORMAL if ok else CLASS_NONE, ok, residuals, tol)


def labeling_from_eigenvector(
    G: UniformHypergraph, x: PVector, lam: float
) -> Labeling:
    """Build the labeling induced by an eigenpair (lam, x).

    B(v,e) = prod_{u in e} x_u / (lam * x_v^p), w(e) = r * prod / lam,
    alpha = r^{p-r} / lam^p.  Exact eigenpairs yield normal + consistent.
    """
    if lam <= 0:
        raise PreconditionError("lambda must be positive")
    xv = x.values
    if G.n != xv.shape[0]:
        raise PreconditionError("vector length does not match vertex count")
    prods = edge_products(xv[G.edges_array])
    if (prods <= 0).any():
        raise PreconditionError("eigenvector has a zero entry at an incident vertex")
    w = G.r * prods / lam
    B = prods[:, None] / (lam * np.power(xv[G.edges_array], x.p))
    alpha = alpha_from_lambda(lam, G.r, x.p)
    return Labeling(B=B, w=w, p=x.p, alpha=alpha)


def eigenvector_from_labeling(G: UniformHypergraph, L: Labeling) -> PVector:
    """Recover x_v = (w(e) / (r B(v,e)))^{1/p} from a consistent labeling.

    x_v is the value at the lowest-index edge through v; the values at a
    vertex may differ by a relative DEFAULT_TOL across its edges.
    """
    _check_support(G, L.B, L.w)
    isolated = np.flatnonzero(degrees(G).degrees == 0)
    if isolated.size:
        raise PreconditionError(f"vertex {isolated[0]} has no incident edge")
    # float_power runs the C pow on each entry, as scalar arithmetic does;
    # np.power may take a SIMD path that differs in the last bit
    cand = np.float_power(L.w[:, None] / (G.r * L.B), 1.0 / L.p)
    bad = np.flatnonzero(_relative_spread(G, cand) > DEFAULT_TOL)
    if bad.size:
        raise PreconditionError(
            f"inconsistent labeling at vertex {bad[0]}: edge-dependent values"
        )
    _, first = np.unique(G.edges_array, return_index=True)
    return PVector(values=cand.ravel()[first], p=L.p)


def weight_only_residual(
    G: UniformHypergraph, w: np.ndarray, alpha: float, p: float
) -> dict:
    """Residuals of the weight-only certificate system.

    Per edge: w(e)^p / prod_{v in e} (sum_{f: v in f} w(f)) - alpha, plus
    |sum w(e) - 1|.  All-zero residuals certify the radius matching alpha.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (G.m,):
        raise PreconditionError(f"expected {G.m} edge weights")
    vertex_sums = np.bincount(G.edges_array.ravel(), weights=np.repeat(w, G.r), minlength=G.n)
    denom = edge_products(vertex_sums[G.edges_array])
    per_edge = w**p / denom - alpha
    return {"per_edge": per_edge, "weight_sum": float(abs(w.sum() - 1.0))}
