"""Structure specs: JSON in, canonical reports and CSV tables out.

Specs are one JSON object {"kind": ..., "seed": ..., "body": {...}} where
``kind`` is one of finite | octonion | loop | loopoid | algebroid | system.
Validation errors carry the JSON path of the offending field.  Output is
deterministic: canonical JSON sorts keys and prints every float with 17
significant digits; CSV uses '.' decimals, ',' separators, LF endings.
"""

import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError

KINDS = ("finite", "octonion", "loop", "loopoid", "algebroid", "system")


@dataclass(frozen=True)
class StructureSpec:
    kind: str
    seed: int
    body: dict

    def to_dict(self):
        return {"kind": self.kind, "seed": self.seed, "body": self.body}


# ---------------------------------------------------------------------------
# canonical output
# ---------------------------------------------------------------------------


def _canon(obj):
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if v != v:
            return '"NaN"'
        if v in (float("inf"), float("-inf")):
            return '"Infinity"' if v > 0 else '"-Infinity"'
        return format(v, ".17g")
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{json.dumps(str(k))}:{_canon(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    return json.dumps(str(obj))


def canonical_json(obj):
    """Byte-stable JSON: sorted keys, floats at 17 significant digits."""
    return _canon(obj) + "\n"


def format_float(v):
    return format(float(v), ".17g")


def write_csv(header, rows):
    """CSV text: ',' separator, '.' decimal, LF endings, one header row."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(format_float(v))
            else:
                cells.append(str(v))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _need(body, key, path):
    if not isinstance(body, dict):
        raise SchemaError("expected an object", path)
    if key not in body:
        raise SchemaError(f"missing required field {key!r}", f"{path}.{key}")
    return body[key]


def _int(val, path, minimum=None):
    if isinstance(val, bool) or not isinstance(val, int):
        raise SchemaError(f"expected an integer, got {type(val).__name__}", path)
    if minimum is not None and val < minimum:
        raise SchemaError(f"expected >= {minimum}, got {val}", path)
    return val


def _num(val, path):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"expected a number, got {type(val).__name__}", path)
    try:
        out = float(val)
    except OverflowError:  # an integer too large for a float
        out = float("inf")
    if not np.isfinite(out):  # JSON parsing turns 1e400 into inf
        raise SchemaError("expected a finite number in the float range", path)
    return out


def _numbers(val, path):
    """A rectangular nested list of numbers, as a float array."""
    try:
        arr = np.asarray(val, dtype=float)
        ok = all(type(v) in (int, float) for v in np.asarray(val, dtype=object).flat)
        ok = ok and bool(np.all(np.isfinite(arr)))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise SchemaError("expected a rectangular array of finite numbers", path)
    return arr


def _list(val, path):
    if not isinstance(val, list):
        raise SchemaError(f"expected a list, got {type(val).__name__}", path)
    return val


def _exponents(val, path, dim):
    xs = _list(val, path)
    if len(xs) != dim:
        raise SchemaError(f"expected {dim} exponents, got {len(xs)}", path)
    out = []
    for i, e in enumerate(xs):
        if isinstance(e, bool) or not isinstance(e, int) or e < 0:
            raise SchemaError("exponents must be non-negative integers", f"{path}[{i}]")
        out.append(e)
    return out


def _poly_terms(val, path, dim_x, dim_y):
    """Per-coordinate term lists [[coeff, xexps, yexps], ...]."""
    coords = _list(val, path)
    if len(coords) != dim_x:
        raise SchemaError(f"expected {dim_x} coordinate term lists, got {len(coords)}", path)
    out = []
    for k, terms in enumerate(coords):
        tpath = f"{path}[{k}]"
        row = []
        for t, term in enumerate(_list(terms, tpath)):
            ipath = f"{tpath}[{t}]"
            term = _list(term, ipath)
            if len(term) != 3:
                raise SchemaError("term must be [coeff, x_exponents, y_exponents]", ipath)
            row.append(
                (
                    _num(term[0], f"{ipath}[0]"),
                    tuple(_exponents(term[1], f"{ipath}[1]", dim_x)),
                    tuple(_exponents(term[2], f"{ipath}[2]", dim_y)),
                )
            )
        out.append(row)
    return out


def _scalar_terms(val, path, dim):
    """Scalar polynomial [[coeff, exps], ...] in ``dim`` variables."""
    out = []
    for t, term in enumerate(_list(val, path)):
        ipath = f"{path}[{t}]"
        term = _list(term, ipath)
        if len(term) != 2:
            raise SchemaError("term must be [coeff, exponents]", ipath)
        out.append((_num(term[0], f"{ipath}[0]"), tuple(_exponents(term[1], f"{ipath}[1]", dim))))
    return out


# ---------------------------------------------------------------------------
# kind validators (shape only; builders do the math checks)
# ---------------------------------------------------------------------------


def _validate_table(body, path):
    order = _int(_need(body, "order", path), f"{path}.order", minimum=1)
    table = _list(_need(body, "table", path), f"{path}.table")
    if len(table) != order:
        raise SchemaError(f"expected {order} rows", f"{path}.table")
    for i, row in enumerate(table):
        row = _list(row, f"{path}.table[{i}]")
        if len(row) != order:
            raise SchemaError(f"expected {order} entries", f"{path}.table[{i}]")
        for j, v in enumerate(row):
            _int(v, f"{path}.table[{i}][{j}]", minimum=0)
    if body.get("unit") is not None:
        _int(body["unit"], f"{path}.unit", minimum=0)


def _validate_finite(body, path):
    kind = _need(body, "kind", path)
    if kind == "table":
        _validate_table(body, path)
    elif kind == "transversal":
        _validate_table(_need(body, "group", path), f"{path}.group")
        _list(_need(body, "subgroup", path), f"{path}.subgroup")
        _list(_need(body, "transversal", path), f"{path}.transversal")
    elif kind == "semidirect":
        _validate_table(_need(body, "loop", path), f"{path}.loop")
        autos = _list(_need(body, "autos", path), f"{path}.autos")
        for i, p in enumerate(autos):
            _list(p, f"{path}.autos[{i}]")
    else:
        raise SchemaError(f"unknown finite kind {kind!r}", f"{path}.kind")


def _validate_loop(body, path):
    mul = _need(body, "mul", path)
    mkind = _need(mul, "kind", f"{path}.mul")
    if mkind == "polynomial":
        dim = _int(_need(body, "dim", path), f"{path}.dim", minimum=1)
        _poly_terms(_need(mul, "terms", f"{path}.mul"), f"{path}.mul.terms", dim, dim)
    elif mkind == "builtin":
        name = _need(mul, "name", f"{path}.mul")
        if name != "octonion":
            raise SchemaError(f"unknown builtin {name!r}", f"{path}.mul.name")
        dim = 8
    elif mkind == "bracket":
        dim = _int(_need(body, "dim", path), f"{path}.dim", minimum=1)
        cpath = f"{path}.mul.constants"
        arr = _numbers(_need(mul, "constants", f"{path}.mul"), cpath)
        if arr.shape != (dim, dim, dim):
            raise SchemaError(f"constants shape {arr.shape} != ({dim},)*3", cpath)
    else:
        raise SchemaError(f"unknown mul kind {mkind!r}", f"{path}.mul.kind")
    if body.get("unit") is not None:
        unit = _numbers(body["unit"], f"{path}.unit")
        if unit.shape != (dim,):
            raise SchemaError(f"expected {dim} numbers, got shape {unit.shape}", f"{path}.unit")
    if "fd_step" in body:
        raise SchemaError("the differencing steps are fixed; fd_step is not a loop field", f"{path}.fd_step")


def _validate_loopoid(body, path):
    kind = _need(body, "kind", path)
    if kind == "product":
        _validate_loop(_need(body, "loop", path), f"{path}.loop")
        _int(_need(body, "pair_dim", path), f"{path}.pair_dim", minimum=0)
    elif kind == "phi":
        phi = _need(body, "phi", path)
        coeffs = _list(_need(phi, "odd_coeffs", f"{path}.phi"), f"{path}.phi.odd_coeffs")
        for i, c in enumerate(coeffs):
            _num(c, f"{path}.phi.odd_coeffs[{i}]")
    elif kind == "pair_groupoid":
        _int(_need(body, "dim", path), f"{path}.dim", minimum=1)
    elif kind == "loop":
        _validate_loop(_need(body, "loop", path), f"{path}.loop")
    elif kind == "prolongation":
        _validate_loopoid(_need(body, "base", path), f"{path}.base")
        fib = _need(body, "fibration", path)
        nt = _int(_need(fib, "dim_total", f"{path}.fibration"), f"{path}.fibration.dim_total", minimum=0)
        nb = _int(_need(fib, "dim_base", f"{path}.fibration"), f"{path}.fibration.dim_base", minimum=0)
        if nb > nt:
            raise SchemaError("dim_base exceeds dim_total", f"{path}.fibration.dim_base")
    else:
        raise SchemaError(f"unknown loopoid kind {kind!r}", f"{path}.kind")


def _validate_algebroid(body, path):
    kind = _need(body, "kind", path)
    if kind == "constant":
        rank = _int(_need(body, "rank", path), f"{path}.rank", minimum=1)
        base = _int(_need(body, "base_dim", path), f"{path}.base_dim", minimum=0)
        c = _numbers(_need(body, "c", path), f"{path}.c")
        if c.shape != (rank, rank, rank):
            raise SchemaError(f"c shape {c.shape} != ({rank},)*3", f"{path}.c")
        rho = _numbers(_need(body, "rho", path), f"{path}.rho")
        if rho.size != base * rank or (base > 0 and rho.shape != (base, rank)):
            raise SchemaError(f"rho shape {rho.shape} != ({base}, {rank})", f"{path}.rho")
    elif kind == "tangent":
        _int(_need(body, "dim", path), f"{path}.dim", minimum=1)
    elif kind == "prolongation":
        _validate_algebroid(_need(body, "base", path), f"{path}.base")
        fib = _need(body, "fibration", path)
        _int(_need(fib, "dim_total", f"{path}.fibration"), f"{path}.fibration.dim_total", minimum=0)
        _int(_need(fib, "dim_base", f"{path}.fibration"), f"{path}.fibration.dim_base", minimum=0)
    else:
        raise SchemaError(f"unknown algebroid kind {kind!r}", f"{path}.kind")


def _validate_system(body, path):
    _validate_loopoid(_need(body, "loopoid", path), f"{path}.loopoid")
    lag = _need(body, "lagrangian", path)
    lkind = _need(lag, "kind", f"{path}.lagrangian")
    if lkind == "polynomial":
        _list(_need(lag, "terms", f"{path}.lagrangian"), f"{path}.lagrangian.terms")
    elif lkind != "half_sum_squares":
        raise SchemaError(f"unknown lagrangian kind {lkind!r}", f"{path}.lagrangian.kind")
    if body.get("start") is not None:
        for i, v in enumerate(_list(body["start"], f"{path}.start")):
            _num(v, f"{path}.start[{i}]")
    if body.get("orientation") is not None and body["orientation"] not in (
        "aligned",
        "normal_class",
    ):
        raise SchemaError("orientation must be 'aligned' or 'normal_class'", f"{path}.orientation")
    newton, npath = body.get("newton", {}), f"{path}.newton"
    if newton is not None and not isinstance(newton, dict):
        raise SchemaError(f"expected an object, got {type(newton).__name__}", npath)
    for key, value in (newton or {}).items():
        fpath = f"{npath}.{key}"
        if key == "max_iter":
            _int(value, fpath, minimum=1)
        elif key in ("tol", "rcond", "fd_step"):
            if not _num(value, fpath) > 0:
                raise SchemaError(f"expected a positive number, got {value}", fpath)
        elif key != "damping":
            raise SchemaError(f"unknown field {key!r}", fpath)
        elif not isinstance(value, bool):
            raise SchemaError(f"expected a bool, got {type(value).__name__}", fpath)


_VALIDATORS = {
    "finite": _validate_finite,
    "octonion": lambda body, path: None,
    "loop": _validate_loop,
    "loopoid": _validate_loopoid,
    "algebroid": _validate_algebroid,
    "system": _validate_system,
}


def parse_spec(text):
    """Parse and validate a structure spec; SchemaError carries the path."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer beyond Python's digit limit
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object", "$")
    kind = _need(raw, "kind", "$")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}", "$.kind")
    seed = raw.get("seed", 0)
    _int(seed, "$.seed")
    body = raw.get("body", {})
    if not isinstance(body, dict):
        raise SchemaError("expected an object", "$.body")
    _VALIDATORS[kind](body, "$.body")
    return StructureSpec(kind=kind, seed=seed, body=body)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_finite(body):
    from .finite import CayleyTable, semidirect_loop, transversal_loop

    kind = body["kind"]
    if kind == "table":
        return CayleyTable(order=body["order"], table=np.asarray(body["table"]), unit=body.get("unit"))
    if kind == "transversal":
        grp = build_finite({**body["group"], "kind": "table"})
        return transversal_loop(grp, set(body["subgroup"]), set(body["transversal"]))
    grp = build_finite({**body["loop"], "kind": "table"})
    return semidirect_loop(grp, [np.asarray(p, dtype=np.int64) for p in body["autos"]])


def build_loop(body):
    from .loops import SmoothLoopChart, bracket_loop, octonion_chart, polynomial_mul

    mul = body["mul"]
    if mul["kind"] == "builtin":
        return octonion_chart()
    if mul["kind"] == "bracket":
        chart = bracket_loop(body["dim"], np.asarray(mul["constants"], dtype=float))
        return SmoothLoopChart(
            dim=chart.dim, mul=chart.mul, unit=body.get("unit"), name=chart.name, spec=chart.spec
        )
    dim = body["dim"]
    terms = _poly_terms(mul["terms"], "$.body.mul.terms", dim, dim)
    return SmoothLoopChart(
        dim=dim,
        mul=polynomial_mul(dim, terms),
        unit=body.get("unit"),
        name="polynomial",
        spec={"kind": "polynomial", "dim": dim, "terms": mul["terms"]},
    )


def make_odd_polynomial(odd_coeffs):
    coeffs = [float(c) for c in odd_coeffs]

    def phi(x):
        acc = 0.0
        p = x
        for c in coeffs:
            acc += c * p
            p = p * x * x
        return acc

    return phi


def build_loopoid(body):
    from .loopoids import (
        SplitFibration,
        loop_as_loopoid,
        pair_groupoid,
        phi_quasiloopoid,
        product_loopoid,
        prolongation_loopoid,
    )

    kind = body["kind"]
    if kind == "pair_groupoid":
        return pair_groupoid(body["dim"])
    if kind == "product":
        return product_loopoid(build_loop(body["loop"]), body["pair_dim"])
    if kind == "loop":
        return loop_as_loopoid(build_loop(body["loop"]))
    if kind == "phi":
        coeffs = body["phi"]["odd_coeffs"]
        phi = make_odd_polynomial(coeffs)
        return phi_quasiloopoid(phi, phi_name=f"odd{coeffs}")
    base = build_loopoid(body["base"])
    fib = body["fibration"]
    pi = SplitFibration.coordinate(fib["dim_total"], fib["dim_base"])
    return prolongation_loopoid(base, pi)


def build_algebroid(body):
    from .algebroid import constant_chart, prolong_algebroid, tangent_chart
    from .loopoids import SplitFibration

    kind = body["kind"]
    if kind == "constant":
        rank = body["rank"]
        rho = np.asarray(body["rho"], dtype=float).reshape(body["base_dim"], rank)
        return constant_chart(np.asarray(body["c"], dtype=float), rho)
    if kind == "tangent":
        return tangent_chart(body["dim"])
    base = build_algebroid(body["base"])
    fib = body["fibration"]
    pi = SplitFibration.coordinate(fib["dim_total"], fib["dim_base"])
    return prolong_algebroid(base, pi)


def make_scalar_polynomial(terms, dim):
    parsed = [(float(c), np.asarray(e, dtype=np.int64)) for c, e in terms]

    def f(x):
        x = np.asarray(x, dtype=float).reshape(dim)
        return float(sum(c * np.prod(x**e) for c, e in parsed))

    return f


def build_system(body):
    from .mechanics import DiscreteLagrangianSystem, NewtonConfig

    q = build_loopoid(body["loopoid"])
    lag = body["lagrangian"]
    if lag["kind"] == "half_sum_squares":
        lfun = lambda g: 0.5 * float(np.asarray(g, dtype=float) @ np.asarray(g, dtype=float))
    else:
        terms = _scalar_terms(lag["terms"], "$.body.lagrangian.terms", q.dim_g)
        lfun = make_scalar_polynomial(terms, q.dim_g)
    return DiscreteLagrangianSystem(
        loopoid=q,
        lagrangian=lfun,
        newton=NewtonConfig(**(body.get("newton") or {})),
        orientation=body.get("orientation") or "aligned",
    )


BUILDERS = {
    "finite": build_finite,
    "loop": build_loop,
    "loopoid": build_loopoid,
    "algebroid": build_algebroid,
    "system": build_system,
}
