"""Structure specs: JSON in, canonical reports and CSV tables out.

Specs are one JSON object {"kind": ..., "seed": ..., "body": {...}} where
``kind`` is one of finite | loop | loopoid | algebroid | system.
``parse_spec`` checks this envelope; the kind's ``build_*(body, path)``
reads each body field once, checks it, and builds from the checked value,
so a malformed field is a SchemaError that carries its JSON path.  Output
is deterministic: canonical JSON sorts keys and prints every float with 17
significant digits; CSV uses '.' decimals, ',' separators, LF endings.
"""

import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError

KINDS = ("finite", "loop", "loopoid", "algebroid", "system")


@dataclass(frozen=True)
class StructureSpec:
    kind: str
    seed: int
    body: dict


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
# field readers: each returns the checked value or raises at the field's path
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


def _index(val, path, order):
    _int(val, path, minimum=0)
    if val >= order:
        raise SchemaError(f"expected an index below {order}, got {val}", path)
    return val


def _indices(val, path, order):
    """A list of indices in range(order); entry paths are formatted only for
    a list that holds a bad entry, which keeps large tables cheap to read."""
    xs = _list(val, path)
    if not all(type(v) is int and 0 <= v < order for v in xs):
        for i, v in enumerate(xs):
            _index(v, f"{path}[{i}]", order)
    return xs


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


def _fibration(body, path, base_dim):
    """The coordinate fibration of a prolongation over a base of ``base_dim``."""
    from .loopoids import SplitFibration

    fpath = f"{path}.fibration"
    fib = _need(body, "fibration", path)
    total = _int(_need(fib, "dim_total", fpath), f"{fpath}.dim_total", minimum=0)
    dim_base = _int(_need(fib, "dim_base", fpath), f"{fpath}.dim_base")
    if dim_base != base_dim:
        raise SchemaError(f"expected the base's dimension {base_dim}, got {dim_base}", f"{fpath}.dim_base")
    if dim_base > total:
        raise SchemaError("dim_base exceeds dim_total", f"{fpath}.dim_base")
    return SplitFibration(total, dim_base)


def parse_spec(text):
    """Check a spec's envelope (the JSON, kind, seed, an object body); builders check the body."""
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
    _int(seed, "$.seed", minimum=0)  # numpy seeds are non-negative
    body = raw.get("body", {})
    if not isinstance(body, dict):
        raise SchemaError("expected an object", "$.body")
    return StructureSpec(kind=kind, seed=seed, body=body)


# ---------------------------------------------------------------------------
# builders: ``path`` is the JSON path of ``body``, e.g. "$.body"
# ---------------------------------------------------------------------------


def _table(body, path):
    from .finite import CayleyTable

    order = _int(_need(body, "order", path), f"{path}.order", minimum=1)
    rows = _list(_need(body, "table", path), f"{path}.table")
    if len(rows) != order:
        raise SchemaError(f"expected {order} rows", f"{path}.table")
    for i, row in enumerate(rows):
        if len(_indices(row, f"{path}.table[{i}]", order)) != order:
            raise SchemaError(f"expected {order} entries", f"{path}.table[{i}]")
    unit = body.get("unit")
    if unit is not None:
        _index(unit, f"{path}.unit", order)
    return CayleyTable(order=order, table=np.asarray(rows), unit=unit)


def build_finite(body, path):
    from .finite import semidirect_loop, transversal_loop

    kind = _need(body, "kind", path)
    if kind == "table":
        return _table(body, path)
    if kind == "transversal":
        grp = _table(_need(body, "group", path), f"{path}.group")
        subgroup = _indices(_need(body, "subgroup", path), f"{path}.subgroup", grp.order)
        transversal = _indices(_need(body, "transversal", path), f"{path}.transversal", grp.order)
        return transversal_loop(grp, set(subgroup), set(transversal))
    if kind == "semidirect":
        loop = _table(_need(body, "loop", path), f"{path}.loop")
        autos = _list(_need(body, "autos", path), f"{path}.autos")
        perms = [np.asarray(_indices(p, f"{path}.autos[{i}]", loop.order), dtype=np.int64) for i, p in enumerate(autos)]
        return semidirect_loop(loop, perms)
    raise SchemaError(f"unknown finite kind {kind!r}", f"{path}.kind")


def _loop_unit(body, path, dim):
    """A loop body's optional ``unit`` of ``dim`` numbers; a loop has no ``fd_step``."""
    unit = body.get("unit")
    if unit is not None:
        unit = _numbers(unit, f"{path}.unit")
        if unit.shape != (dim,):
            raise SchemaError(f"expected {dim} numbers, got shape {unit.shape}", f"{path}.unit")
    if "fd_step" in body:
        raise SchemaError("the differencing steps are fixed; fd_step is not a loop field", f"{path}.fd_step")
    return unit


def build_loop(body, path):
    from .loops import SmoothLoopChart, bracket_loop, octonion_chart, polynomial_chart

    mpath = f"{path}.mul"
    mul = _need(body, "mul", path)
    mkind = _need(mul, "kind", mpath)
    if mkind == "builtin":
        name = _need(mul, "name", mpath)
        if name != "octonion":
            raise SchemaError(f"unknown builtin {name!r}", f"{mpath}.name")
        _loop_unit(body, path, 8)  # the octonion chart keeps its unit e0
        return octonion_chart()
    if mkind not in ("polynomial", "bracket"):
        raise SchemaError(f"unknown mul kind {mkind!r}", f"{mpath}.kind")
    dim = _int(_need(body, "dim", path), f"{path}.dim", minimum=1)
    if mkind == "polynomial":
        terms = _poly_terms(_need(mul, "terms", mpath), f"{mpath}.terms", dim, dim)
        return polynomial_chart(dim, terms, unit=_loop_unit(body, path, dim))
    constants = _numbers(_need(mul, "constants", mpath), f"{mpath}.constants")
    if constants.shape != (dim, dim, dim):
        raise SchemaError(f"constants shape {constants.shape} != ({dim},)*3", f"{mpath}.constants")
    chart = bracket_loop(dim, constants)
    return SmoothLoopChart(dim=dim, mul=chart.mul, unit=_loop_unit(body, path, dim), name=chart.name)


def make_odd_polynomial(odd_coeffs):
    def phi(x):
        acc = 0.0
        p = x
        for c in odd_coeffs:
            acc += c * p
            p = p * x * x
        return acc

    return phi


def build_loopoid(body, path):
    from .loopoids import loop_as_loopoid, pair_groupoid, phi_quasiloopoid, product_loopoid, prolongation_loopoid

    kind = _need(body, "kind", path)
    if kind == "pair_groupoid":
        return pair_groupoid(_int(_need(body, "dim", path), f"{path}.dim", minimum=1))
    if kind == "product":
        loop = build_loop(_need(body, "loop", path), f"{path}.loop")
        return product_loopoid(loop, _int(_need(body, "pair_dim", path), f"{path}.pair_dim", minimum=0))
    if kind == "loop":
        return loop_as_loopoid(build_loop(_need(body, "loop", path), f"{path}.loop"))
    if kind == "phi":
        cpath = f"{path}.phi.odd_coeffs"
        coeffs = _list(_need(_need(body, "phi", path), "odd_coeffs", f"{path}.phi"), cpath)
        phi = make_odd_polynomial([_num(c, f"{cpath}[{i}]") for i, c in enumerate(coeffs)])
        return phi_quasiloopoid(phi, phi_name=f"odd{coeffs}")
    if kind == "prolongation":
        base = build_loopoid(_need(body, "base", path), f"{path}.base")
        return prolongation_loopoid(base, _fibration(body, path, base.dim_m))
    raise SchemaError(f"unknown loopoid kind {kind!r}", f"{path}.kind")


def build_algebroid(body, path):
    from .algebroid import constant_chart, prolong_algebroid, tangent_chart

    kind = _need(body, "kind", path)
    if kind == "constant":
        rank = _int(_need(body, "rank", path), f"{path}.rank", minimum=1)
        base_dim = _int(_need(body, "base_dim", path), f"{path}.base_dim", minimum=0)
        c = _numbers(_need(body, "c", path), f"{path}.c")
        if c.shape != (rank, rank, rank):
            raise SchemaError(f"c shape {c.shape} != ({rank},)*3", f"{path}.c")
        rho = _numbers(_need(body, "rho", path), f"{path}.rho")
        if rho.size != base_dim * rank or (base_dim > 0 and rho.shape != (base_dim, rank)):
            raise SchemaError(f"rho shape {rho.shape} != ({base_dim}, {rank})", f"{path}.rho")
        return constant_chart(c, rho.reshape(base_dim, rank))
    if kind == "tangent":
        return tangent_chart(_int(_need(body, "dim", path), f"{path}.dim", minimum=1))
    if kind == "prolongation":
        base = build_algebroid(_need(body, "base", path), f"{path}.base")
        return prolong_algebroid(base, _fibration(body, path, base.base_dim))
    raise SchemaError(f"unknown algebroid kind {kind!r}", f"{path}.kind")


def make_scalar_polynomial(terms, dim):
    """The scalar polynomial sum of c * prod(x**e) on ``(..., dim)`` points,
    taken in term order from 0.0, as ``polynomial_mul`` takes its terms."""
    coeffs = [float(c) for c, _ in terms]
    exponents = np.ravel([e for _, e in terms]).astype(np.int64)
    cols = np.tile(np.arange(dim), len(terms))

    def f(x):
        # np.take gives C-ordered rows, so each power and product runs the
        # contiguous loop a single point gets
        powers = np.take(x, cols, axis=-1) ** exponents
        monomials = np.prod(powers.reshape(np.shape(x)[:-1] + (len(terms), dim)), axis=-1)
        out = np.zeros(np.shape(x)[:-1], dtype=np.result_type(x, float))
        for j, c in enumerate(coeffs):
            out += c * monomials[..., j]
        return out

    return f


def _newton(body, path):
    """The optional ``newton`` block as NewtonConfig keyword arguments."""
    npath = f"{path}.newton"
    newton = {} if body.get("newton") is None else body["newton"]
    if not isinstance(newton, dict):
        raise SchemaError(f"expected an object, got {type(newton).__name__}", npath)
    for key, value in newton.items():
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
    return newton


def build_system(body, path):
    from .mechanics import DiscreteLagrangianSystem, NewtonConfig

    q = build_loopoid(_need(body, "loopoid", path), f"{path}.loopoid")
    lpath = f"{path}.lagrangian"
    lag = _need(body, "lagrangian", path)
    lkind = _need(lag, "kind", lpath)
    if lkind == "half_sum_squares":
        # the stacked matmul rounds each row's |g|^2 as g @ g rounds that row alone
        lfun = lambda g: 0.5 * (g[..., None, :] @ g[..., :, None])[..., 0, 0]
    elif lkind == "polynomial":
        lfun = make_scalar_polynomial(_scalar_terms(_need(lag, "terms", lpath), f"{lpath}.terms", q.dim_g), q.dim_g)
    else:
        raise SchemaError(f"unknown lagrangian kind {lkind!r}", f"{lpath}.kind")
    if body.get("start") is not None:  # the commands read it as their default point
        for i, v in enumerate(_list(body["start"], f"{path}.start")):
            _num(v, f"{path}.start[{i}]")
    orientation = "aligned" if body.get("orientation") is None else body["orientation"]
    if orientation not in ("aligned", "normal_class"):
        raise SchemaError("orientation must be 'aligned' or 'normal_class'", f"{path}.orientation")
    return DiscreteLagrangianSystem(
        loopoid=q, lagrangian=lfun, newton=NewtonConfig(**_newton(body, path)), orientation=orientation
    )
