"""Infinitesimal structure of charted quasiloopoids.

The normal bundle of the unit manifold is realized by frames: an
alpha-vertical basis (null space of T alpha at the embedded unit), the
beta-vertical representatives of the same normal classes (X^beta_i =
X^alpha_i - T eps . rho_i, which forces opposite left/right anchors), and a
basis of the embedded tangent directions.  Frames also carry an
"anchor-aligned" beta basis: the strict representatives reflected across
the bi-vertical subspace, so their T alpha images equal +rho instead of
-rho.  Discrete mechanics defaults to the aligned orientation (it makes the
two Legendre transforms agree on the unit manifold); brackets, anchors and
the inversion identities use the strict one.  A frame field derives frames
a stack of units at a time, keeps one row per distinct triple of side
Jacobians in a stacked store, and serves a unit or a stack a view that
gathers only the field its caller reads.

Left/right prolongations are fundamental vector fields obtained by
complex-step derivatives of the partial multiplication along fiber
directions; their Lie brackets at unit points, expanded back in the frame,
are the two skew brackets carried by the normal bundle.  A bracket table
takes every pair of frame sections from one central Jacobian of the r
stacked fields.  A loopoid's Lie functor is a ``SkewAlgebroidChart``
(``lie_chart``) that differences its complex-stepped anchors centrally.
The almost-Lie residual is array arithmetic on stacks of structure
tensors, anchors and anchor derivatives, so it checks any chart.  A smooth
loop is a loopoid over a point, and its skew algebra is the bracket table
there (``loop_skew_constants``).
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import FrameSingular, NumericalNoise, RankDeficient
from .loopoids import loop_as_loopoid
from .numdiff import (
    OUTER_STEP,
    complex_jacobian,
    complex_step,
    directional,
    jacobian,
    null_space,
    smallest_singular_value,
)

STRICT = "normal_class"
ALIGNED = "aligned"


FRAME_FIELDS = ("alpha_vertical", "beta_vertical", "beta_vertical_aligned", "tm_basis", "rho_left", "bivertical")


class FrameStore:
    """Frames stacked by row, ``arrays[name]`` per field (``bivertical`` a
    list), and ``rows``, the row of each derived Jacobian triple's bytes."""

    def __init__(self):
        self.rows, self.arrays = {}, {}

    def add(self, frames):
        """Append the ``(N, ...)`` field arrays of N frames; returns their rows."""
        start = len(self.arrays.get("bivertical", ()))
        for name, new in frames.items():
            old = self.arrays.get(name, new[:0])
            self.arrays[name] = old + new if name == "bivertical" else np.concatenate([old, new])
        return np.arange(start, start + len(frames["bivertical"]))


@dataclass(frozen=True, eq=False)
class AlgebroidFrame:
    """Frame of the normal bundle at one unit (``ids`` a row), or of each
    unit of a stack (an array of rows; each field gains a leading N): a view
    of a ``FrameStore`` that gathers a field as it is read.  Fields: the
    (r, dim_g) rows ``alpha_vertical`` (ker T alpha), ``beta_vertical``
    (strict reps, ker T beta) and ``beta_vertical_aligned`` (T alpha image
    +rho); ``tm_basis`` (dim_m, dim_g), the image of T eps; the anchors
    ``rho_left`` (r, dim_m), T beta of the alpha-vertical rows; and the
    (k, dim_g) orthonormal ``bivertical`` rows of ker [T alpha; T beta],
    whose k can vary, so read at single units only."""

    store: FrameStore
    ids: object

    def __getattr__(self, name):
        if name not in FRAME_FIELDS:
            raise AttributeError(name)
        return self.store.arrays[name][self.ids]

    def beta_reps(self, orientation):
        if orientation not in (STRICT, ALIGNED):
            raise ValueError(f"unknown orientation {orientation!r}")
        return self.beta_vertical if orientation == STRICT else self.beta_vertical_aligned


def _derive_frames(q, units, jab, tm):
    """Frame arrays from the stacked side Jacobians, alpha's rows over
    beta's, and the instance's preferred basis (without one, null spaces);
    ``units`` name errors only."""
    ja, jb = jab[:, : q.dim_m], jab[:, q.dim_m :]

    def first_failing(failing, rate, message):
        if failing.any():
            raise RankDeficient(message.format(u=units[np.argmax(failing)], rate=rate[np.argmax(failing)]))

    if q.dim_m > 0:
        sv = np.minimum(smallest_singular_value(ja), smallest_singular_value(jb))
        first_failing(sv < 1e-8, sv, "alpha/beta Jacobian loses submersion rank at u = {u}: sigma_min {rate:.2e}")
    bases = null_space(ja) if q.preferred_alpha_vertical is None else [q.preferred_alpha_vertical] * len(units)
    for p, a in zip(units, bases):
        if a.shape != (q.rank, q.dim_g):
            raise RankDeficient(f"alpha-vertical basis shape {a.shape} != ({q.rank}, {q.dim_g}) at u = {p}")
    a = np.stack(bases)
    # The frame's rows are checked once, here, against the Jacobians they
    # were built from; prolong trusts them.
    off = np.max(np.abs(ja @ np.swapaxes(a, 1, 2)), axis=(1, 2), initial=0.0)
    first_failing(off > 1e-7, off, "alpha-vertical basis leaves ker T alpha at rate {rate:.2e} at u = {u}")

    rho = np.swapaxes(jb @ np.swapaxes(a, 1, 2), 1, 2)  # (N, r, m)
    b = a - rho @ tm                         # strict: subtract T eps . rho
    bt = np.swapaxes(b, 1, 2)
    off = np.max(np.abs(jb @ bt), axis=(1, 2), initial=0.0)
    first_failing(off > 1e-7, off, "beta-vertical representatives leave ker T beta at rate {rate:.2e} at u = {u}")

    # projectors onto the bi-vertical subspaces, spanned by orthonormal rows
    bivertical = null_space(jab)
    proj = np.stack([biv.T @ biv for biv in bivertical])
    b_aligned = np.swapaxes(2.0 * proj @ bt - bt, 1, 2)
    return dict(zip(FRAME_FIELDS, (a, b, b_aligned, tm, rho, bivertical)))


def algebroid_frame(q, u, derived=None):
    """The frame at the embedded unit of ``u``, or the frames of an
    ``(N, dim_m)`` stack of units, viewed in the ``FrameStore`` ``derived``.

    The basis of ker T alpha (rows) is the instance's preferred frame when it
    has one, the same at every unit, otherwise an SVD null space.  A stack
    takes one ``complex_jacobian`` of e -> (alpha(e), beta(e)), which acts
    row by row, and one of unit_embed.  The rest of a frame is a function of
    the bytes of its unit's three Jacobians: the store keeps a row per
    distinct triple and derives those it lacks by one ``_derive_frames``
    call, whose stacked SVDs and products run one LAPACK/BLAS call per
    matrix, so a frame equals its unit's alone, bit for bit.  A failed
    check names the first failing unit and its rate, and stores nothing.
    """
    units = np.atleast_2d(u)
    derived = FrameStore() if derived is None else derived
    keys = []
    if len(units):
        jab = complex_jacobian(lambda e: np.concatenate([q.alpha(e), q.beta(e)], axis=-1), q.unit_embed(units))
        tm = np.swapaxes(complex_jacobian(q.unit_embed, units), 1, 2)  # (N, m, g)
        keys = [row.tobytes() for row in np.concatenate([jab, tm], axis=1).reshape(len(units), -1)]
        new = [key for key in dict.fromkeys(keys) if key not in derived.rows]
        if new:
            rows = [keys.index(key) for key in new]
            derived.rows.update(zip(new, derived.add(_derive_frames(q, units[rows], jab[rows], tm[rows]))))
    ids = np.array([derived.rows[key] for key in keys], dtype=np.intp)
    return AlgebroidFrame(derived, ids if np.ndim(u) > 1 else ids[0])


def make_frame_field(q):
    """Cached map from a unit point, or an ``(N, dim_m)`` stack of units,
    to the view of its frames in the field's ``FrameStore``.

    Units that agree to 12 decimals share one frame; a stack is rounded in
    one call and each row looked up by its bytes.  The rows the cache lacks
    (a repeated key by its first row) are built by one ``algebroid_frame``
    call and only then cached, so a failed request caches nothing.
    """
    cache = {}
    store = FrameStore()

    def field(u):
        keys = [key.tobytes() for key in np.atleast_2d(np.round(u, 12))]
        missing = [key for key in dict.fromkeys(keys) if key not in cache]
        if missing:
            first_rows = np.atleast_2d(u)[[keys.index(key) for key in missing]]
            cache.update(zip(missing, algebroid_frame(q, first_rows, store).ids))
        ids = np.array([cache[key] for key in keys], dtype=np.intp)
        return AlgebroidFrame(store, ids if np.ndim(u) > 1 else ids[0])

    return field


def prolong(q, frame_field, side, g, orientation=STRICT):
    """The ``(..., r, dim_g)`` fundamental vector fields of the r frame
    sections at g, a point or a ``(N, dim_g)`` stack.

    Left: the derivative of h -> m(g, h) at the unit of beta(g) along the
    alpha-vertical rows of the frame there.  Right: that of h -> m(h, g) at
    the unit of alpha(g) along the beta representatives in the requested
    orientation.  Each point's unit, frame rows and embedded base are
    resolved once (the rows by one gather from the frame store, the frames
    the stack lacks by one ``algebroid_frame`` build), and the
    multiplication runs once, on all ``N r`` complex-step points.  A
    complex-step point's real part is its unit, so it cannot leave the
    slab; that its direction is tangent to the slab is a property of the
    frame, which ``algebroid_frame`` checks once when it builds it.

    Row contract: each point's values equal, bit for bit, those of the
    point alone, so a fundamental field can be differenced on a stencil
    stack in one call.
    """
    rows = g.reshape(-1, q.dim_g)
    if side == "left":
        u = q.beta(rows)
        reps = frame_field(u).alpha_vertical
    elif side == "right":
        u = q.alpha(rows)
        reps = frame_field(u).beta_reps(orientation)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    # complex_step orders its points by point, then direction
    fixed = np.repeat(rows, q.rank, axis=0)

    def mul(points):
        return q.mul(fixed, points) if side == "left" else q.mul(points, fixed)

    values = complex_step(mul, q.unit_embed(u), reps)
    return values.reshape(g.shape[:-1] + (q.rank, q.dim_g))


def expand_in_frame(fr, side, value):
    """Coefficients of a vertical vector, or of the columns of a
    ``(dim_g, P)`` matrix of them, in [side basis | TM basis]; the right
    side's basis is the strict beta representatives.

    Returns (side_coeffs, tm_coeffs); raises FrameSingular on an
    ill-conditioned frame matrix.
    """
    rows = fr.alpha_vertical if side == "left" else fr.beta_vertical
    mat = np.vstack([rows, fr.tm_basis]).T
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise FrameSingular(f"frame condition {sv[0] / sv[-1]:.2e}")
    coeffs, *_ = np.linalg.lstsq(mat, value, rcond=None)
    return coeffs[: len(rows)], coeffs[len(rows) :]


def bracket_table(q, side, u, frame_field, rel_step=OUTER_STEP):
    """The side's brackets of the frame sections at u as skew constants:
    ``table[k, i, j]`` is coefficient k of [e_i, e_j].

    The r fundamental fields X_i are one stacked field, evaluated at the
    embedded unit e and differenced there by one central ``jacobian`` at
    the relative step ``rel_step``, so
    [X_i, X_j](e) = DX_j(e) X_i(e) - DX_i(e) X_j(e) for every pair i < j
    from two calls of the multiplication.  The pairs' brackets are expanded
    in the frame together, by one ``expand_in_frame``.  A rank below 2 has
    no pairs and gives the zero table.
    """
    r = q.rank
    table = np.zeros((r, r, r))
    if r < 2:
        return table
    e = q.unit_embed(u)
    fields = lambda g: prolong(q, frame_field, side, g)
    values = fields(e)  # (r, dim_g)
    d = jacobian(fields, e, rel_step)  # d[i] = DX_i(e)
    i, j = np.triu_indices(r, 1)
    brackets = np.stack([d[b] @ values[a] - d[a] @ values[b] for a, b in zip(i, j)], axis=-1)
    coeffs, _ = expand_in_frame(frame_field(u), side, brackets)
    table[:, i, j] = coeffs
    table[:, j, i] = -coeffs
    return table


def loop_skew_constants(loop):
    """The skew algebra of a smooth loop: ``constants[k, i, j]`` is
    coefficient k of [e_i, e_j].

    A loop is a loopoid over a point, so its bracket is the Lie functor's
    there: minus the right ``bracket_table`` of ``loop_as_loopoid(loop)``
    (the left table agrees up to rounding).  The table is taken at
    ``OUTER_STEP`` and again at half of it, and a drift above 1e-4 between
    the two raises NumericalNoise: the multiplication is not smooth enough
    at the unit for its bracket to be differenced.  Adding 0.0 turns the
    negated zeros into +0.0, so reports print no ``-0``.
    """
    q = loop_as_loopoid(loop)
    ff = make_frame_field(q)
    u = np.zeros(0)
    table = bracket_table(q, "right", u, ff)
    half = bracket_table(q, "right", u, ff, OUTER_STEP / 2.0)
    drift = float(np.max(np.abs(table - half), initial=0.0))
    if drift > 1e-4:
        raise NumericalNoise(f"skew constants drift {drift:.3e} between steps {OUTER_STEP:g} and {OUTER_STEP / 2:g}")
    return -table + 0.0


def almost_lie_residual(c, rho, drho):
    """max |rho([e_i, e_j]) - [rho e_i, rho e_j]| over the pairs i < j of
    frame sections at each of N samples.

    ``c`` is the ``(N, r, r, r)`` stack of structure tensors c[k, i, j],
    ``rho`` the ``(N, m, r)`` anchor columns and ``drho[s, a, i, l]`` the
    ``(N, m, r, m)`` derivative of ``rho[s, a, i]`` along base coordinate l,
    so [rho e_i, rho e_j] = D rho_j . rho_i - D rho_i . rho_j.  The caller
    takes ``drho`` by the rule ``numdiff`` states for its anchors; a rank
    below 2 has no pairs and gives 0.
    """
    r = c.shape[-1]
    if r < 2:
        return 0.0
    along = np.einsum("sajl,sli->saij", drho, rho)  # (D rho_j . rho_i)_a
    gap = np.einsum("sak,skij->saij", rho, c) - (along - np.swapaxes(along, 2, 3))
    i, j = np.triu_indices(r, 1)
    return float(np.max(np.linalg.norm(gap, axis=1)[:, i, j], initial=0.0))


# ---------------------------------------------------------------------------
# skew-algebroid charts (structure functions + anchor functions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkewAlgebroidChart:
    """Skew algebroid over R^base_dim in a frame of rank ``rank``.

    ``c_fn(x)`` returns the (rank, rank, rank) structure tensor c[k, i, j],
    antisymmetric in (i, j); ``rho_fn(x)`` the (base_dim, rank) anchor
    matrix whose columns are the anchors of the frame sections.  Both keep
    the row contract: on a ``(..., base_dim)`` stack they return the
    ``(..., rank, rank, rank)`` and ``(..., base_dim, rank)`` stacks of the
    rows' values.  ``stepped_anchors``, that ``rho_fn`` takes complex steps
    itself, decides the rule of ``drho``.
    """

    base_dim: int
    rank: int
    c_fn: Callable
    rho_fn: Callable
    name: str = "skew_algebroid"
    stepped_anchors: bool = False

    def c(self, x):
        return np.reshape(self.c_fn(x), x.shape[:-1] + (self.rank, self.rank, self.rank))

    def rho(self, x):
        return np.reshape(self.rho_fn(x), x.shape[:-1] + (self.base_dim, self.rank))

    def drho(self, x):
        """The ``(..., base_dim, rank, base_dim)`` base derivatives of the
        anchors at x by numdiff's rule: one ``complex_jacobian``, or one
        central ``directional`` at ``OUTER_STEP`` of stepped anchors."""
        if not self.stepped_anchors:
            return complex_jacobian(self.rho, x)
        axes = np.broadcast_to(np.eye(self.base_dim), x.shape + (self.base_dim,))
        return np.moveaxis(directional(self.rho, x, axes), x.ndim - 1, -1)


def lie_chart(q, frame_field):
    """The Lie functor of ``q`` as a chart named ``q.name``: at each unit of
    a stack, the left ``bracket_table`` and the frames' ``rho_left``
    anchors, read through ``frame_field``; its anchors are stepped."""
    return SkewAlgebroidChart(
        base_dim=q.dim_m,
        rank=q.rank,
        c_fn=lambda x: np.stack([bracket_table(q, "left", u, frame_field) for u in np.atleast_2d(x)]),
        rho_fn=lambda x: np.swapaxes(frame_field(x).rho_left, -1, -2),
        name=q.name,
        stepped_anchors=True,
    )


def constant_chart(c, rho):
    c = np.asarray(c, dtype=float)
    rho = np.asarray(rho, dtype=float)
    r = c.shape[0]
    m = rho.shape[0]
    return SkewAlgebroidChart(
        base_dim=m,
        rank=r,
        c_fn=lambda x: np.broadcast_to(c, x.shape[:-1] + c.shape),
        rho_fn=lambda x: np.broadcast_to(rho, x.shape[:-1] + rho.shape),
        name="constant",
    )


def tangent_chart(m):
    """TM as a skew algebroid: the constant chart with zero bracket constants
    and identity anchor."""
    return replace(constant_chart(np.zeros((m, m, m)), np.eye(m)), name=f"tangent({m})")


def prolong_algebroid(chart, pi):
    """Prolongation over a coordinate fibration pi: P -> M.

    Carrier {(X, V): rho(X) = T pi(V)} over P, rank = rank + dim_fiber.  In
    the frame (horizontal lifts of the input frame, vertical fiber
    directions) the structure tensor embeds the input one and the anchor
    stacks rho with the vertical identity.  The anchor of a bracket is the
    bracket of anchors by construction, so the output is almost Lie whenever
    its own bracket closes (in particular for almost-Lie inputs of any
    Jacobi status, and always over a point base).  Since T pi = [I 0] has
    full rank, the carrier has rank + dim_fiber at every point, and the
    first-factor projection intertwines the anchors exactly.  ``pi.dim_base``
    must equal ``chart.base_dim``; the spec reader checks it.
    """
    nf = pi.dim_fiber
    r = chart.rank
    big_r = r + nf

    def c_fn(p):
        base = pi.proj(p)
        out = np.zeros(base.shape[:-1] + (big_r, big_r, big_r))
        out[..., :r, :r, :r] = chart.c(base)
        return out

    jb, jf = pi.join_jacobians()  # horizontal and vertical lifts

    def rho_fn(p):
        base = pi.proj(p)
        # complex points give a complex anchor, which complex_step reads
        out = np.zeros(base.shape[:-1] + (pi.dim_total, big_r), dtype=np.result_type(p, float))
        out[..., :r] = jb @ chart.rho(base)
        out[..., r:] = jf
        return out

    return SkewAlgebroidChart(
        base_dim=pi.dim_total,
        rank=big_r,
        c_fn=c_fn,
        rho_fn=rho_fn,
        name=f"prolongation({chart.name})",
    )
