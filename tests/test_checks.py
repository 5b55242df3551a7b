"""Every check a report can carry can fail.

``CHECK_MUTANTS`` maps each check ref the CLI emits to a control, a command
line whose report carries the check and passes it, and a mutant of that run
that fails it.  A mutant changes the input only: the control's spec, or a
chart map, built-in table or construction patched for the run.  It never
patches the check's own arithmetic, ``cli._check``, the report or Newton's
stopping rule, so a check that no input can fail has no row.  A control
may patch its own input (``setup``, applied to the mutant too), to reach a
loopoid that no spec kind builds.  A ref with no
failing mutant goes into ``NO_MUTANT`` with the reason.  The refs the
controls emit, the table's keys and the check table of ``docs/schemas.md``
are one set.
"""

import dataclasses
import functools
import json
import re
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import EXAMPLES, aff1_action_groupoid, so3_action_algebroid
from loopoid_lab import algebroid, cli, finite, loops, octonion

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas.md"


@dataclasses.dataclass(frozen=True)
class Row:
    control: tuple  # the command line; a spec is its third word, an example
    spec: Optional[Callable] = None  # edits the control spec's body in place
    patch: Optional[Callable] = None  # patches the run through a monkeypatch
    setup: Optional[Callable] = None  # patches the control and the mutant alike


def _example(name):
    return str(EXAMPLES / f"{name}.json")


def _loopoid_with(**maps):
    """Build the spec's loopoid, then replace each named chart map by ``maps[name](q)``."""

    def patch(monkeypatch):
        build = cli.build_loopoid

        def mutant(body, path):
            q = build(body, path)
            return dataclasses.replace(q, **{name: make(q) for name, make in maps.items()})

        monkeypatch.setattr(cli, "build_loopoid", mutant)

    return patch


def _frames_with(**fields):
    """Build each stack of frames, then store a copy of each unit's frame
    whose named fields are ``fields[name](frames, units)``, and serve it."""

    def patch(monkeypatch):
        build = algebroid.algebroid_frame

        def mutant(q, u, derived=None):
            units = np.atleast_2d(u)
            frames = build(q, units, derived)
            copies = {
                name: [rows[i] for i in frames.ids] if name == "bivertical" else rows[frames.ids]
                for name, rows in frames.store.arrays.items()
            }
            copies.update({name: make(frames, units) for name, make in fields.items()})
            rows = frames.store.add(copies)
            return algebroid.AlgebroidFrame(frames.store, rows if np.ndim(u) > 1 else rows[0])

        monkeypatch.setattr(algebroid, "algebroid_frame", mutant)

    return patch


def _claims_unit_one(construction):
    """The finite construction, its table claiming element 1 as the unit."""

    def patch(monkeypatch):
        build = getattr(finite, construction)
        monkeypatch.setattr(finite, construction, lambda *a: dataclasses.replace(build(*a), unit=1))

    return patch


def _keeps_left_automorphism(monkeypatch):
    # (g, A)(h, B) = (g A(h), A): the product drops the right factor's automorphism
    build = finite.semidirect_loop

    def mutant(loop, autos):
        ct = build(loop, autos)
        na = len(autos)
        t = ct.table.astype(np.int64)
        return dataclasses.replace(ct, table=t - t % na + (np.arange(ct.order) % na)[:, None])

    monkeypatch.setattr(finite, "semidirect_loop", mutant)


def _flipped_sign():
    # e1 e2 = -e3 while e2 e1 = -e3 still: the product loses its norm
    sign = octonion.MUL_SIGN.copy()
    sign[1, 2] = -sign[1, 2]
    return sign


def _flipped_table_sign(monkeypatch):
    # the basis table the identities are decided on; the kernel's gather table stays
    monkeypatch.setattr(octonion, "MUL_SIGN", _flipped_sign())


def _flipped_kernel_sign(monkeypatch):
    # the kernel's gather table; the basis table stays
    monkeypatch.setattr(octonion, "GATHER_SIGN", np.take_along_axis(_flipped_sign(), octonion.GATHER_INDEX, axis=1))


def _conjugate_as_inverse(monkeypatch):
    # the conjugate equals the inverse on unit octonions only
    build = loops.octonion_chart
    monkeypatch.setattr(loops, "octonion_chart", lambda: dataclasses.replace(build(), inverse=octonion.oct_conj))


def _alpha_leg_moves(q):
    # the product's alpha leg picks up 0.1 x1 y1 (planar loop x pair(2) layout)
    def mul(g, h):
        gh = q.mul(g, h)
        return np.concatenate([gh[..., :2], gh[..., 2:3] + 0.1 * g[..., :1] * h[..., :1], gh[..., 3:]], axis=-1)

    return mul


def _reads_first_leg_twice(side):
    return lambda q: lambda g: getattr(q, side)(g)[..., [0, 0]]


def _not_complex_analytic(q):
    # the real part of the second factor's loop coordinates: mul is right at
    # every real point, and only its complex step goes wrong
    def mul(g, h):
        h = h.copy()
        h[..., :2] = h[..., :2].real
        return q.mul(g, h)

    return mul


def _builds_the_action_groupoid(monkeypatch):
    monkeypatch.setattr(cli, "build_loopoid", lambda body, path: aff1_action_groupoid())


def _builds_the_action_algebroid(monkeypatch):
    monkeypatch.setattr(cli, "build_algebroid", lambda body, path: so3_action_algebroid())


def _negated_brackets(monkeypatch):
    # the anchors of [e_i, e_j] no longer equal the brackets of the anchors
    build = cli.build_algebroid

    def mutant(body, path):
        chart = build(body, path)
        return dataclasses.replace(chart, c_fn=lambda x: -chart.c_fn(x))

    monkeypatch.setattr(cli, "build_algebroid", mutant)


def _anchors_vary_with_the_unit(frames, units):
    # anchors scaled by 1 + u_1 no longer carry the left brackets, which the
    # scaling leaves alone, to the brackets of their vector fields
    return (1.0 + units[:, :1, None]) * frames.rho_left


TABLE = ("verify-finite", "--spec", _example("z4_table"))
TRANSVERSAL = ("verify-finite", "--spec", _example("s3_transversal"))
SEMIDIRECT = ("verify-finite", "--spec", _example("signed_basis_semidirect"))
LOOPOID_CHECK = ("loopoid-check", "--spec", _example("readme_product_loopoid"))
LOOPOID_CHECK_IP = ("loopoid-check", "--spec", _example("octonion_pair1_loopoid"))
FUNCTOR = ("lie-functor", "--spec", _example("readme_product_loopoid"))
FUNCTOR_IP = ("lie-functor", "--spec", _example("octonion_pair1_loopoid"))
ALGEBROID = ("lie-functor", "--spec", _example("prolonged_algebroid"))
TANGENT = ("tangent-check", "--spec", _example("readme_product_loopoid"))
TANGENT_IP = ("tangent-check", "--spec", _example("octonion_pair1_loopoid"))
OCTONION = ("octonion", "--samples", "100")


def _repeated_row(body):
    body["table"][1] = body["table"][0]


def _wrong_loop_unit(body):
    body["loop"]["unit"] = [0.1, 0.0]


def _mul_forgets_the_right_factor(body):
    # x * y = x
    body["loop"]["mul"]["terms"] = [[[1.0, [1, 0], [0, 0]]], [[1.0, [0, 1], [0, 0]]]]


def _swap_one_and_two(body):
    # an involution fixing the unit that is not an automorphism of the loop
    perm = list(range(body["loop"]["order"]))
    perm[1], perm[2] = 2, 1
    body["autos"][1] = perm


def _skips_automorphism_test(monkeypatch):
    monkeypatch.setattr(finite, "_is_table_automorphism", lambda ct, perm: True)


CHECK_MUTANTS = {
    "finite.table_latin": Row(TABLE, spec=_repeated_row),
    "finite.transversal_unit": Row(TRANSVERSAL, patch=_claims_unit_one("transversal_loop")),
    # {0, 1, 3} meets each coset of {0, 2} once, but holds 3 and not its inverse 4
    "finite.transversal_left_inverse": Row(TRANSVERSAL, spec=lambda body: body.update(transversal=[0, 1, 3])),
    "finite.semidirect_latin": Row(SEMIDIRECT, patch=_keeps_left_automorphism),
    "finite.semidirect_unit": Row(SEMIDIRECT, patch=_claims_unit_one("semidirect_loop")),
    "finite.semidirect_ip": Row(SEMIDIRECT, spec=_swap_one_and_two, patch=_skips_automorphism_test),
    "octonion.norm_product": Row(OCTONION, patch=_flipped_table_sign),
    "octonion.moufang_identity": Row(OCTONION, patch=_flipped_table_sign),
    "octonion.conjugation": Row(OCTONION, patch=_flipped_table_sign),
    "octonion.inverse_property": Row(OCTONION, patch=_flipped_table_sign),
    "octonion.kernel_batch": Row(OCTONION, patch=_flipped_kernel_sign),
    "loopoid.units": Row(LOOPOID_CHECK, spec=_wrong_loop_unit),
    "loopoid.unit_section": Row(
        LOOPOID_CHECK, patch=_loopoid_with(unit_embed=lambda q: lambda u: q.unit_embed(1.5 * u))
    ),
    "loopoid.submersion_rank": Row(
        LOOPOID_CHECK, patch=_loopoid_with(alpha=_reads_first_leg_twice("alpha"), beta=_reads_first_leg_twice("beta"))
    ),
    "loopoid.anchor_morphism": Row(LOOPOID_CHECK, patch=_loopoid_with(mul=_alpha_leg_moves)),
    "loopoid.inverse_property": Row(LOOPOID_CHECK_IP, patch=_conjugate_as_inverse),
    # the action groupoid's anchors vary with the unit, so the control's
    # anchor bracket term is not zero
    "functor.anchor_bracket_morphism": Row(
        FUNCTOR, setup=_builds_the_action_groupoid, patch=_frames_with(rho_left=_anchors_vary_with_the_unit)
    ),
    "functor.inversion_normal_action": Row(FUNCTOR_IP, patch=_conjugate_as_inverse),
    # the right fields run backwards
    "functor.left_right_opposite": Row(
        FUNCTOR_IP, patch=_frames_with(beta_vertical=lambda frames, units: -frames.beta_vertical)
    ),
    # so(3) acting on R^3: its anchors vary with the base point, so the
    # control's anchor bracket term is not zero
    "algebroid.anchor_bracket_morphism": Row(ALGEBROID, setup=_builds_the_action_algebroid, patch=_negated_brackets),
    "tangent.anchor_compatibility": Row(TANGENT, patch=_loopoid_with(mul=_alpha_leg_moves)),
    "tangent.unit_action": Row(TANGENT, spec=_wrong_loop_unit),
    "tangent.section_choice": Row(TANGENT, patch=_loopoid_with(mul=_not_complex_analytic)),
    "tangent.translation_injective": Row(TANGENT, spec=_mul_forgets_the_right_factor),
    "tangent.inverse_property": Row(TANGENT_IP, patch=_conjugate_as_inverse),
    # half_sum_squares on phi: a probe step solve fails and the check reads Infinity
    "mechanics.flow_intertwines": Row(
        ("legendre", "--spec", _example("phi_system")),
        spec=lambda body: body.update(
            loopoid={"kind": "phi", "phi": {"odd_coeffs": [1.0, 0.5]}},
            lagrangian={"kind": "half_sum_squares"},
            start=[0.1, 0.2, 0.3],
        ),
    ),
}

# refs with no failing mutant, each with the reason; none at present
NO_MUTANT = {}


def _reject(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _invoke(args):
    """Exit code and ``{ref: check}`` of a run; the report must parse strictly."""
    result = CliRunner().invoke(cli.main, list(args))
    report = json.loads(result.output, parse_constant=_reject)
    assert "error" not in report, report
    return result.exit_code, {c["ref"]: c for c in report["checks"]}


@functools.lru_cache(maxsize=None)
def _control(args, setup=None):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if setup:
            setup(monkeypatch)
        return _invoke(args)


def _decided(check):
    """The check's verdict recomputed from its printed value and bound."""
    if "tol" in check:
        return float(check["value"]) < check["tol"]
    return check["value"] == check["expect"]


@pytest.mark.parametrize("ref", sorted(CHECK_MUTANTS))
def test_mutant_fails_its_check(ref, monkeypatch, tmp_path):
    row = CHECK_MUTANTS[ref]
    check = _control(row.control, row.setup)[1][ref]
    assert check["pass"] and _decided(check), check

    args = list(row.control)
    if row.spec:
        spec = json.loads(Path(args[2]).read_text(encoding="utf-8"))
        row.spec(spec["body"])
        args[2] = str(tmp_path / "mutant.json")
        Path(args[2]).write_text(json.dumps(spec), encoding="utf-8")
    for patch in (row.setup, row.patch):
        if patch:
            patch(monkeypatch)
    code, checks = _invoke(args)
    assert code == 1
    assert not checks[ref]["pass"] and not _decided(checks[ref]), checks[ref]


def test_every_emitted_check_has_a_mutant_and_a_schema_row():
    emitted = set()
    for row in CHECK_MUTANTS.values():
        code, checks = _control(row.control, row.setup)
        assert code == 0
        emitted |= set(checks)
    documented = set(re.findall(r"^\| `(\w+\.\w+)` \|", SCHEMAS.read_text(encoding="utf-8"), re.M))
    assert emitted == set(CHECK_MUTANTS) | set(NO_MUTANT) == documented
    assert not set(CHECK_MUTANTS) & set(NO_MUTANT)


@pytest.mark.parametrize(
    "patch, failing",
    [
        (_flipped_kernel_sign, {"octonion.kernel_batch"}),
        (_flipped_table_sign, {"octonion.norm_product", "octonion.moufang_identity", "octonion.conjugation", "octonion.inverse_property"}),
    ],
    ids=["kernel", "table"],
)
def test_octonion_mutants_fail_only_their_own_checks(patch, failing, monkeypatch):
    # the identities are decided on the basis table and the batch on the
    # kernel, so a flip in one leaves the other's checks passing
    patch(monkeypatch)
    code, checks = _invoke(OCTONION)
    assert code == 1
    assert {ref for ref, check in checks.items() if not check["pass"]} == failing
