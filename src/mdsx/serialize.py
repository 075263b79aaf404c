"""JSON-dict forms of fields, matrices, and code specs.

A code spec is {"field": {...}, "code": {...}} where the code part is one of
the construction types below; `build`-style commands emit the "generator"
form, which round-trips to the same codeword set.
"""

from __future__ import annotations

import json

from .code import LinearCode, code_from_generator
from .constructions import GrsSpec, cyclic_cu, egrs, grs, prs, roth_lempel
from .errors import InvalidSpec, MdsxError, ParseError
from .field import FieldCtx, field_new
from .matrix import Matrix

CODE_TYPES = ("generator", "grs", "egrs", "prs", "roth-lempel", "cyclic",
              "dual", "extend")


def _is_int(v) -> bool:
    """An int and not a bool: JSON's true, 2.7 and "2" are no integers."""
    return isinstance(v, int) and not isinstance(v, bool)


def _integer(v, what):
    """v, if it is an integer (`_is_int`); InvalidSpec otherwise, rather
    than reading 2.7 as 2."""
    if not _is_int(v):
        raise InvalidSpec(f"{what} must be an integer, got {v!r}")
    return v


def field_to_dict(ctx: FieldCtx) -> dict:
    return {"p": ctx.p, "m": ctx.m, "modulus": list(ctx.modulus)}


def field_from_dict(d) -> FieldCtx:
    if not isinstance(d, dict) or "p" not in d or "m" not in d:
        raise InvalidSpec("field descriptor needs p and m")
    try:
        ctx = field_new(_integer(d["p"], "p"), _integer(d["m"], "m"))
    except MdsxError:
        raise
    except (TypeError, ValueError) as e:
        raise InvalidSpec(f"bad field descriptor: {e}")
    modulus = d.get("modulus", list(ctx.modulus))
    if not isinstance(modulus, list) or modulus != list(ctx.modulus):
        raise InvalidSpec(
            f"modulus {modulus!r} is not the canonical modulus "
            f"{list(ctx.modulus)} of GF({ctx.q})")
    return ctx


def matrix_to_dict(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": m.to_int_rows()}


def matrix_from_dict(ctx: FieldCtx, d) -> Matrix:
    try:
        rows = _integer(d["rows"], "rows")
        cols = _integer(d["cols"], "cols")
        entries = d["entries"]
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidSpec(f"bad matrix: {e}")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise InvalidSpec("matrix entries do not match declared shape")
    for r in entries:
        for e in r:
            if not _is_int(e) or not 0 <= e < ctx.q:
                raise InvalidSpec(f"entry {e} is not an encoding in "
                                  f"[0, {ctx.q})")
    return Matrix(ctx, entries, cols=cols)


def code_to_spec_dict(code: LinearCode) -> dict:
    return {
        "field": field_to_dict(code.ctx),
        "code": {"type": "generator",
                 "matrix": matrix_to_dict(code.generator)},
    }


def _vector_from(ctx, v, length, what):
    if not isinstance(v, (list, tuple)) or len(v) != length:
        raise InvalidSpec(f"{what} must be a list of length {length}")
    for e in v:
        if not _is_int(e) or not 0 <= e < ctx.q:
            raise InvalidSpec(f"{what} entry {e} is not an encoding in "
                              f"[0, {ctx.q})")
    return ctx.vector(v)


def _code_from_part(ctx: FieldCtx, part) -> LinearCode:
    if not isinstance(part, dict) or "type" not in part:
        raise InvalidSpec("code part needs a type")
    t = part["type"]
    if t not in CODE_TYPES:
        raise InvalidSpec(f"unknown code type {t!r}; expected one of "
                          f"{', '.join(CODE_TYPES)}")
    try:
        if t == "generator":
            m = matrix_from_dict(ctx, part["matrix"])
            # a 0-row generator is the explicit zero-code representation
            return code_from_generator(m, allow_zero=m.rows == 0)
        if t in ("grs", "egrs"):
            nodes = _vector_from(ctx, part["nodes"], len(part["nodes"]),
                                 "nodes")
            mult = part.get("multipliers", 1)
            if isinstance(mult, int):
                mult = [mult] * len(nodes)
            mult = _vector_from(ctx, mult, len(nodes), "multipliers")
            spec = GrsSpec.make(ctx, nodes, mult, _integer(part["k"], "k"))
            return egrs(spec) if t == "egrs" else grs(spec)
        if t == "prs":
            return prs(ctx, _integer(part["k"], "k"))
        if t == "roth-lempel":
            nodes = _vector_from(ctx, part["nodes"], len(part["nodes"]),
                                 "nodes")
            return roth_lempel(nodes, _integer(part["k"], "k"),
                               _integer(part["delta"], "delta"))
        if t == "cyclic":
            if ctx.p != 2 or ctx.m < 2:
                raise InvalidSpec("cyclic type needs a GF(2^m) field, m >= 2")
            return cyclic_cu(ctx.m, _integer(part["u"], "u"))
        if t == "dual":
            return _code_from_part(ctx, part["inner"]).dual()
        if t == "extend":
            inner = _code_from_part(ctx, part["inner"])
            u = _vector_from(ctx, part["u"], inner.n, "u")
            return inner.extend_u(u)
    except InvalidSpec:
        raise
    except KeyError as e:
        raise InvalidSpec(f"code type {t!r} is missing field {e}")
    except (TypeError, ValueError) as e:
        raise InvalidSpec(f"bad {t!r} code part: {e}")
    raise InvalidSpec(f"unhandled code type {t!r}")  # unreachable


def code_from_spec(d) -> tuple[FieldCtx, LinearCode]:
    if not isinstance(d, dict):
        raise InvalidSpec("spec must be a JSON object")
    if "field" not in d:
        raise InvalidSpec("spec needs a field")
    ctx = field_from_dict(d["field"])
    if "code" in d:
        try:
            return ctx, _code_from_part(ctx, d["code"])
        except RecursionError:
            raise InvalidSpec("code part is nested too deeply")
    if "generator" in d:
        # shorthand: {field, generator} is the generator-type spec
        return ctx, _code_from_part(
            ctx, {"type": "generator", "matrix": d["generator"]})
    raise InvalidSpec("spec needs code or generator")


def load_spec_file(path) -> tuple[FieldCtx, LinearCode]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    except RecursionError:
        raise ParseError(f"{path}: JSON is nested too deeply")
    return code_from_spec(d)


def parse_int_list(text: str, what: str = "vector") -> list[int]:
    """Comma-separated ints, e.g. '0,3,3,4'."""
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise ParseError(f"bad {what} {text!r}; want comma-separated ints")


def parse_vector_arg(ctx: FieldCtx, text: str, length=None) -> tuple:
    """Comma-separated element encodings, of the given length if any."""
    vals = parse_int_list(text)
    if length is not None and len(vals) != length:
        raise ParseError(f"vector has length {len(vals)}, expected {length}")
    if any(not 0 <= v < ctx.q for v in vals):
        raise ParseError(f"vector entries must be encodings in [0, {ctx.q})")
    return ctx.vector(vals)
