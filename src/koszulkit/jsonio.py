"""File formats: matrices, tuples, operators, demo scenarios, maps, reports.

Matrix literals are ``{"rows": r, "cols": c, "entries": [[re, im], ...]}``
with integers r, c >= 0 and r*c entries row-major, where re/im are
strings like "3/4" in exact mode and plain numbers in float mode.  Tuple
files carry their mode; operator files are always exact.  Reports are
the text of ``json.dumps(..., sort_keys=True, indent=2)``, written with
each leaf, complex number and all-complex matrix literal in one piece,
with floats rounded to 12 significant digits and those below
REPORT_FLOAT_FLOOR in size written as 0.0, so identical inputs give
byte-identical files whatever LAPACK path produced their rounding noise.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite

import numpy as np

from .ell2 import BandedOperator, Diagonal
from .errors import FormatError
from .koszul import CommutingTuple, validate_tuple
from .linalg import Mat
from .polymap import Polynomial, PolyMap
from .scalars import EXACT, FLOAT, GaussianRational


def _expect(value, kind: type, what: str):
    """``value`` when it is a ``kind`` (dict or list), else FormatError."""
    if not isinstance(value, kind):
        raise FormatError(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return value


def _as_int(value, what: str) -> int:
    """``value`` when it is an integral number and not a bool (2.0 passes
    as 2; 1.7, true and "1" do not), else FormatError."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise FormatError(f"{what} must be an integer, got {value!r}")


# -- scalars ------------------------------------------------------------


def parse_scalar(value, mode: str):
    """[re, im] pair, or a bare part for a real value: a part is a string
    or a number in exact mode, a number in float mode, never a boolean."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise FormatError(f"scalar entry must be [re, im], got {value!r}")
        re, im = value
    else:
        re, im = value, 0
    if mode == EXACT:
        if isinstance(re, bool) or isinstance(im, bool):
            raise FormatError(f"bad exact scalar {value!r}")
        try:
            return GaussianRational(re, im)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad exact scalar {value!r}") from exc
    if isinstance(re, (bool, str)) or isinstance(im, (bool, str)):
        raise FormatError(f"bad float scalar {value!r}: its parts must be numbers")
    try:
        re, im = float(re), float(im)
    except (TypeError, OverflowError) as exc:
        raise FormatError(f"bad float scalar {value!r}") from exc
    if not (isfinite(re) and isfinite(im)):
        raise FormatError(f"float scalar {value!r} is not finite")
    return complex(re, im)


# -- matrices -----------------------------------------------------------


def mat_from_json(obj, mode: str = EXACT) -> Mat:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise FormatError("matrix literal needs rows, cols, entries") from exc
    rows, cols = _as_int(rows, "matrix rows"), _as_int(cols, "matrix cols")
    entries = _expect(entries, list, "matrix entries")
    if min(rows, cols) < 0:
        raise FormatError(f"matrix literal shape {rows}x{cols} is not two integers >= 0")
    if len(entries) != rows * cols:
        raise FormatError(
            f"matrix literal has {len(entries)} entries for {rows}x{cols}"
        )
    if mode == EXACT:
        # each distinct pair of strings is parsed once; any other entry (keyed by index) each time
        keys = [tuple(e) if isinstance(e, list) and list(map(type, e)) == [str, str] else i
                for i, e in enumerate(entries)]
        parsed = {k: parse_scalar(e, EXACT) for k, e in dict(zip(keys, entries)).items()}
        return Mat(rows, cols, [parsed[k] for k in keys], EXACT)
    vals = [parse_scalar(e, mode) for e in entries]
    arr = np.array(vals, dtype=complex).reshape(rows, cols) if vals else np.zeros((rows, cols), dtype=complex)
    return Mat(rows, cols, arr, FLOAT)


def mat_from_numpy_json(A: np.ndarray) -> dict:
    """A float matrix as a literal; each complex entry is written [re, im]."""
    A = np.atleast_2d(np.asarray(A, complex))
    return {"rows": A.shape[0], "cols": A.shape[1], "entries": A.ravel().tolist()}


# -- tuples -------------------------------------------------------------


def matrices_from_json(obj) -> list:
    """The matrices of a tuple file, parsed but not validated."""
    obj = _expect(obj, dict, "tuple file")
    mode = obj.get("mode", EXACT)
    if mode not in (EXACT, FLOAT):
        raise FormatError(f"unknown mode {mode!r}")
    mats = [mat_from_json(m, mode) for m in _expect(obj.get("matrices", []), list, "matrices")]
    if not mats:
        raise FormatError("tuple file has no matrices")
    return mats


def tuple_from_json(obj) -> CommutingTuple:
    return validate_tuple(matrices_from_json(obj))


# -- banded operators ----------------------------------------------------


def operator_from_json(obj) -> BandedOperator:
    obj = _expect(obj, dict, "operator")
    diags = []
    for d in _expect(obj.get("diagonals", []), list, "diagonals"):
        d = _expect(d, dict, "diagonal")
        offset = _as_int(d.get("offset"), "diagonal offset")
        prefix = _expect(d.get("prefix", []), list, "prefix")
        period = _expect(d.get("period", [0]), list, "period")
        diags.append(
            Diagonal(
                offset,
                tuple(parse_scalar(v, EXACT) for v in prefix),
                tuple(parse_scalar(v, EXACT) for v in period),
            )
        )
    if obj.get("bandwidth") is not None:
        declared = _as_int(obj["bandwidth"], "bandwidth")
        actual = max((abs(d.offset) for d in diags), default=0)
        if actual > declared:
            raise FormatError(
                f"declared bandwidth {declared} below largest offset {actual}"
            )
    patch = None
    if obj.get("patch") is not None:
        patch = mat_from_json(obj["patch"], EXACT)
    return BandedOperator.build(diags, patch=patch)


def pair_from_json(obj) -> tuple:
    """(T, K) from the obstruct input {'operator': ..., 'perturbation': ...}."""
    obj = _expect(obj, dict, "obstruct input")
    if "operator" not in obj or "perturbation" not in obj:
        raise FormatError("obstruct input needs {'operator': ..., 'perturbation': ...}")
    return operator_from_json(obj["operator"]), operator_from_json(obj["perturbation"])


# -- demo scenarios --------------------------------------------------------


def scenario_from_json(obj) -> dict:
    """A demo scenario with its kind checked, its operators parsed, its
    optional integer and string fields (absent ones stay absent) checked,
    and ``perturbations`` as a list of (name, operator) pairs."""
    obj = _expect(obj, dict, "scenario file")
    if obj.get("demo") not in ("growth", "obstruction"):
        raise FormatError(f"scenario file has unknown demo kind {obj.get('demo')!r}")
    out = dict(obj, operator=operator_from_json(obj.get("operator")))
    out.update({k: _as_int(obj[k], k) for k in ("rank_bound", "max_level") if k in obj})
    if "powers" in obj:
        out["powers"] = tuple(_as_int(m, "powers entry") for m in _expect(obj["powers"], list, "powers"))
    cases = [_expect(c, dict, "perturbation") for c in _expect(obj.get("perturbations", []), list, "perturbations")]
    texts = [(k, obj[k]) for k in ("description", "pair_note") if k in obj]
    for what, text in texts + [("perturbation name", c.get("name", "?")) for c in cases]:
        if not isinstance(text, str):
            raise FormatError(f"{what} must be a string, got {text!r}")
    out["perturbations"] = [(c.get("name", "?"), operator_from_json(c.get("operator"))) for c in cases]
    return out


# -- polynomial maps ------------------------------------------------------


def polymap_from_json(obj, mode: str = EXACT) -> PolyMap:
    if not isinstance(obj, list) or not obj:
        raise FormatError("polynomial map must be a nonempty list of polynomials")
    polys = []
    for poly in obj:
        terms = []
        for term in _expect(poly, list, "polynomial"):
            try:
                coeff, mono = term["coeff"], term["monomial"]
            except (KeyError, TypeError) as exc:
                raise FormatError("polynomial term needs coeff and monomial") from exc
            mono = tuple(_as_int(k, "monomial exponent") for k in _expect(mono, list, "monomial"))
            terms.append((mono, parse_scalar(coeff, mode)))
        polys.append(terms)
    # the variables are counted by the first polynomial with a term
    nvars = next((len(terms[0][0]) for terms in polys if terms), 1)
    zero = [((0,) * nvars, 0)]
    return PolyMap.from_components([Polynomial.from_terms(nvars, terms or zero, mode) for terms in polys])


# -- deterministic report emission ----------------------------------------


#: report floats smaller than this in size are rounding noise; written as 0.0
REPORT_FLOAT_FLOOR = 1e-14


def _report_leaf(x):
    """A report scalar as written: floats rounded to 12 significant
    digits (0.0 below REPORT_FLOAT_FLOOR in size), numpy scalars as
    Python ones."""
    if isinstance(x, (float, np.floating)):
        return 0.0 if abs(x) < REPORT_FLOAT_FLOOR else float(f"{x:.12g}")
    return x.item() if isinstance(x, np.generic) else x


def _leaf_text(x) -> str:
    """The JSON text of one report leaf, rounded by ``_report_leaf``."""
    v = _report_leaf(x)
    if isinstance(v, str):
        return _encode_str(v)
    if type(v) is int or isinstance(v, float) and isfinite(v):
        return repr(v)
    return json.dumps(v)  # bool, None, empty containers, nan and infinities


def _float_text(x) -> str:
    """The JSON text of a report float, rounded by ``_report_leaf``."""
    v = _report_leaf(x)
    return repr(v) if isfinite(v) else json.dumps(v)


def _complex_text(z, pad: str) -> str:
    """A complex number at indent ``pad`` as the list [re, im], in one piece."""
    inner = pad + "  "
    return f"[\n{inner}{_float_text(z.real)},\n{inner}{_float_text(z.imag)}\n{pad}]"


#: the text of a leaf of the types reports mostly hold, by exact type
_LEAF_TEXT = {int: int.__repr__, float: _float_text, str: _encode_str}


def _json_text(x, pad: str) -> str:
    """The text ``json.dumps(..., sort_keys=True, indent=2)`` gives x at
    indent ``pad`` with its leaves rounded.  Leaf members, complex numbers
    and matrix literals whose entries are all complex are written in one
    piece; only other containers are recursed into."""
    if isinstance(x, complex):
        return _complex_text(x, pad)
    if not (isinstance(x, (dict, list, tuple)) and x):
        return _leaf_text(x)
    inner, keyed = pad + "  ", isinstance(x, dict)
    if keyed and x.keys() == {"cols", "entries", "rows"} and type(x["rows"]) is type(x["cols"]) is int:
        entries, i4 = x["entries"], inner + "  "
        if isinstance(entries, list) and entries and all(isinstance(e, complex) for e in entries):
            body = f",\n{i4}".join([_complex_text(e, i4) for e in entries])
            return (f'{{\n{inner}"cols": {x["cols"]},\n{inner}"entries": [\n{i4}{body}\n{inner}],'
                    f'\n{inner}"rows": {x["rows"]}\n{pad}}}')
    parts = []
    for k in sorted(x) if keyed else range(len(x)):
        text = _LEAF_TEXT.get(type(x[k]))
        key = _encode_str(k if isinstance(k, str) else json.dumps(k)) + ": " if keyed else ""
        parts.append(key + (text(x[k]) if text else _json_text(x[k], inner)))
    close = "}" if keyed else "]"
    return ("{" if keyed else "[") + f"\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{close}"


def report_to_json_bytes(report: dict) -> bytes:
    return (_json_text(report, "") + "\n").encode("utf-8")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def report_to_csv_bytes(report: dict) -> bytes:
    """CSV rendering: tables keep their column contract, everything else
    flattens to key,value rows with sorted keys."""
    if "rows" in report:
        lines = ["m,dim_ker,dim_coker,index,exceeds"]
        for row in report["rows"]:
            lines.append(
                ",".join(
                    _csv_cell(row[k])
                    for k in ("m", "dim_ker", "dim_coker", "index", "exceeds")
                )
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    flat = _flatten(report)
    lines = ["key,value"] + [f"{k},{_csv_cell(v)}" for k, v in sorted(flat.items())]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _flatten(obj, prefix=""):
    out = {}
    if isinstance(obj, complex):
        obj = (obj.real, obj.imag)
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(_flatten(v, f"{prefix}{i}."))
    else:
        out[prefix[:-1] if prefix.endswith(".") else prefix] = _report_leaf(obj)
    return out


def emit_report(report: dict, fmt: str = "json", path=None) -> bytes:
    """Serialize a report; write it to ``path`` when given."""
    if fmt == "json":
        data = report_to_json_bytes(report)
    elif fmt == "csv":
        data = report_to_csv_bytes(report)
    else:
        raise FormatError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(data)
    return data
