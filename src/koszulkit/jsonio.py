"""File formats: matrices, tuples, operators, demo scenarios, maps, reports.

Matrix literals are ``{"rows": r, "cols": c, "entries": [[re, im], ...]}``
with integers r, c >= 0 and r*c entries row-major, where re/im are
strings like "3/4" in exact mode and plain numbers in float mode.  Tuple
files carry their mode; operator files are always exact.  Reports are
emitted with sorted keys and floats rounded to 12 significant digits,
and those below REPORT_FLOAT_FLOOR in size written as 0.0, so identical
inputs give byte-identical files whatever LAPACK path produced their
rounding noise.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from math import gcd, isfinite

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
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} must be an integer, got {value!r}") from exc


# -- scalars ------------------------------------------------------------


def parse_scalar(value, mode: str):
    """[re, im] pair, or a bare number/string for a real value."""
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
    try:
        re, im = float(re), float(im)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad float scalar {value!r}") from exc
    if not (isfinite(re) and isfinite(im)):
        raise FormatError(f"float scalar {value!r} is not finite")
    return complex(re, im)


def _ratio_str(p: int, q: int) -> str:
    """p/q in lowest terms as ``str(Fraction(p, q))`` writes it."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def scalar_to_json(value):
    if isinstance(value, GaussianRational):
        return [_ratio_str(value.a, value.d), _ratio_str(value.b, value.d)]
    c = complex(value)
    return [c.real, c.imag]


# -- matrices -----------------------------------------------------------


def mat_from_json(obj, mode: str = EXACT) -> Mat:
    try:
        shape = obj["rows"], obj["cols"]
        rows, cols = map(int, shape)
        entries = _expect(obj["entries"], list, "matrix entries")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError("matrix literal needs rows, cols, entries") from exc
    if (rows, cols) != shape or min(rows, cols) < 0 or bool in map(type, shape):
        raise FormatError(f"matrix literal shape {shape[0]!r}x{shape[1]!r} is not two integers >= 0")
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


def mat_to_json(M: Mat) -> dict:
    entries = [scalar_to_json(M.at(i, j)) for i in range(M.rows) for j in range(M.cols)]
    return {"rows": M.rows, "cols": M.cols, "entries": entries}


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


def tuple_to_json(T: CommutingTuple) -> dict:
    return {"mode": T.mode, "matrices": [mat_to_json(M) for M in T.matrices]}


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


def operator_to_json(op: BandedOperator) -> dict:
    return {
        "bandwidth": op.bandwidth,
        "diagonals": [
            {
                "offset": d.offset,
                "prefix": [scalar_to_json(v) for v in d.prefix],
                "period": [scalar_to_json(v) for v in d.period],
            }
            for d in op.diagonals
        ],
    }


def pair_from_json(obj) -> tuple:
    """(T, K) from the obstruct input {'operator': ..., 'perturbation': ...}."""
    obj = _expect(obj, dict, "obstruct input")
    if "operator" not in obj or "perturbation" not in obj:
        raise FormatError("obstruct input needs {'operator': ..., 'perturbation': ...}")
    return operator_from_json(obj["operator"]), operator_from_json(obj["perturbation"])


# -- demo scenarios --------------------------------------------------------


def scenario_from_json(obj) -> dict:
    """A demo scenario with its kind checked, its operators parsed, its
    optional integer fields (absent ones stay absent) checked, and
    ``perturbations`` as a list of (name, operator) pairs."""
    obj = _expect(obj, dict, "scenario file")
    if obj.get("demo") not in ("growth", "obstruction"):
        raise FormatError(f"scenario file has unknown demo kind {obj.get('demo')!r}")
    out = dict(obj, operator=operator_from_json(obj.get("operator")))
    out.update({k: _as_int(obj[k], k) for k in ("rank_bound", "max_level") if k in obj})
    if "powers" in obj:
        out["powers"] = tuple(_as_int(m, "power") for m in _expect(obj["powers"], list, "powers"))
    out["perturbations"] = [
        (_expect(c, dict, "perturbation").get("name", "?"), operator_from_json(c.get("operator")))
        for c in _expect(obj.get("perturbations", []), list, "perturbations")
    ]
    return out


# -- polynomial maps ------------------------------------------------------


def polymap_from_json(obj, mode: str = EXACT) -> PolyMap:
    if not isinstance(obj, list) or not obj:
        raise FormatError("polynomial map must be a nonempty list of polynomials")
    comps = []
    nvars = None
    for poly in obj:
        terms = []
        for term in _expect(poly, list, "polynomial"):
            try:
                coeff = parse_scalar(term["coeff"], mode)
                mono = tuple(int(k) for k in term["monomial"])
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError("polynomial term needs coeff and monomial") from exc
            terms.append((mono, coeff))
        if nvars is None:
            nvars = len(terms[0][0]) if terms else 1
        if not terms:
            terms = [((0,) * nvars, 0)]
        comps.append(Polynomial.from_terms(nvars, terms, mode))
    return PolyMap.from_components(comps)


def polymap_to_json(f: PolyMap) -> list:
    return [
        [
            {"coeff": scalar_to_json(c), "monomial": list(e)}
            for e, c in comp.terms
        ]
        for comp in f.components
    ]


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


def _json_parts(x, pad: str, out: list) -> None:
    """Append to ``out`` the text that ``json.dumps(..., sort_keys=True,
    indent=2)`` gives x with its leaves rounded, in one walk; a complex
    number is the list [re, im]."""
    if isinstance(x, complex):
        x = (x.real, x.imag)
    if isinstance(x, (dict, list, tuple)) and x:
        keyed, inner = isinstance(x, dict), pad + "  "
        lead = ("{" if keyed else "[") + "\n" + inner
        for k in sorted(x) if keyed else range(len(x)):
            key = _encode_str(k if isinstance(k, str) else json.dumps(k)) + ": " if keyed else ""
            out.append(lead + key)
            _json_parts(x[k], inner, out)
            lead = ",\n" + inner
        out.append("\n" + pad + ("}" if keyed else "]"))
    else:
        v = _report_leaf(x)
        if isinstance(v, str):
            out.append(_encode_str(v))
        elif type(v) is int or isinstance(v, float) and isfinite(v):
            out.append(repr(v))
        else:  # bool, None, empty containers, nan and infinities
            out.append(json.dumps(v))


def report_to_json_bytes(report: dict) -> bytes:
    out = []
    _json_parts(report, "", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


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
