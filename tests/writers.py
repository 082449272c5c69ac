"""JSON writers for test inputs, in the file formats ``koszulkit.jsonio``
reads: exact parts as fraction strings ("3/4", "-2"), float parts as
numbers."""

from koszulkit.scalars import GaussianRational


def scalar_to_json(v) -> list:
    if isinstance(v, GaussianRational):
        return [str(v.re), str(v.im)]
    c = complex(v)
    return [c.real, c.imag]


def mat_to_json(M) -> dict:
    entries = [scalar_to_json(M.at(i, j)) for i in range(M.rows) for j in range(M.cols)]
    return {"rows": M.rows, "cols": M.cols, "entries": entries}


def tuple_to_json(T) -> dict:
    return {"mode": T.mode, "matrices": [mat_to_json(M) for M in T.matrices]}


def operator_to_json(op) -> dict:
    return {
        "bandwidth": op.bandwidth,
        "diagonals": [
            {"offset": d.offset, "prefix": list(map(scalar_to_json, d.prefix)), "period": list(map(scalar_to_json, d.period))}
            for d in op.diagonals
        ],
    }


def polymap_to_json(f) -> list:
    return [[{"coeff": scalar_to_json(c), "monomial": list(e)} for e, c in comp.terms] for comp in f.components]
