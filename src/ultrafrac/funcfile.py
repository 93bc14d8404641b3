"""On-disk test-function format: exact rationals only, canonical coset order.

Schema (JSON object):
    p               prime
    degree          number of coordinates n
    support_level   integer m; the support is the ball at level -m
    constancy_level integer k
    values          array of exactly p**(n*(m+k)) records, lexicographic in
                    the digits; each record is {"digits": [n digit arrays of
                    length m+k, digits in [0, p)], "re": {"num", "den"},
                    "im": {"num", "den"}}

No floats anywhere; files round-trip bit-exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import FunctionFileError
from .field import FieldParams, enumerate_digits
from .functions import TestFunction
from .numerics import ComplexValue


def _read_rational(obj, where: str) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise FunctionFileError(f"{where}: expected {{'num', 'den'}}, got {obj!r}")
    num, den = obj["num"], obj["den"]
    if not isinstance(num, int) or not isinstance(den, int) or isinstance(num, bool) or isinstance(den, bool):
        raise FunctionFileError(f"{where}: num/den must be integers, got {obj!r}")
    if den == 0:
        raise FunctionFileError(f"{where}: zero denominator")
    return Fraction(num, den)


def function_from_dict(doc: dict) -> TestFunction:
    required = {"p", "degree", "support_level", "constancy_level", "values"}
    if not isinstance(doc, dict) or set(doc) != required:
        raise FunctionFileError(f"expected exactly the keys {sorted(required)}")
    for key in ("p", "degree", "support_level", "constancy_level"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise FunctionFileError(f"{key} must be an integer, got {doc[key]!r}")
    try:
        fp = FieldParams(doc["p"], doc["degree"])
    except ValueError as exc:
        raise FunctionFileError(str(exc)) from exc
    m, k = doc["support_level"], doc["constancy_level"]
    if k < -m:
        raise FunctionFileError(f"constancy_level {k} below the support scale {-m}")
    records = doc["values"]
    count = len(records) if isinstance(records, list) else None
    depth = fp.n * (m + k)
    # p**depth >= 2**depth exceeds every count below 2**depth, so a far-out level is refused before its power is built
    if count is None or depth >= count.bit_length() or fp.p**depth != count:
        raise FunctionFileError(
            f"value table has {'non-list' if count is None else count} entries, expected p**(n*(m+k)) = {fp.p}**{depth}"
        )
    table = {}
    addresses = enumerate_digits(fp, -m, k)  # taken after each record's shape check, which bounds the degree
    for rec in records:
        if not isinstance(rec, dict) or set(rec) != {"digits", "re", "im"}:
            raise FunctionFileError(f"record must have digits/re/im, got {rec!r}")
        digits = rec["digits"]
        if (
            not isinstance(digits, list)
            or len(digits) != fp.n
            or any(len(ds) != m + k for ds in digits)
            or any(not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < fp.p for ds in digits for a in ds)
        ):
            raise FunctionFileError(f"bad digit arrays {digits!r}: need {fp.n} arrays of length {m + k} with digits in [0, {fp.p})")
        got, want = tuple(tuple(ds) for ds in digits), next(addresses)
        if got != want:
            raise FunctionFileError(f"records out of canonical order: got {got}, expected {want}")
        re = _read_rational(rec["re"], f"value at {got}")
        im = _read_rational(rec["im"], f"value at {got}")
        table[got] = ComplexValue.from_rational(re, im)
    return TestFunction(fp, -m, k, table)


def function_to_dict(f: TestFunction) -> dict:
    values = []
    for d in f.addresses():
        v = f.values[d]
        if not v.is_exact or not (v.re.exact.is_rational and v.im.exact.is_rational):  # type: ignore[union-attr]
            raise FunctionFileError("only exact rational-valued functions can be written")
        re, im = v.re.exact.a, v.im.exact.a  # type: ignore[union-attr]
        values.append(
            {
                "digits": [list(ds) for ds in d],
                "re": {"num": re.numerator, "den": re.denominator},
                "im": {"num": im.numerator, "den": im.denominator},
            }
        )
    return {
        "p": f.fp.p,
        "degree": f.fp.n,
        "support_level": -f.support_level,
        "constancy_level": f.constancy_level,
        "values": values,
    }


def read_function(path: str | Path) -> TestFunction:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise FunctionFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FunctionFileError(f"{path} is not valid JSON: {exc}") from exc
    return function_from_dict(doc)


def write_function(f: TestFunction, path: str | Path) -> None:
    Path(path).write_text(json.dumps(function_to_dict(f), indent=1) + "\n")
