"""Plain-text Cayley-table files for finite structures.

Format:
    arity m
    size k
    <k**m result lines>      one element index per line, row-major
                             lexicographic over argument tuples
    labels x0 x1 ... xk-1    optional single final line

Blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

from .core import FiniteCarrier, NAryOperation, PolyadicStructure, _index_table


def _header(line: str, key: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise ValueError(f"expected '{key} N' header line, got {line!r}")
    try:
        value = int(parts[1])
    except ValueError:
        raise ValueError(f"bad {key} value in {line!r}") from None
    if value < 1:
        raise ValueError(f"{key} must be positive, got {value}")
    return value


def parse_table(text: str, name: str = "table") -> PolyadicStructure:
    """The structure of a table file on the carrier 0..k-1; its operation folds
    positions read from the carrier's index, so a non-member raises NonMember."""
    lines = list(map(str.strip, text.splitlines()))
    if "#" in text or not all(lines):
        lines = [ln for ln in lines if ln and ln[0] != "#"]
    if len(lines) < 2:
        raise ValueError("table file is missing its header lines")
    m = _header(lines[0], "arity")
    k = _header(lines[1], "size")
    body = lines[2:]
    labels = None
    if body and body[-1].startswith("labels"):
        labels = body[-1].split()[1:]
        body = body[:-1]
        if len(labels) != k:
            raise ValueError(f"labels block must list exactly {k} names")
    need = k ** m
    if len(body) != need:
        raise ValueError(f"expected {need} result lines, got {len(body)}")
    try:  # canonical digits by lookup, which is also the range check
        flat = tuple(map({str(v): v for v in range(k)}.__getitem__, body))
    except KeyError:  # name the first bad line, in file order
        for ln in body:
            try:
                v = int(ln)
            except ValueError:
                raise ValueError(f"bad result line {ln!r}") from None
            if not 0 <= v < k:
                raise ValueError(f"result index {v} out of range 0..{k - 1}")
        flat = tuple(map(int, body))
    carrier = FiniteCarrier(range(k), labels=labels, name=name)

    def fn(polyad, _flat=flat, _k=k, _index=carrier.index):
        idx = 0
        for d in polyad:
            idx = idx * _k + _index[d]
        return _flat[idx]

    structure = PolyadicStructure(carrier, NAryOperation(m, fn, name=name), name=name)
    structure.facts["index_table"] = (flat, k)
    return structure


def read_table(path: str) -> PolyadicStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read(), name=path)


def format_table(s: PolyadicStructure) -> str:
    """Serialize a finite structure; round-trips through parse_table, so a
    label that is not a string, is empty or holds whitespace raises ValueError."""
    if not s.carrier.is_finite:
        raise ValueError("only finite structures can be written as tables")
    labels = getattr(s.carrier, "labels", None)
    bad = [label for label in labels or ()
           if not isinstance(label, str) or label.split() != [label]]
    if bad:
        raise ValueError(f"labels {bad!r} do not survive the whitespace-separated labels line")
    table, k = _index_table(s)
    lines = [f"arity {s.arity}", f"size {k}"]
    lines.extend(str(v) for v in table)
    if labels:
        lines.append("labels " + " ".join(labels))
    return "\n".join(lines) + "\n"
