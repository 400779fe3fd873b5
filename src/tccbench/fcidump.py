"""FCIDUMP interchange: read and write Molpro-style integral files.

Only `--fcidump` runs load this module; the built-in models never do.
"""

from __future__ import annotations

import re
from typing import TextIO

import numpy as np

from .errors import InputError
from .hamiltonian import IntegralSet, check_orbital_count, integrals_differ

_HEADER_KV = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([^=]*?)(?=(?:,?\s*[A-Za-z0-9_]+\s*=)|$)")

# the record shapes, by which indices are 0, each with its conflicting duplicate's message
_CONFLICTS = {(True,) * 4: "conflicting core-energy records",
              (False, False, True, True): "conflicting h({0},{1}) records",
              (False,) * 4: "conflicting (ij|kl) records at ({0},{1},{2},{3})"}


def _orbit(i, j, k, l):
    """The images of a record under i <-> j, k <-> l and (ij) <-> (kl); h_ij's include (0 0 i j),
    which nothing reads. The largest is the canonical record: i >= j, k >= l, (ij) >= (kl)."""
    return {
        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
    }


def parse_fcidump(stream: TextIO | str) -> IntegralSet:
    """Read a Molpro-style FCIDUMP file into an IntegralSet.

    Each record names one orbit (the core energy, h_ij = h_ji, or the eight images of (ij|kl));
    two records of an orbit whose values integrals_differ are refused. Fortran D-exponents
    are accepted. MS2, if given, must be NELEC mod 2. ORBSYM/ISYM are validated, not used.
    """
    text = stream if isinstance(stream, str) else stream.read()
    m = re.search(r"&(?:FCI|fci)(.*?)(?:&END|/)", text, re.S)
    if m is None:
        raise InputError("no &FCI ... &END/ header found")
    header, body = m.group(1), text[m.end():]

    fields = {}
    for key, val in _HEADER_KV.findall(header.replace("\n", " ")):
        fields[key.upper()] = val.strip().rstrip(",").strip()
    try:
        norb = int(fields["NORB"])
        nelec = int(fields["NELEC"])
        ms2 = int(fields.get("MS2", nelec % 2))
        syms = [int(s) for s in fields.get("ORBSYM", "").replace(",", " ").split()]
        int(fields.get("ISYM") or 1)
    except KeyError as exc:
        raise InputError(f"missing header field {exc}") from exc
    except ValueError as exc:
        raise InputError(f"non-integer header field: {exc}") from exc
    if norb < 1 or nelec < 0:
        raise InputError(f"bad NORB/NELEC: {norb}/{nelec}")
    if ms2 != nelec % 2:   # the reference occupies orbitals 1..NELEC: M_s = 0, or +1/2 for odd NELEC
        raise InputError(f"MS2={ms2} is not the reference's MS2={nelec % 2} for NELEC={nelec}")
    check_orbital_count(norb)
    if len(syms) not in (0, norb):
        raise InputError(f"ORBSYM lists {len(syms)} entries for NORB={norb}")

    seen = {}   # each orbit's canonical record -> the value last read for it
    for lineno, raw in enumerate(body.splitlines(), text.count("\n", 0, m.end()) + 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise InputError(f"record line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(x) for x in parts[1:])
        except ValueError as exc:
            raise InputError(f"record line {lineno}: {exc}") from exc
        if not np.isfinite(value):   # integrals_differ would let a later record of its orbit win
            raise InputError(f"record line {lineno}: value {value} is not finite")
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise InputError(f"record line {lineno}: index {idx} is not in 0..NORB={norb}")
        shape = (i == 0, j == 0, k == 0, l == 0)
        if shape not in _CONFLICTS:
            raise InputError(f"record line {lineno}: unsupported record shape ({i},{j},{k},{l})")
        key = max(_orbit(i, j, k, l))
        if key in seen and integrals_differ(seen[key], value, (seen[key], value)):
            raise InputError(_CONFLICTS[shape].format(i, j, k, l))
        seen[key] = value

    v = np.zeros((norb + 1,) * 4)   # index 0 is a record's 0: h_ij is v[i, j, 0, 0]
    for key, value in seen.items():
        for image in _orbit(*key):
            v[image] = value
    return IntegralSet(norb, v[1:, 1:, 0, 0], v[1:, 1:, 1:, 1:], float(v[0, 0, 0, 0]),
                       n_electrons=nelec)


def write_fcidump(ints: IntegralSet, stream: TextIO) -> None:
    """Write an IntegralSet in canonical FCIDUMP order.

    Canonical order: two-electron records first with ascending compound
    index over i>=j, k>=l, (ij)>=(kl); then one-electron records with i>=j;
    then the core energy. MS2 is the reference's, NELEC mod 2. Needs 8-fold symmetry:
    given IntegralSet's 4-fold one, that is (pq|rs) = (qp|rs), tested one p at a time.
    """
    n, g, nelec = ints.n_spatial, ints.g, ints.n_electrons
    if nelec is None:
        raise InputError("FCIDUMP needs NELEC, and the IntegralSet has no electron count")
    for p in range(n):
        if integrals_differ(g[p], g[:, p], g):
            raise InputError("FCIDUMP stores a single value per 8-fold orbit; "
                             f"(pq|rs) is not (qp|rs) at p={p + 1}")
    orbsym = ",".join(["1"] * n)
    stream.write(f"&FCI NORB={n},NELEC={nelec},MS2={nelec % 2},\n")
    stream.write(f"  ORBSYM={orbsym},\n  ISYM=1,\n&END\n")

    def rec(value, i, j, k, l):
        stream.write(f" {value: .16E} {i:4d} {j:4d} {k:4d} {l:4d}\n")

    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for k in range(1, i + 1):
                for l in range(1, (j if k == i else k) + 1):   # (kl) <= (ij)
                    v = g[i - 1, j - 1, k - 1, l - 1]
                    if v != 0.0:
                        rec(v, i, j, k, l)
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            if ints.h[i - 1, j - 1] != 0.0:
                rec(ints.h[i - 1, j - 1], i, j, 0, 0)
    rec(ints.e_core, 0, 0, 0, 0)
