"""FCIDUMP interchange: read and write Molpro-style integral files.

Only `--fcidump` runs load this module; the built-in models never do.
"""

from __future__ import annotations

import re
from typing import TextIO

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateCanonicalEntryError,
    IndexOutOfRangeError,
    MalformedHeaderError,
)
from .hamiltonian import SYMMETRY_8FOLD, IntegralSet, check_orbital_count

_HEADER_KV = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([^=]*?)(?=(?:,?\s*[A-Za-z0-9_]+\s*=)|$)")


def _eightfold_indices(p, q, r, s):
    return {
        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
    }


def parse_fcidump(stream: TextIO | str) -> IntegralSet:
    """Read a Molpro-style FCIDUMP file into an IntegralSet.

    All eight permutational images of each (ij|kl) record are folded in;
    conflicting duplicates beyond 1e-12 are rejected. Fortran D-exponents
    are accepted. MS2, if given, must be NELEC mod 2. ORBSYM/ISYM are validated, not used.
    """
    text = stream if isinstance(stream, str) else stream.read()
    m = re.search(r"&(?:FCI|fci)(.*?)(?:&END|/)", text, re.S)
    if m is None:
        raise MalformedHeaderError("no &FCI ... &END/ header found")
    header, body = m.group(1), text[m.end():]

    fields = {}
    for key, val in _HEADER_KV.findall(header.replace("\n", " ")):
        fields[key.upper()] = val.strip().rstrip(",").strip()
    try:
        norb = int(fields["NORB"])
        nelec = int(fields["NELEC"])
        ms2 = int(fields.get("MS2", nelec % 2))
    except KeyError as exc:
        raise MalformedHeaderError(f"missing header field {exc}") from exc
    except ValueError as exc:
        raise MalformedHeaderError(f"non-integer header field: {exc}") from exc
    if norb < 1 or nelec < 0:
        raise MalformedHeaderError(f"bad NORB/NELEC: {norb}/{nelec}")
    if ms2 != nelec % 2:   # the reference occupies orbitals 1..NELEC: M_s = 0, or +1/2 for odd NELEC
        raise MalformedHeaderError(f"MS2={ms2} is not the reference's MS2={nelec % 2} for NELEC={nelec}")
    check_orbital_count(norb)
    if "ORBSYM" in fields and fields["ORBSYM"]:
        syms = [s for s in fields["ORBSYM"].replace(",", " ").split() if s]
        if len(syms) not in (0, norb):
            raise MalformedHeaderError(
                f"ORBSYM lists {len(syms)} entries for NORB={norb}"
            )

    h = np.zeros((norb, norb))
    g = np.zeros((norb, norb, norb, norb))
    h_seen = np.zeros((norb, norb), dtype=bool)
    g_seen = np.zeros((norb, norb, norb, norb), dtype=bool)
    e_core = 0.0
    core_seen = False

    for lineno, raw in enumerate(body.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise MalformedHeaderError(f"record line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(x) for x in parts[1:])
        except ValueError as exc:
            raise MalformedHeaderError(f"record line {lineno}: {exc}") from exc
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise IndexOutOfRangeError(f"record line {lineno}: index {idx} > NORB={norb}")
        if i == j == k == l == 0:
            if core_seen and abs(e_core - value) > 1e-12:
                raise DuplicateCanonicalEntryError("conflicting core-energy records")
            e_core, core_seen = value, True
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise IndexOutOfRangeError(
                    f"record line {lineno}: unsupported record shape ({i},{j},{k},{l})"
                )
            a, b = i - 1, j - 1
            if (h_seen[a, b] or h_seen[b, a]) and abs(h[a, b] - value) > 1e-12:
                raise DuplicateCanonicalEntryError(f"conflicting h({i},{j}) records")
            h[a, b] = h[b, a] = value
            h_seen[a, b] = h_seen[b, a] = True
        elif 0 in (i, j, k, l):
            raise IndexOutOfRangeError(
                f"record line {lineno}: unsupported record shape ({i},{j},{k},{l})"
            )
        else:
            for a, b, c, d in _eightfold_indices(i - 1, j - 1, k - 1, l - 1):
                if g_seen[a, b, c, d] and abs(g[a, b, c, d] - value) > 1e-12:
                    raise DuplicateCanonicalEntryError(
                        f"conflicting (ij|kl) records at ({i},{j},{k},{l})"
                    )
                g[a, b, c, d] = value
                g_seen[a, b, c, d] = True

    return IntegralSet(norb, h, g, e_core, n_electrons=nelec)


def write_fcidump(ints: IntegralSet, stream: TextIO) -> None:
    """Write an IntegralSet in canonical FCIDUMP order.

    Canonical order: two-electron records first with ascending compound
    index over i>=j, k>=l, (ij)>=(kl); then one-electron records with i>=j;
    then the core energy. MS2 is the reference's, NELEC mod 2. Needs 8-fold symmetry.
    """
    if ints.symmetry != SYMMETRY_8FOLD:
        raise DimensionMismatchError(
            "FCIDUMP stores a single value per 8-fold orbit; "
            f"integrals declare {ints.symmetry} symmetry"
        )
    n = ints.n_spatial
    nelec = ints.n_electrons if ints.n_electrons is not None else 0
    orbsym = ",".join(["1"] * n)
    stream.write(f"&FCI NORB={n},NELEC={nelec},MS2={nelec % 2},\n")
    stream.write(f"  ORBSYM={orbsym},\n  ISYM=1,\n&END\n")

    def rec(value, i, j, k, l):
        stream.write(f" {value: .16E} {i:4d} {j:4d} {k:4d} {l:4d}\n")

    for i in range(1, n + 1):
        for j in range(1, i + 1):
            ij = i * (i + 1) // 2 + j
            for k in range(1, i + 1):
                for l in range(1, k + 1):
                    if k * (k + 1) // 2 + l > ij:
                        continue
                    v = ints.g[i - 1, j - 1, k - 1, l - 1]
                    if v != 0.0:
                        rec(v, i, j, k, l)
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            if ints.h[i - 1, j - 1] != 0.0:
                rec(ints.h[i - 1, j - 1], i, j, 0, 0)
    rec(ints.e_core, 0, 0, 0, 0)
