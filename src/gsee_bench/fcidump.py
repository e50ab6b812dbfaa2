"""FCIDUMP integral file parsing, canonical storage, and writing.

An FCIDUMP file carries the one- and two-electron integrals of an electronic
structure Hamiltonian over spatial molecular orbitals, plus a constant core
energy.  Two-electron integrals use chemist notation (ij|kl) and are stored
here on canonical indices only, exploiting the 8-fold permutational symmetry
(ij|kl) = (ji|kl) = (ij|lk) = (ji|lk) = (kl|ij) = (lk|ij) = (kl|ji) = (lk|ji).
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import TextIO

import numpy as np

from .errors import (
    ConflictingDuplicate,
    IndexOutOfRange,
    InvalidFciDump,
    MalformedLine,
    MissingHeaderField,
)

# Two symmetry-equivalent entries in one file must agree to this tolerance.
DUPLICATE_TOL = 1e-10


def eri_orbit(i: int, j: int, k: int, l: int) -> tuple[tuple[int, int, int, int], ...]:
    """All 8 index permutations equivalent to (ij|kl) under real-orbital symmetry."""
    return (
        (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
        (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
    )


# Positions in (i, j, k, l) of the 8 orbit members, one row each.
_ORBIT = np.array(eri_orbit(0, 1, 2, 3))


def canonical_eri_index(i: int, j: int, k: int, l: int) -> tuple[int, int, int, int]:
    """Canonical representative (smallest tuple) of the 8-fold orbit of (ij|kl).

    Closed form of min(eri_orbit(i, j, k, l)): sort each index pair, then put
    the smaller pair first.
    """
    first = (i, j) if i <= j else (j, i)
    second = (k, l) if k <= l else (l, k)
    return first + second if first <= second else second + first


@dataclass(frozen=True, eq=False)
class FciDump:
    """One FCIDUMP worth of integral data over spatial orbitals.

    h1 is the full symmetric norb x norb one-electron table; h2 maps canonical
    (i, j, k, l) indices (0-based) to chemist-notation values, unset entries
    being zero.  Spin enters only downstream (encodings and the exact solver).
    """

    norb: int
    nelec: int
    ms2: int = 0
    e_core: float = 0.0
    h1: np.ndarray = None  # type: ignore[assignment]
    h2: dict[tuple[int, int, int, int], float] = None  # type: ignore[assignment]
    orbsym: tuple[int, ...] = None  # type: ignore[assignment]
    isym: int = 1

    def __post_init__(self):
        if self.h1 is None:
            object.__setattr__(self, "h1", np.zeros((self.norb, self.norb)))
        if self.h2 is None:
            object.__setattr__(self, "h2", {})
        if self.orbsym is None:
            object.__setattr__(self, "orbsym", (1,) * self.norb)
        if self.norb < 1:
            raise InvalidFciDump(f"norb must be >= 1, got {self.norb}")
        if not 0 <= self.nelec <= 2 * self.norb:
            raise InvalidFciDump(f"nelec={self.nelec} outside [0, {2 * self.norb}]")
        if abs(self.ms2) > self.nelec or (self.nelec + self.ms2) % 2 != 0:
            raise InvalidFciDump(f"ms2={self.ms2} incompatible with nelec={self.nelec}")
        h1 = np.asarray(self.h1, dtype=float)
        if h1.shape != (self.norb, self.norb):
            raise InvalidFciDump(f"h1 shape {h1.shape} != ({self.norb}, {self.norb})")
        if not np.array_equal(h1, h1.T):
            raise InvalidFciDump("h1 is not symmetric")
        if not np.all(np.isfinite(h1)) or not np.isfinite(self.e_core):
            raise InvalidFciDump("non-finite integral value")
        object.__setattr__(self, "h1", h1)
        for key, val in self.h2.items():
            if key != canonical_eri_index(*key):
                raise InvalidFciDump(f"h2 key {key} is not canonical")
            # a canonical key's smallest index comes first, its largest is j or l
            if key[0] < 0 or max(key[1], key[3]) >= self.norb:
                raise InvalidFciDump(f"h2 key {key} outside basis of {self.norb} orbitals")
            if not math.isfinite(val):
                raise InvalidFciDump(f"non-finite h2 value at {key}")
        if len(self.orbsym) != self.norb:
            raise InvalidFciDump("orbsym length != norb")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FciDump):
            return NotImplemented
        return (
            self.norb == other.norb
            and self.nelec == other.nelec
            and self.ms2 == other.ms2
            and self.e_core == other.e_core
            and np.array_equal(self.h1, other.h1)
            and self.h2 == other.h2
            and self.orbsym == other.orbsym
            and self.isym == other.isym
        )

    @property
    def n_alpha(self) -> int:
        return (self.nelec + self.ms2) // 2

    @property
    def n_beta(self) -> int:
        return (self.nelec - self.ms2) // 2

    def h2_at(self, i: int, j: int, k: int, l: int) -> float:
        """Chemist-notation (ij|kl), 0-based indices, any of the 8 orderings."""
        for x in (i, j, k, l):
            if not 0 <= x < self.norb:
                raise IndexOutOfRange(f"orbital index {x} outside [0, {self.norb})")
        return self.h2.get(canonical_eri_index(i, j, k, l), 0.0)

    def two_body_tensor(self) -> np.ndarray:
        """Dense (norb,)*4 chemist-notation tensor expanded from canonical storage.

        Computed once per dump by one scatter over the 8 index orbits and
        returned read-only.
        """
        cached = self.__dict__.get("_two_body_tensor")
        if cached is not None:
            return cached
        n, count = self.norb, len(self.h2)
        keys = np.fromiter(chain.from_iterable(self.h2), np.intp, 4 * count).reshape(count, 4)
        # keys @ radix.T: the flat index of every orbit member of every key
        radix = n ** (3 - np.argsort(_ORBIT, axis=1))
        t = np.zeros(n**4)
        t[keys @ radix.T] = np.fromiter(self.h2.values(), float, count)[:, None]
        t = t.reshape((n,) * 4)
        t.flags.writeable = False
        object.__setattr__(self, "_two_body_tensor", t)
        return t

    @classmethod
    def from_tensors(
        cls,
        norb: int,
        nelec: int,
        ms2: int = 0,
        e_core: float = 0.0,
        h1: np.ndarray | None = None,
        h2: np.ndarray | None = None,
        orbsym: tuple[int, ...] | None = None,
        isym: int = 1,
        sym_tol: float = DUPLICATE_TOL,
    ) -> "FciDump":
        """Build from dense tensors, verifying 8-fold symmetry of h2."""
        if h1 is None:
            h1 = np.zeros((norb, norb))
        h1 = np.asarray(h1, dtype=float)
        h1 = (h1 + h1.T) / 2.0
        table: dict[tuple[int, int, int, int], float] = {}
        if h2 is not None:
            h2 = np.asarray(h2, dtype=float)
            if h2.shape != (norb,) * 4:
                raise InvalidFciDump(f"h2 shape {h2.shape} != {(norb,) * 4}")
            for key in np.ndindex(h2.shape):
                canon = canonical_eri_index(*key)
                if canon != key:
                    continue
                val = h2[key]
                for perm in eri_orbit(*key):
                    if abs(h2[perm] - val) > sym_tol:
                        raise InvalidFciDump(
                            f"h2 violates 8-fold symmetry at {key} vs {perm}"
                        )
                if val != 0.0:
                    table[canon] = float(val)
        return cls(norb, nelec, ms2, float(e_core), h1, table, orbsym, isym)


_HEADER_ITEM = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^=]*?)(?=[,\s]*[A-Za-z_][A-Za-z0-9_]*\s*=|$)",
    re.DOTALL,
)


def _parse_number(token: str) -> float:
    # Fortran exponent markers D/d are normalized to E before parsing.
    try:
        return float(token.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MalformedLine(f"unparsable number {token!r}") from None


def _parse_header(header: str) -> dict[str, list[int]]:
    body = header.strip()
    if not body.upper().startswith("&FCI"):
        raise MalformedLine("file does not begin with an &FCI namelist header")
    body = body[4:]
    fields: dict[str, list[int]] = {}
    for match in _HEADER_ITEM.finditer(body):
        key = match.group(1).upper()
        raw = match.group(2).replace(",", " ").split()
        try:
            fields[key] = [int(v) for v in raw]
        except ValueError:
            raise MalformedLine(f"non-integer value for header field {key}") from None
    return fields


def _split_header(text: str) -> tuple[str, str]:
    """Split raw text into (namelist header, integral body)."""
    for terminator in ("&END", "/END", "/"):
        pos = text.find(terminator)
        if pos >= 0:
            return text[:pos], text[pos + len(terminator):]
    raise MalformedLine("namelist terminator (&END or /) not found")


def parse_fcidump(source: str | TextIO) -> FciDump:
    """Parse FCIDUMP text into canonical integral storage.

    Accepts both &END and / namelist terminators and D-style exponents.
    External indices are 1-based; storage is 0-based.
    """
    text = source if isinstance(source, str) else source.read()
    header, body = _split_header(text)
    fields = _parse_header(header)
    for required in ("NORB", "NELEC"):
        if required not in fields or not fields[required]:
            raise MissingHeaderField(f"header field {required} is missing")
    norb = fields["NORB"][0]
    nelec = fields["NELEC"][0]
    ms2 = fields.get("MS2", [0])[0]
    orbsym = tuple(fields["ORBSYM"]) if fields.get("ORBSYM") else None
    isym = fields.get("ISYM", [1])[0]
    if norb < 1:
        raise InvalidFciDump(f"NORB must be >= 1, got {norb}")
    if orbsym is not None and len(orbsym) != norb:
        raise InvalidFciDump(f"ORBSYM has {len(orbsym)} entries for NORB={norb}")

    h1 = np.zeros((norb, norb))
    h1_seen: set[tuple[int, int]] = set()
    h2: dict[tuple[int, int, int, int], float] = {}
    h2_seen: set[tuple[int, int, int, int]] = set()
    e_core = 0.0
    core_seen = False

    for raw_line in body.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise MalformedLine(f"expected 5 tokens, got {len(tokens)}: {line!r}")
        value = _parse_number(tokens[0])
        try:
            idx = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise MalformedLine(f"non-integer index in line {line!r}") from None
        if any(x < 0 for x in idx):
            raise MalformedLine(f"negative index in line {line!r}")
        if any(x > norb for x in idx):
            raise IndexOutOfRange(f"index exceeds NORB={norb} in line {line!r}")
        i, j, k, l = idx
        if idx == (0, 0, 0, 0):
            if core_seen and abs(value - e_core) > DUPLICATE_TOL:
                raise ConflictingDuplicate("conflicting core-energy entries")
            if not core_seen:
                e_core = value
                core_seen = True
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise MalformedLine(f"bad index pattern in line {line!r}")
            a, b = i - 1, j - 1
            key = (max(a, b), min(a, b))
            if key in h1_seen:
                if abs(h1[a, b] - value) > DUPLICATE_TOL:
                    raise ConflictingDuplicate(f"conflicting h1 entries at {key}")
            else:
                h1[a, b] = value
                h1[b, a] = value
                h1_seen.add(key)
        elif 0 in idx:
            raise MalformedLine(f"bad index pattern in line {line!r}")
        else:
            key = canonical_eri_index(i - 1, j - 1, k - 1, l - 1)
            if key in h2_seen:
                if abs(h2.get(key, 0.0) - value) > DUPLICATE_TOL:
                    raise ConflictingDuplicate(f"conflicting h2 entries at {key}")
            else:
                h2_seen.add(key)
                if value != 0.0:
                    h2[key] = value

    return FciDump(norb, nelec, ms2, e_core, h1, h2, orbsym, isym)


def write_fcidump(dump: FciDump) -> str:
    """Render canonical storage back to FCIDUMP text.

    Emits one line per unique nonzero integral (canonical indices only) and
    always ends with the core-energy line; parse(write(d)) == d.
    """
    out = io.StringIO()
    out.write(f"&FCI NORB={dump.norb},NELEC={dump.nelec},MS2={dump.ms2},\n")
    out.write(f" ORBSYM={','.join(str(s) for s in dump.orbsym)},\n")
    out.write(f" ISYM={dump.isym},\n")
    out.write("&END\n")
    for (i, j, k, l) in sorted(dump.h2):
        out.write(f" {float(dump.h2[(i, j, k, l)])!r} {i + 1} {j + 1} {k + 1} {l + 1}\n")
    for i in range(dump.norb):
        for j in range(i + 1):
            if dump.h1[i, j] != 0.0:
                out.write(f" {float(dump.h1[i, j])!r} {i + 1} {j + 1} 0 0\n")
    out.write(f" {float(dump.e_core)!r} 0 0 0 0\n")
    return out.getvalue()
