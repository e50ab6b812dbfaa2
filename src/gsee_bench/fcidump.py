"""FCIDUMP integral file parsing, pair-packed storage, and writing.

An FCIDUMP file carries the one- and two-electron integrals of an electronic
structure Hamiltonian over spatial molecular orbitals, plus a constant core
energy.  Two-electron integrals use chemist notation (ij|kl), with the 8-fold
symmetry generated by (ij|kl) = (ji|kl) = (ij|lk) = (kl|ij); a file lists
each orbit once, under its canonical index tuple.  They are stored as one
read-only pairs x pairs matrix V[pq, rs] = (pq|rs) over the orbital pairs
p <= q of `pair_order`, which holds that symmetry as V = V^T.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import lru_cache, wraps
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
# V holds (norb (norb + 1) / 2)**2 floats, 34.6 MB at this cap: twice the
# feature cap and four times the oracle cap, so no stage accepts a larger dump.
MAX_NORB = 64
# `norb_cache` keeps the per-norb tables of `pauli` and `fci` up to this norb.
CACHED_NORB = 12


def canonical_eri_index(i: int, j: int, k: int, l: int) -> tuple[int, int, int, int]:
    """Canonical representative (smallest tuple) of the 8-fold orbit of (ij|kl):
    sort each index pair, then put the smaller pair first."""
    first = (i, j) if i <= j else (j, i)
    second = (k, l) if k <= l else (l, k)
    return first + second if first <= second else second + first


@dataclass(frozen=True, eq=False)
class FciDump:
    """One FCIDUMP worth of integral data over spatial orbitals.

    h1 is the symmetric norb x norb one-electron table and v the symmetric
    pairs x pairs matrix V of (pq|rs), both 0-based, copied in and read-only.
    Spin enters only downstream (encodings and the exact solver).
    """

    norb: int
    nelec: int
    ms2: int = 0
    e_core: float = 0.0
    h1: np.ndarray = None  # type: ignore[assignment]
    v: np.ndarray = None  # type: ignore[assignment]
    orbsym: tuple[int, ...] = None  # type: ignore[assignment]
    isym: int = 1

    def __post_init__(self):
        n = self.norb
        if n < 1:
            raise InvalidFciDump(f"norb must be >= 1, got {n}")
        if not 0 <= self.nelec <= 2 * n:
            raise InvalidFciDump(f"nelec={self.nelec} outside [0, {2 * n}]")
        if abs(self.ms2) > self.nelec or (self.nelec + self.ms2) % 2 != 0:
            raise InvalidFciDump(f"ms2={self.ms2} incompatible with nelec={self.nelec}")
        if max(self.n_alpha, self.n_beta) > n:
            raise InvalidFciDump(
                f"nelec={self.nelec}, ms2={self.ms2}: more electrons of one spin "
                f"({max(self.n_alpha, self.n_beta)}) than orbitals ({n})"
            )
        pairs = n * (n + 1) // 2
        h1 = np.zeros((n, n)) if self.h1 is None else np.array(self.h1, dtype=float)
        v = np.zeros((pairs, pairs)) if self.v is None else np.array(self.v, dtype=float, order="C")
        if h1.shape != (n, n):
            raise InvalidFciDump(f"h1 shape {h1.shape} != ({n}, {n})")
        if v.shape != (pairs, pairs):
            raise InvalidFciDump(f"v shape {v.shape} != ({pairs}, {pairs})")
        if not (np.isfinite(h1).all() and np.isfinite(v).all() and np.isfinite(self.e_core)):
            raise InvalidFciDump("non-finite integral value")
        if not np.array_equal(h1, h1.T):
            raise InvalidFciDump("h1 is not symmetric")
        if not np.array_equal(v, v.T):
            raise InvalidFciDump("v is not symmetric")
        h1.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "v", v)
        if self.orbsym is None:
            object.__setattr__(self, "orbsym", (1,) * n)
        if len(self.orbsym) != n:
            raise InvalidFciDump(f"ORBSYM has {len(self.orbsym)} entries for NORB={n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FciDump):
            return NotImplemented
        return (
            self.norb == other.norb
            and self.nelec == other.nelec
            and self.ms2 == other.ms2
            and self.e_core == other.e_core
            and np.array_equal(self.h1, other.h1)
            and np.array_equal(self.v, other.v)
            and self.orbsym == other.orbsym
            and self.isym == other.isym
        )

    @property
    def n_alpha(self) -> int:
        return (self.nelec + self.ms2) // 2

    @property
    def n_beta(self) -> int:
        return (self.nelec - self.ms2) // 2

    def two_body_tensor(self) -> np.ndarray:
        """The dense (norb,)*4 chemist-notation tensor (ij|kl), gathered fresh from v."""
        index = pair_order(self.norb)[2]
        return self.v[index[:, :, None, None], index[None, None]]

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
    ) -> "FciDump":
        """Build from dense tensors: h1 is symmetrized, and every h2 entry must
        agree with its orbit's canonical entry to DUPLICATE_TOL and takes its value."""
        if h1 is not None:
            h1 = np.asarray(h1, dtype=float)
            # halved first: h1 + h1.T overflows for finite entries near the float max
            h1 = h1 / 2.0 + h1.T / 2.0
        v = None
        if h2 is not None:
            h2 = np.asarray(h2, dtype=float)
            if h2.shape != (norb,) * 4:
                raise InvalidFciDump(f"h2 shape {h2.shape} != {(norb,) * 4}")
            p, q, _ = pair_order(norb)
            # + 0.0 stores a canonical -0.0 as the 0.0 an unset entry is
            v = np.triu(h2[p[:, None], q[:, None], p, q]) + 0.0
            v += np.triu(v, 1).T
        dump = cls(norb, nelec, ms2, float(e_core), h1, v, orbsym, isym)
        if h2 is not None:
            off = np.abs(h2 - dump.two_body_tensor()) > DUPLICATE_TOL
            if off.any():
                key = tuple(int(x) for x in np.argwhere(off)[0])
                raise InvalidFciDump(f"h2 violates 8-fold symmetry at {key}")
        return dump


def norb_cache(build):
    """`build(norb, ...)`, with its results kept for norb <= CACHED_NORB."""
    cached = lru_cache(maxsize=32)(build)

    @wraps(build)
    def table(norb: int, *args):
        return (cached if norb <= CACHED_NORB else build)(norb, *args)

    table.cache_info, table.cache_clear = cached.cache_info, cached.cache_clear
    return table


@lru_cache(maxsize=32)
def pair_order(norb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, q, index), read-only: the orbital pairs p <= q in packed
    (np.triu_indices) order, and the norb x norb table of the packed index
    of either (p, q)."""
    p, q = np.triu_indices(norb)
    index = np.zeros((norb, norb), dtype=np.intp)
    index[p, q] = index[q, p] = np.arange(len(p))
    for array in (p, q, index):
        array.flags.writeable = False
    return p, q, index


def pair_integrals(dump: FciDump) -> np.ndarray:
    """k over the pairs of `pair_order`, a fresh array: the normal-ordered
    one-body term k_pq = h_pq - 1/2 sum_r (pr|rq).  Its two-body partner is
    the dump's own V[pq, rs] = (pq|rs), `dump.v`."""
    p, q, index = pair_order(dump.norb)
    k = dump.h1 - 0.5 * np.einsum("prq->pq", dump.v[index[:, :, None], index[None]])
    return k[p, q]


_NAMELIST = re.compile(r"\s*&FCI(.*?)(?:&END|/END|/)(.*)", re.IGNORECASE | re.DOTALL)
_HEADER_ITEM = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^=]*?)(?=[,\s]*[A-Za-z_][A-Za-z0-9_]*\s*=|$)",
    re.DOTALL,
)
# Values of the unrestricted flag UHF/IUHF: a Fortran logical (dots optional) or 0/1.
_FLAG_VALUES = {"T": 1, "TRUE": 1, "1": 1, "F": 0, "FALSE": 0, "0": 0}


def _parse_number(token: str) -> float:
    # Fortran exponent markers D/d are normalized to E before parsing.
    try:
        return float(token.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MalformedLine(f"unparsable number {token!r}") from None


def _parse_header(header: str) -> dict[str, list[int]]:
    fields: dict[str, list[int]] = {}
    for match in _HEADER_ITEM.finditer(header):
        key = match.group(1).upper()
        if key in fields:
            raise MalformedLine(f"header field {key} appears twice")
        raw = match.group(2).replace(",", " ").split()
        if key in ("UHF", "IUHF"):
            flags = [_FLAG_VALUES.get(v.upper().strip(".")) for v in raw]
            if not flags or None in flags:
                raise MalformedLine(f"header field {key} is not a flag")
            if any(flags):
                raise InvalidFciDump(f"{key} is true: an unrestricted FCIDUMP is not supported")
            fields[key] = flags
            continue
        try:
            fields[key] = [int(v) for v in raw]
        except ValueError:
            raise MalformedLine(f"non-integer value for header field {key}") from None
    return fields


def _header_scalar(fields: dict[str, list[int]], key: str, default: int | None = None) -> int:
    """The one value of a scalar header field, or `default` when it is absent;
    a field without a default is required, and empty it is missing."""
    values = fields.get(key, [] if default is None else [default])
    if len(values) > 1:
        raise MalformedLine(f"header field {key} has {len(values)} values, not one")
    if not values:
        if default is None:
            raise MissingHeaderField(f"header field {key} is missing")
        raise MalformedLine(f"header field {key} has no value")
    return values[0]


def _split_header(text: str) -> tuple[str, str]:
    """Split raw text into (namelist fields, integral body); the group name
    and terminator match in any case, and the earliest terminator wins."""
    match = _NAMELIST.match(text)
    if match is None:
        raise MalformedLine("no &FCI namelist header ended by &END or /")
    return match.group(1), match.group(2)


def parse_fcidump(source: str | TextIO) -> FciDump:
    """Parse FCIDUMP text into an FciDump.

    Accepts &END, /END and / namelist terminators and D-style exponents.
    External indices are 1-based; storage is 0-based.
    """
    text = source if isinstance(source, str) else source.read()
    header, body = _split_header(text)
    fields = _parse_header(header)
    norb = _header_scalar(fields, "NORB")
    nelec = _header_scalar(fields, "NELEC")
    ms2 = _header_scalar(fields, "MS2", 0)
    orbsym = tuple(fields["ORBSYM"]) if fields.get("ORBSYM") else None
    isym = _header_scalar(fields, "ISYM", 1)
    if not 1 <= norb <= MAX_NORB:
        raise InvalidFciDump(f"NORB must be in [1, {MAX_NORB}], got {norb}")

    # A line is an h2 entry (no zero index), an h1 entry (i j 0 0) or the core
    # energy (0 0 0 0).  All are keyed by canonical_eri_index of the 1-based
    # indices, which keys h1 as (0, 0, min, max) and so keeps the three apart;
    # the first value of a key is kept, and a later one must agree.
    entries: dict[tuple[int, int, int, int], float] = {}
    for raw_line in body.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise MalformedLine(f"expected 5 tokens, got {len(tokens)}: {line!r}")
        value = _parse_number(tokens[0])
        try:
            idx = tuple(map(int, tokens[1:]))
        except ValueError:
            raise MalformedLine(f"non-integer index in line {line!r}") from None
        if min(idx) < 0:
            raise MalformedLine(f"negative index in line {line!r}")
        if max(idx) > norb:
            raise IndexOutOfRange(f"index exceeds NORB={norb} in line {line!r}")
        i, j, k, l = idx
        if 0 in idx and (k or l or (i == 0) != (j == 0)):
            raise MalformedLine(f"bad index pattern in line {line!r}")
        key = canonical_eri_index(i, j, k, l)
        if abs(entries.setdefault(key, value) - value) > DUPLICATE_TOL:
            raise ConflictingDuplicate(f"conflicting entries for indices {key}")

    e_core = entries.pop((0, 0, 0, 0), 0.0)
    h1 = np.zeros((norb, norb))
    h2 = {}
    for key, value in entries.items():
        if key[0]:
            h2[key] = value
        else:
            h1[key[2] - 1, key[3] - 1] = h1[key[3] - 1, key[2] - 1] = value
    # each h2 key goes to V[a, b] and V[b, a] of its two pairs;
    # + 0.0 stores a listed -0.0 as the 0.0 of an unset entry
    count = len(h2)
    keys = np.fromiter(chain.from_iterable(h2), np.intp, 4 * count).reshape(count, 4) - 1
    index = pair_order(norb)[2]
    a, b = index[keys[:, 0], keys[:, 1]], index[keys[:, 2], keys[:, 3]]
    v = np.zeros((norb * (norb + 1) // 2,) * 2)
    v[a, b] = v[b, a] = np.fromiter(h2.values(), float, count) + 0.0
    return FciDump(norb, nelec, ms2, e_core, h1, v, orbsym, isym)


def write_fcidump(dump: FciDump) -> str:
    """Render an FciDump as FCIDUMP text.

    Emits one line per nonzero canonical two-electron integral (v's upper
    triangle), in index order, then the nonzero lower-triangle h1 entries,
    and always ends with the core-energy line; parse(write(d)) == d.
    """
    out = io.StringIO()
    out.write(f"&FCI NORB={dump.norb},NELEC={dump.nelec},MS2={dump.ms2},\n")
    out.write(f" ORBSYM={','.join(str(s) for s in dump.orbsym)},\n")
    out.write(f" ISYM={dump.isym},\n")
    out.write("&END\n")
    p, q, _ = pair_order(dump.norb)
    a, b = np.nonzero(np.triu(dump.v))
    keys = np.column_stack([p[a], q[a], p[b], q[b]]) + 1
    for (i, j, k, l), value in zip(keys.tolist(), dump.v[a, b].tolist()):
        out.write(f" {value!r} {i} {j} {k} {l}\n")
    rows, cols = np.nonzero(np.tril(dump.h1))
    for i, j, value in zip(rows.tolist(), cols.tolist(), dump.h1[rows, cols].tolist()):
        out.write(f" {value!r} {i + 1} {j + 1} 0 0\n")
    out.write(f" {float(dump.e_core)!r} 0 0 0 0\n")
    return out.getvalue()
