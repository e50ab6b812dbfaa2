import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gsee_bench.errors import (
    ConflictingDuplicate,
    IndexOutOfRange,
    InvalidFciDump,
    MalformedLine,
    MissingHeaderField,
)
from gsee_bench.fcidump import (
    DUPLICATE_TOL,
    MAX_NORB,
    FciDump,
    canonical_eri_index,
    pair_integrals,
    pair_order,
    parse_fcidump,
    write_fcidump,
)

from conftest import eri_orbit, random_eri, random_fcidump

MINIMAL = "&FCI NORB=2,NELEC=2,MS2=0,&END\n1.0 1 1 0 0\n"
DEMO_CATALOG = Path(__file__).resolve().parent.parent / "demo" / "catalog"


def test_parse_minimal_header_and_h1():
    d = parse_fcidump(MINIMAL)
    assert d.norb == 2
    assert d.nelec == 2
    assert d.ms2 == 0
    assert d.h1[0, 0] == 1.0
    assert np.count_nonzero(d.h1) == 1
    assert d.v.shape == (3, 3)
    assert d.two_body_tensor().shape == (2, 2, 2, 2)
    assert not d.two_body_tensor().any()
    assert d.e_core == 0.0


def test_core_energy_line():
    d = parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1,&END\n-0.5 0 0 0 0\n")
    assert d.e_core == -0.5


def test_slash_terminator_and_d_exponent():
    text = "&FCI NORB=2,NELEC=2\n /\n 1.0D-01 1 1 0 0\n"
    d = parse_fcidump(text)
    assert d.h1[0, 0] == pytest.approx(0.1)


NAMELIST = "{group} NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n{end}\n 0.5 1 1 1 1\n -1.0 1 1 0 0\n 0.7 0 0 0 0\n"


@pytest.mark.parametrize("end", ["&END", "&end", "&End", "/", "/END", "/end"])
@pytest.mark.parametrize("group", ["&FCI", "&fci", "&Fci"])
def test_namelist_group_and_terminator_in_any_case(group, end):
    plain = parse_fcidump(NAMELIST.format(group="&FCI", end="&END"))
    assert plain.norb == 2 and plain.h1[0, 0] == -1.0 and plain.e_core == 0.7
    assert parse_fcidump(NAMELIST.format(group=group, end=end)) == plain


@pytest.mark.parametrize("group, end", [("", "&END"), ("&FCI", "")])
def test_namelist_without_group_name_or_terminator_is_malformed(group, end):
    with pytest.raises(MalformedLine):
        parse_fcidump(NAMELIST.format(group=group, end=end))


def test_exponent_forms():
    for token in ("1.0E-01", "1.0e-01", "1.0D-01", "1.0d-01"):
        d = parse_fcidump(f"&FCI NORB=1,NELEC=1,MS2=1,&END\n{token} 1 1 0 0\n")
        assert d.h1[0, 0] == pytest.approx(0.1)


def test_parse_accepts_file_object(tmp_path):
    path = tmp_path / "m.fcidump"
    path.write_text(MINIMAL, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        assert parse_fcidump(fh) == parse_fcidump(MINIMAL)


def test_h2_symmetry_lookup_example():
    # the one line (11|22) sets (00|11) and (11|00) of the 0-based tensor
    d = parse_fcidump("&FCI NORB=2,NELEC=2,&END\n0.3 1 1 2 2\n")
    tensor = d.two_body_tensor()
    assert tensor[0, 0, 1, 1] == 0.3
    assert tensor[1, 1, 0, 0] == 0.3
    assert np.count_nonzero(tensor) == 2
    # pairs (0, 0) and (1, 1) are rows 0 and 2 of V
    assert d.v[0, 2] == d.v[2, 0] == 0.3 and np.count_nonzero(d.v) == 2


def test_multiline_header_with_orbsym():
    text = "&FCI NORB=3,NELEC=2,MS2=0,\n ORBSYM=1,1,2,\n ISYM=1,\n&END\n 0.0 0 0 0 0\n"
    d = parse_fcidump(text)
    assert d.orbsym == (1, 1, 2)
    assert d.isym == 1


def test_h1_stored_symmetrically():
    d = parse_fcidump("&FCI NORB=2,NELEC=2,&END\n0.25 2 1 0 0\n")
    assert d.h1[1, 0] == 0.25
    assert d.h1[0, 1] == 0.25


def test_two_orbital_h2_expands_by_symmetry():
    # store only the six unique (ij|kl) values of a 2-orbital system
    values = {
        (0, 0, 0, 0): 0.9,
        (1, 0, 0, 0): 0.2,
        (1, 0, 1, 0): 0.3,
        (1, 1, 0, 0): 0.5,
        (1, 1, 1, 0): 0.1,
        (1, 1, 1, 1): 0.7,
    }
    lines = [f"{v} {i+1} {j+1} {k+1} {l+1}" for (i, j, k, l), v in values.items()]
    d = parse_fcidump("&FCI NORB=2,NELEC=2,&END\n" + "\n".join(lines) + "\n")
    tensor = d.two_body_tensor()
    # brute-force check: every permutation of every stored entry agrees
    for key, v in values.items():
        for perm in eri_orbit(*key):
            assert tensor[perm] == v
    assert np.count_nonzero(tensor) == 16


def test_duplicate_symmetry_entries_must_agree():
    ok = "&FCI NORB=2,NELEC=2,&END\n0.5 1 2 1 1\n0.5 1 1 2 1\n"
    parse_fcidump(ok)
    bad = "&FCI NORB=2,NELEC=2,&END\n0.5 1 2 1 1\n0.6 1 1 2 1\n"
    with pytest.raises(ConflictingDuplicate):
        parse_fcidump(bad)


@pytest.mark.parametrize(
    "first, repeat",
    [("-0.25 2 1 0 0", "{} 1 2 0 0"), ("-0.25 1 2 0 0", "{} 1 2 0 0"),
     ("1.5 0 0 0 0", "{} 0 0 0 0")],
    ids=["h1-swapped", "h1-same", "core"],
)
def test_h1_and_core_repeats_must_agree(first, repeat):
    head = "&FCI NORB=2,NELEC=2,&END\n0.5 1 1 1 1\n"
    value = float(first.split()[0])
    d = parse_fcidump(head + f"{first}\n{repeat.format(value + 1e-11)}\n")
    if first.endswith("0 0 0 0"):
        assert d.e_core == value
    else:
        assert d.h1[0, 1] == d.h1[1, 0] == value
    with pytest.raises(ConflictingDuplicate):
        parse_fcidump(head + f"{first}\n{repeat.format(value + 1e-3)}\n")


def test_missing_header_fields():
    with pytest.raises(MissingHeaderField):
        parse_fcidump("&FCI NORB=2,&END\n")
    with pytest.raises(MissingHeaderField):
        parse_fcidump("&FCI NELEC=2,&END\n")


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse_fcidump("&FCI NORB=2,NELEC=2,&END\n1.0 3 1 0 0\n")


def test_malformed_lines():
    with pytest.raises(MalformedLine):
        parse_fcidump("&FCI NORB=2,NELEC=2,&END\n1.0 1 1 0\n")
    with pytest.raises(MalformedLine):
        parse_fcidump("&FCI NORB=2,NELEC=2,&END\nabc 1 1 0 0\n")
    with pytest.raises(MalformedLine):
        parse_fcidump("&FCI NORB=2,NELEC=2,&END\n1.0 1 0 1 1\n")
    with pytest.raises(MalformedLine):
        parse_fcidump("no header here")


@pytest.mark.parametrize("field", ["MS2", "ISYM"])
def test_empty_header_value_is_malformed(field):
    with pytest.raises(MalformedLine, match=f"{field} has no value"):
        parse_fcidump(f"&FCI NORB=1, NELEC=2, {field}=, &END\n")


@pytest.mark.parametrize(
    "header, message",
    [
        ("NORB=2,NELEC=2,NORB=3", "header field NORB appears twice"),
        ("NORB=2,NELEC=2,norb=2", "header field NORB appears twice"),
        ("NORB=2,NELEC=2,ORBSYM=1,1,ORBSYM=1,1", "header field ORBSYM appears twice"),
        ("NORB=2 5,NELEC=2", "header field NORB has 2 values, not one"),
        ("NORB=2,NELEC=2,2", "header field NELEC has 2 values, not one"),
        ("NORB=2,NELEC=2,MS2=0 2", "header field MS2 has 2 values, not one"),
        ("NORB=2,NELEC=2,ISYM=1,1,1", "header field ISYM has 3 values, not one"),
    ],
)
def test_header_field_twice_or_scalar_with_many_values_is_malformed(header, message):
    with pytest.raises(MalformedLine, match=f"^{message}$"):
        parse_fcidump(f"&FCI {header},&END\n")


def test_orbsym_length_is_checked_once_with_one_message():
    message = "^ORBSYM has 1 entries for NORB=2$"
    with pytest.raises(InvalidFciDump, match=message):
        FciDump(norb=2, nelec=2, orbsym=(1,))
    with pytest.raises(InvalidFciDump, match=message):
        parse_fcidump("&FCI NORB=2,NELEC=2,ORBSYM=1,&END\n")


def test_orbsym_stays_a_list():
    assert parse_fcidump("&FCI NORB=3,NELEC=2,ORBSYM=1,2,1,&END\n").orbsym == (1, 2, 1)


# A restricted two-orbital dump in the layout Psi4 writes, with {flag} where
# Psi4 puts its unrestricted flag.
FLAGGED = """&FCI
NORB=2,
NELEC=2,
MS2=0,
{flag}
ORBSYM=1,1,
ISYM=1,
&END
 0.5 1 1 1 1
 0.25 2 1 2 1
-1.0 1 1 0 0
-0.5 2 2 0 0
 0.7 0 0 0 0
"""


@pytest.mark.parametrize(
    "flag",
    ["UHF=.FALSE.,", "UHF=.false.,", "UHF=F,", "UHF=f,", "UHF=.F.,", "UHF=FALSE,",
     "UHF=0,", "IUHF=0,", "iuhf=.False.,"],
)
def test_false_unrestricted_flag_parses_as_no_flag(flag):
    plain = parse_fcidump(FLAGGED.format(flag=""))
    assert plain.norb == 2 and plain.e_core == 0.7 and plain.orbsym == (1, 1)
    assert parse_fcidump(FLAGGED.format(flag=flag)) == plain


@pytest.mark.parametrize(
    "flag",
    ["UHF=.TRUE.,", "UHF=.true.,", "UHF=T,", "UHF=t,", "UHF=.T.,", "UHF=TRUE,",
     "UHF=1,", "IUHF=1,", "iuhf=.True.,"],
)
def test_true_unrestricted_flag_is_refused(flag):
    with pytest.raises(InvalidFciDump, match="unrestricted FCIDUMP is not supported"):
        parse_fcidump(FLAGGED.format(flag=flag))


@pytest.mark.parametrize("flag", ["UHF=.MAYBE.,", "UHF=2,", "IUHF=,"])
def test_unrestricted_flag_of_no_logical_value_is_malformed(flag):
    with pytest.raises(MalformedLine, match="is not a flag"):
        parse_fcidump(FLAGGED.format(flag=flag))


def test_header_fields_other_than_the_flag_stay_integer():
    with pytest.raises(MalformedLine, match="non-integer value for header field ISYM"):
        parse_fcidump(FLAGGED.format(flag="").replace("ISYM=1", "ISYM=.TRUE."))


def test_invalid_spin():
    with pytest.raises(InvalidFciDump):
        parse_fcidump("&FCI NORB=2,NELEC=2,MS2=1,&END\n0.0 0 0 0 0\n")


@pytest.mark.parametrize("norb, nelec, ms2", [(1, 2, 2), (1, 2, -2), (2, 3, 3), (3, 4, -4)])
def test_more_electrons_of_one_spin_than_orbitals_rejected(norb, nelec, ms2):
    with pytest.raises(InvalidFciDump, match="more electrons of one spin"):
        parse_fcidump(f"&FCI NORB={norb},NELEC={nelec},MS2={ms2},&END\n0.0 0 0 0 0\n")
    with pytest.raises(InvalidFciDump, match="more electrons of one spin"):
        FciDump.from_tensors(norb, nelec, ms2, 0.0, np.zeros((norb,) * 2), np.zeros((norb,) * 4))


def test_tensor_is_constant_on_orbits(rng):
    # exhaustive over every index tuple for norb <= 4
    for norb in (2, 3, 4):
        tensor = random_fcidump(rng, norb).two_body_tensor()
        for idx in np.ndindex((norb,) * 4):
            for perm in eri_orbit(*idx):
                assert tensor[perm] == tensor[idx]


def test_tensors_are_read_only_copies(rng):
    d = FciDump(norb=2, nelec=2)
    assert d.h1.shape == (2, 2) and d.v.shape == (3, 3)
    assert not d.h1.any() and not d.v.any()
    h1 = np.eye(3)
    v = FciDump.from_tensors(3, 2, 0, h2=random_eri(rng, 3)).v.copy()
    d = FciDump(3, 2, 0, 0.0, h1, v)
    h1[0, 0] = 5.0
    v[0, 0] = 5.0
    assert d.h1[0, 0] == 1.0 and d.v[0, 0] != 5.0
    # the dense tensor is not stored: each call gathers a fresh one from v
    assert d.two_body_tensor() is not d.two_body_tensor()
    for array in (d.h1, d.v):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_canonical_index_is_orbit_invariant(rng):
    for _ in range(100):
        idx = tuple(int(v) for v in rng.integers(0, 4, size=4))
        canon = canonical_eri_index(*idx)
        assert canon in eri_orbit(*idx)
        for perm in eri_orbit(*idx):
            assert canonical_eri_index(*perm) == canon


def test_canonical_index_closed_form_is_orbit_minimum():
    # pair-index rule == scalar rule == smallest orbit member, for every
    # tuple: the canonical member of (ij|kl) is V[min(a, b), max(a, b)] of
    # its pairs a = index[i, j] and b = index[k, l]
    for norb in range(1, 6):
        p, q, index = pair_order(norb)
        for i, j, k, l in np.ndindex((norb,) * 4):
            canon = min(eri_orbit(i, j, k, l))
            assert canonical_eri_index(i, j, k, l) == canon
            a, b = sorted((index[i, j], index[k, l]))
            assert (p[a], q[a], p[b], q[b]) == canon


@pytest.mark.parametrize("norb", [1, 2, 3, 4, 5])
def test_writer_emits_the_nonzero_orbit_minima_in_order(rng, norb):
    minima = {min(eri_orbit(*idx)) for idx in np.ndindex((norb,) * 4)}
    d = random_fcidump(rng, norb)
    dense = d.two_body_tensor()
    sparse = dense * (np.abs(dense) > np.median(np.abs(dense)))
    for dump in (d, FciDump.from_tensors(norb, d.nelec, d.ms2, d.e_core, d.h1, sparse)):
        tensor = dump.two_body_tensor()
        lines = [line.split() for line in write_fcidump(dump).splitlines()[4:]]
        keys = [tuple(int(x) - 1 for x in line[1:]) for line in lines if line[3] != "0"]
        assert keys == sorted(k for k in minima if tensor[k] != 0.0)
        for key, line in zip(keys, lines):
            assert float(line[0]) == tensor[key]
        assert parse_fcidump(write_fcidump(dump)) == dump


def _lone(*entries: tuple[int, int, int, int]) -> np.ndarray:
    h2 = np.zeros((2,) * 4)
    for key in entries:
        h2[key] = 0.5
    return h2


# A dense h2 entry set without its whole orbit differs from the canonical
# entry's expansion at its first such index; an index outside the basis is a
# wrong shape, and a non-finite value reaches the constructor's check on v.
@pytest.mark.parametrize(
    "h2, message",
    [
        (_lone((1, 0, 0, 0)), r"8-fold symmetry at \(1, 0, 0, 0\)"),
        (_lone((0, 0, 0, 1)), r"8-fold symmetry at \(0, 0, 1, 0\)"),
        (_lone((0, 0, 0, 1), (0, 0, 1, 0)), r"8-fold symmetry at \(0, 1, 0, 0\)"),
        (np.zeros((3, 3, 3, 3)), "h2 shape"),
        (np.zeros((2, 2, 2, 3)), "h2 shape"),
        (np.full((2,) * 4, np.nan), "non-finite"),
        (np.full((2,) * 4, np.inf), "non-finite"),
        (np.full((2,) * 4, -np.inf), "non-finite"),
    ],
    ids=["swapped-pair", "swapped-second-pair", "pairs-out-of-order", "second-index",
         "fourth-index", "nan", "inf", "-inf"],
)
def test_h2_key_and_value_checks(h2, message):
    with pytest.raises(InvalidFciDump, match=message):
        FciDump.from_tensors(2, 2, 0, h2=h2)


def _asymmetric() -> np.ndarray:
    v = np.zeros((3, 3))
    v[0, 1] = 0.5
    return v


@pytest.mark.parametrize(
    "v, message",
    [
        (np.zeros((4, 4)), r"v shape \(4, 4\) != \(3, 3\)"),
        (np.zeros((2, 2, 2, 2)), "v shape"),
        (np.zeros((3, 4)), "v shape"),
        (np.full((3, 3), np.nan), "non-finite"),
        (np.full((3, 3), np.inf), "non-finite"),
        (np.full((3, 3), -np.inf), "non-finite"),
        (_asymmetric(), "v is not symmetric"),
    ],
    ids=["too-many-pairs", "dense-tensor", "not-square", "nan", "inf", "-inf", "asymmetric"],
)
def test_v_shape_value_and_symmetry_checks(v, message):
    # (ji|kl) = (ij|kl) and (ij|lk) = (ij|kl) hold by V's pair indexing;
    # (kl|ij) = (ij|kl) is V = V^T
    with pytest.raises(InvalidFciDump, match=message):
        FciDump(norb=2, nelec=2, v=v)


def test_norb_above_cap_rejected():
    with pytest.raises(InvalidFciDump, match="NORB must be in"):
        parse_fcidump(f"&FCI NORB={MAX_NORB + 1},NELEC=2,&END\n")


def test_roundtrip_minimal():
    d = parse_fcidump(MINIMAL)
    assert parse_fcidump(write_fcidump(d)) == d


def test_writer_always_emits_core_line():
    d = FciDump(norb=1, nelec=1, ms2=1)
    text = write_fcidump(d)
    assert "0.0 0 0 0 0" in text
    assert parse_fcidump(text) == d


def test_roundtrip_random_property(rng):
    for _ in range(20):
        norb = int(rng.integers(1, 5))
        d = random_fcidump(rng, norb)
        assert parse_fcidump(write_fcidump(d)) == d


def test_from_tensors_rejects_asymmetric_h2(rng):
    bad = rng.normal(size=(2, 2, 2, 2))
    with pytest.raises(InvalidFciDump, match="violates 8-fold symmetry"):
        FciDump.from_tensors(2, 2, 0, h2=bad)


def test_from_tensors_accepts_symmetrized(rng):
    eri = random_eri(rng, 3)
    d = FciDump.from_tensors(3, 2, 0, h2=eri)
    assert np.allclose(d.two_body_tensor(), eri)


def test_from_tensors_symmetrizes_h1_without_overflow(rng):
    # the mean of h1 and h1.T, bit for bit, and finite near the float max,
    # where (h1 + h1.T) / 2 overflows to inf
    h1 = rng.normal(size=(4, 4))
    assert np.array_equal(FciDump.from_tensors(4, 2, 0, h1=h1).h1, (h1 + h1.T) / 2.0)
    big = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])
    assert np.array_equal(FciDump.from_tensors(2, 2, 0, h1=big).h1, big)


def test_pair_integrals_pack_h1_and_h2_over_the_pair_order(rng):
    for norb in range(1, 9):
        d = random_fcidump(rng, norb)
        p, q, index = pair_order(norb)
        k, v = pair_integrals(d), d.v
        assert list(zip(p.tolist(), q.tolist())) == [
            (a, b) for a in range(norb) for b in range(a, norb)
        ]
        assert k.shape == (len(p),) and v.shape == (len(p), len(p))
        # C order: the BLAS products over V sum in the order they always have
        assert v.flags.c_contiguous
        h2 = d.two_body_tensor()
        for a, b, c, e in np.ndindex((norb,) * 4):
            assert v[index[a, b], index[c, e]] == h2[a, b, c, e]
        expected_k = d.h1 - 0.5 * np.einsum("prrq->pq", h2)
        assert np.array_equal(k, expected_k[p, q])


def test_pair_order_is_cached_and_read_only():
    assert pair_order(5) is pair_order(5)
    for array in pair_order(5):
        assert not array.flags.writeable


def test_from_tensors_snaps_to_canonical_entry_within_tolerance(rng):
    eri = random_eri(rng, 3)
    near = eri.copy()
    near[2, 1, 0, 1] += 0.5 * DUPLICATE_TOL  # orbit minimum is (0, 1, 1, 2)
    tensor = FciDump.from_tensors(3, 2, 0, h2=near).two_body_tensor()
    assert tensor[2, 1, 0, 1] == tensor[0, 1, 1, 2] == eri[0, 1, 1, 2]
    far = eri.copy()
    far[2, 1, 0, 1] += 2 * DUPLICATE_TOL
    with pytest.raises(InvalidFciDump, match=r"at \(2, 1, 0, 1\)"):
        FciDump.from_tensors(3, 2, 0, h2=far)
    # a canonical -0.0 is stored as the 0.0 of an unset entry
    zero = np.zeros((2,) * 4)
    zero[0, 1, 0, 1] = zero[1, 0, 0, 1] = zero[0, 1, 1, 0] = zero[1, 0, 1, 0] = -0.0
    assert not np.signbit(FciDump.from_tensors(2, 2, 0, h2=zero).v).any()


def test_two_body_tensor_matches_loop_expansion(rng):
    # lines list random orbit members of a sparse canonical set; the tensor
    # equals a key-by-key expansion over the 8 index orbits
    for norb in range(1, 7):
        canonical = sorted({min(eri_orbit(*idx)) for idx in np.ndindex((norb,) * 4)})
        kept = [key for key in canonical if rng.random() < 0.5]
        values = {key: float(rng.normal()) for key in kept}
        expected = np.zeros((norb,) * 4)
        lines = []
        for key, value in values.items():
            for perm in eri_orbit(*key):
                expected[perm] = value
            member = eri_orbit(*key)[rng.integers(8)]
            lines.append(f"{value!r} " + " ".join(str(x + 1) for x in member))
        if (0, 0, 0, 0) not in values:
            lines.append("-0.0 1 1 1 1")  # stored as the 0.0 of an unset entry
        d = parse_fcidump(f"&FCI NORB={norb},NELEC=1,MS2=1,&END\n" + "\n".join(lines) + "\n")
        assert np.array_equal(d.two_body_tensor(), expected)
        assert not np.signbit(d.v[d.v == 0.0]).any()


def _sparse_norb64() -> str:
    """A norb-64 FCIDUMP of 64 (ii|ii), one (12|34) and 64 h_ii entries."""
    lines = ["&FCI NORB=64,NELEC=2,MS2=0,", "&END"]
    lines += [f" 0.5 {i} {i} {i} {i}" for i in range(1, 65)]
    lines += [" 0.125 1 2 3 4"]
    lines += [f" -1.0 {i} {i} 0 0" for i in range(1, 65)]
    lines += [" 0.0 0 0 0 0"]
    return "\n".join(lines) + "\n"


def test_parse_at_the_norb_cap_holds_v_not_a_dense_tensor():
    text = _sparse_norb64()
    v_bytes = (64 * 65 // 2) ** 2 * 8  # 34.6 MB; a dense tensor is 134 MB
    tracemalloc.start()
    try:
        d = parse_fcidump(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * v_bytes, peak
    _, _, index = pair_order(64)
    assert d.v.nbytes == v_bytes and np.count_nonzero(d.v) == 64 + 2
    assert d.v[index[0, 1], index[2, 3]] == d.v[index[2, 3], index[0, 1]] == 0.125
    assert parse_fcidump(write_fcidump(d)) == d


@pytest.mark.parametrize("path", sorted(DEMO_CATALOG.glob("*/*.fcidump")), ids=lambda p: p.stem)
def test_demo_fcidumps_rewrite_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    assert write_fcidump(parse_fcidump(text)) == text
