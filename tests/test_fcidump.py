import itertools

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
    FciDump,
    canonical_eri_index,
    eri_orbit,
    parse_fcidump,
    write_fcidump,
)

from conftest import loop_two_body_tensor, random_eri, random_fcidump

MINIMAL = "&FCI NORB=2,NELEC=2,MS2=0,&END\n1.0 1 1 0 0\n"


def test_parse_minimal_header_and_h1():
    d = parse_fcidump(MINIMAL)
    assert d.norb == 2
    assert d.nelec == 2
    assert d.ms2 == 0
    assert d.h1[0, 0] == 1.0
    assert np.count_nonzero(d.h1) == 1
    assert d.h2 == {}
    assert d.e_core == 0.0


def test_core_energy_line():
    d = parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1,&END\n-0.5 0 0 0 0\n")
    assert d.e_core == -0.5


def test_slash_terminator_and_d_exponent():
    text = "&FCI NORB=2,NELEC=2\n /\n 1.0D-01 1 1 0 0\n"
    d = parse_fcidump(text)
    assert d.h1[0, 0] == pytest.approx(0.1)


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
    # storing (00|11) makes the (11|00) lookup see the same value
    d = parse_fcidump("&FCI NORB=2,NELEC=2,&END\n0.3 1 1 2 2\n")
    assert d.h2_at(0, 0, 1, 1) == 0.3
    assert d.h2_at(1, 1, 0, 0) == 0.3


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
            assert d.h2_at(*perm) == v
    assert np.count_nonzero(tensor) == 16


def test_duplicate_symmetry_entries_must_agree():
    ok = "&FCI NORB=2,NELEC=2,&END\n0.5 1 2 1 1\n0.5 1 1 2 1\n"
    parse_fcidump(ok)
    bad = "&FCI NORB=2,NELEC=2,&END\n0.5 1 2 1 1\n0.6 1 1 2 1\n"
    with pytest.raises(ConflictingDuplicate):
        parse_fcidump(bad)


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


def test_invalid_spin():
    with pytest.raises(InvalidFciDump):
        parse_fcidump("&FCI NORB=2,NELEC=2,MS2=1,&END\n0.0 0 0 0 0\n")


def test_h2_at_canonical_orbit(rng):
    # exhaustive over every index tuple for norb <= 4
    for norb in (2, 3, 4):
        d = random_fcidump(rng, norb)
        tensor = d.two_body_tensor()
        for idx in np.ndindex((norb,) * 4):
            expected = tensor[idx]
            for perm in eri_orbit(*idx):
                assert d.h2_at(*perm) == expected


def test_h2_at_unset_is_zero():
    d = FciDump(norb=2, nelec=2)
    assert d.h2_at(0, 1, 1, 0) == 0.0
    with pytest.raises(IndexOutOfRange):
        d.h2_at(0, 0, 0, 2)


def test_canonical_index_is_orbit_invariant(rng):
    for _ in range(100):
        idx = tuple(int(v) for v in rng.integers(0, 4, size=4))
        canon = canonical_eri_index(*idx)
        assert canon in eri_orbit(*idx)
        for perm in eri_orbit(*idx):
            assert canonical_eri_index(*perm) == canon


def test_canonical_index_closed_form_is_orbit_minimum():
    for idx in itertools.product(range(5), repeat=4):
        assert canonical_eri_index(*idx) == min(eri_orbit(*idx)), idx


@pytest.mark.parametrize(
    "key, value, message",
    [
        ((1, 0, 0, 0), 0.5, "is not canonical"),
        ((0, 0, 1, 0), 0.5, "is not canonical"),
        ((-1, 0, 0, 0), 0.5, "outside basis"),
        ((0, 2, 1, 2), 0.5, "outside basis"),
        ((0, 0, 0, 2), 0.5, "outside basis"),
        ((0, 1, 1, 1), float("nan"), "non-finite h2 value"),
        ((0, 0, 0, 0), float("-inf"), "non-finite h2 value"),
    ],
    ids=["swapped-pair", "pairs-out-of-order", "negative", "second-index",
         "fourth-index", "nan", "-inf"],
)
def test_h2_key_and_value_checks(key, value, message):
    with pytest.raises(InvalidFciDump, match=message):
        FciDump(norb=2, nelec=2, h2={key: value})


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
    with pytest.raises(InvalidFciDump):
        FciDump.from_tensors(2, 2, 0, h2=bad)


def test_from_tensors_accepts_symmetrized(rng):
    eri = random_eri(rng, 3)
    d = FciDump.from_tensors(3, 2, 0, h2=eri)
    assert np.allclose(d.two_body_tensor(), eri)


def test_two_body_tensor_matches_loop_expansion(rng):
    dumps = [random_fcidump(rng, norb) for norb in range(1, 7)]
    sparse = dumps[-1]
    kept = dict(list(sparse.h2.items())[::3])
    dumps += [FciDump(norb=sparse.norb, nelec=2, h2=kept), FciDump(norb=2, nelec=2)]
    for d in dumps:
        tensor = d.two_body_tensor()
        assert np.array_equal(tensor, loop_two_body_tensor(d))
        assert not tensor.flags.writeable
        assert d.two_body_tensor() is tensor
