import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from influence_lab import cli, fourier, oracles
from influence_lab.errors import ConsistencyError
from influence_lab.fourier import (
    FourierSpectrum,
    butterfly,
    inverse_wht,
    nonzero_entries,
    spectral_degree,
    top_entries,
    wht,
)
from influence_lab.truthtable import TruthTable, builtin, complement, random_table


def test_and2_spectrum_masks_lsb_first():
    # direct 4-point summation: coefficients 1/2, 1/2, 1/2, -1/2
    spec = wht(TruthTable.from_bits([0, 0, 0, 1]))
    assert spec.coefficient(0b00) == Fraction(1, 2)
    assert spec.coefficient(0b01) == Fraction(1, 2)
    assert spec.coefficient(0b10) == Fraction(1, 2)
    assert spec.coefficient(0b11) == Fraction(-1, 2)
    assert np.array_equal(spec.sums, oracles.wht_direct(TruthTable.from_bits([0, 0, 0, 1])))


def test_parity_single_coefficient():
    for n in (2, 3, 6):
        spec = wht(builtin("parity", n))
        entries = nonzero_entries(spec)
        assert entries == [{"s": (1 << n) - 1, "coeff_num": 1 << n, "coeff_den": 1 << n}]


def test_constant_spectrum():
    spec = wht(TruthTable(3, 0))
    assert spec.coefficient(0) == 1
    assert np.count_nonzero(spec.sums) == 1


def test_wht_matches_direct_oracle(small_corpus):
    # every n up to the oracle's cap: n < 3 uses the smaller seed tables
    tables = [t for ts in small_corpus.values() for t in ts]
    tables += [random_table(n, 40 + n) for n in range(1, 11)]
    tables += [builtin("parity", n) for n in range(1, 11)] + [TruthTable(n, 0) for n in range(1, 11)]
    for t in tables:
        assert np.array_equal(wht(t).sums, oracles.wht_direct(t)), str(t)


@pytest.mark.parametrize("name", ["random", "parity"])
def test_wht_at_the_cap_matches_unpacked_butterfly(name):
    t = random_table(20, 5) if name == "random" else builtin("parity", 20)
    spec = wht(t)
    assert spec.sums.dtype == np.int64
    assert not spec.sums.flags.writeable
    assert np.array_equal(spec.sums, butterfly(t.signs()))


def _butterfly_stage_copies(values, dtype):
    """The transform with a fresh copy of each stage's first halves, as a reference."""
    out = np.array(values, dtype=dtype, order="C")
    h = 1
    while h < out.shape[0]:
        view = out.reshape(-1, 2, h, *out.shape[1:])
        a = view[:, 0].copy()
        b = view[:, 1]
        view[:, 0] += b
        np.subtract(a, b, out=b)
        h *= 2
    return out


def test_butterfly_matches_stage_copies_bit_for_bit():
    rng = np.random.default_rng(7)
    for dtype in (np.int64, np.float64, np.complex128):
        for shape in ((1,), (2,), (64,), (32, 3)):
            values = (rng.standard_normal(shape) * 1000).astype(dtype)
            if dtype is np.complex128:
                values += 1j * rng.standard_normal(shape)
            before = values.copy()
            out = butterfly(values, dtype)
            assert out.dtype == dtype and out.shape == shape
            assert np.array_equal(out, _butterfly_stage_copies(values, dtype))
            assert np.array_equal(values, before)  # the input is not touched


def test_wht_holds_no_second_full_copy():
    # the int32 stages hold half the spectrum's bytes and a quarter-size
    # scratch; the int64 cast then sits beside the int32 result
    t = random_table(16, 3)
    tracemalloc.start()
    try:
        spec = wht(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * spec.sums.nbytes + 4096


def test_parseval_exact(small_corpus):
    for tables in small_corpus.values():
        for t in tables:
            assert wht(t).parseval_sum() == 1


def test_inverse_round_trip(small_corpus):
    for tables in small_corpus.values():
        for t in tables:
            assert inverse_wht(wht(t)) == t


def test_inverse_rejects_non_boolean_spectrum():
    with pytest.raises(ConsistencyError):
        inverse_wht(FourierSpectrum(2, np.zeros(4, dtype=np.int64)))
    with pytest.raises(ConsistencyError):
        inverse_wht(FourierSpectrum(2, np.array([1, 1, 1, 1], dtype=np.int64)))


def test_spectral_degree_families():
    assert spectral_degree(wht(builtin("parity", 7))) == 7
    assert spectral_degree(wht(TruthTable(4, 0))) == 0
    assert spectral_degree(wht(TruthTable.from_bits([0, 0, 0, 1]))) == 2


def test_spectral_degree_complement_invariant(small_corpus):
    for t in small_corpus[4]:
        assert spectral_degree(wht(t)) == spectral_degree(wht(complement(t)))


def test_export_skips_zeros():
    spec = wht(builtin("parity", 3))
    assert len(nonzero_entries(spec)) == 1
    t = random_table(4, 8)
    entries = nonzero_entries(wht(t))
    assert all(e["coeff_num"] != 0 for e in entries)
    assert all(e["coeff_den"] == 16 for e in entries)


def _profile_by_objects(spec):
    """A_j in Python integers, one mask at a time."""
    profile = [0] * (spec.n + 1)
    for s, c in enumerate(spec.sums.tolist()):
        profile[bin(s).count("1")] += c * c
    return profile


def test_weight_profile_matches_exact_route(small_corpus):
    for tables in small_corpus.values():
        for t in tables:
            spec = wht(t)
            assert spec.weight_profile() == _profile_by_objects(spec)
            assert all(type(a) is int for a in spec.weight_profile())


def test_weight_profile_exact_at_twenty_variables():
    # Parseval puts the whole 4^20 in int64 bins; the object route cannot overflow
    spec = wht(builtin("parity", 20))
    assert spec.weight_profile() == [0] * 20 + [4**20]
    for seed in (3, 11):
        spec = wht(random_table(20, seed))
        profile = spec.weight_profile()
        assert sum(profile) == 4**20
        squares = spec.sums.astype(object) ** 2
        weights = np.bitwise_count(np.arange(1 << 20, dtype=np.uint64))
        assert profile == [squares[weights == j].sum() for j in range(21)]


def test_weight_profile_computed_once_and_not_shared(monkeypatch):
    spec = wht(random_table(6, 2))
    calls = []
    real = fourier.popcounts
    monkeypatch.setattr(fourier, "popcounts", lambda n: calls.append(n) or real(n))
    first = spec.weight_profile()
    first[0] += 1
    first.append(7)
    assert spec.weight_profile() == _profile_by_objects(spec)
    assert calls == [6]


def _top_by_sorting(spec, count):
    return sorted(nonzero_entries(spec), key=lambda e: (-abs(e["coeff_num"]), e["s"]))[:count]


def test_top_entries_match_full_sort():
    tables = [builtin("maj", 7), builtin("parity", 5), TruthTable(3, 0)]
    for seed in (1, 2, 3):
        tables += [random_table(10, seed), complement(random_table(10, seed))]
    for t in tables:
        spec = wht(t)
        for count in (1, 8, 100):
            assert top_entries(spec, count) == _top_by_sorting(spec, count)
    # maj(7): ties at every nonzero |coefficient| level, both signs present
    spec = wht(builtin("maj", 7))
    tied = top_entries(spec, 8)
    assert len({abs(e["coeff_num"]) for e in tied[:7]}) == 1
    nums = [e["coeff_num"] for e in nonzero_entries(spec)]
    assert min(nums) < 0 < max(nums)


def test_top_entries_all_tied_or_fewer_than_count():
    # a bent function: all 2^n coefficients tie in magnitude, so the smallest masks win
    bent = oracles.tabulate(8, lambda x: (x[0] & x[1]) ^ (x[2] & x[3]) ^ (x[4] & x[5]) ^ (x[6] & x[7]))
    spec = wht(bent)
    assert set(np.abs(spec.sums).tolist()) == {16}
    assert [e["s"] for e in top_entries(spec, 8)] == list(range(8))
    # parity: one nonzero coefficient, fewer than the count asked for
    for n in (1, 10, 20):
        top = top_entries(wht(builtin("parity", n)), 8)
        assert top == [{"s": (1 << n) - 1, "coeff_num": 1 << n, "coeff_den": 1 << n}]


def test_spectrum_section_counts_and_dump():
    for t in (builtin("maj", 7), random_table(10, 4), complement(random_table(9, 6))):
        spec = wht(t)
        entries = nonzero_entries(spec)
        section = cli._spectrum_section(spec, dump=False)
        assert section["nonzero_count"] == len(entries)
        assert type(section["nonzero_count"]) is int
        assert section["top_coefficients"] == _top_by_sorting(spec, 8)
        assert "entries" not in section
        dumped = cli._spectrum_section(spec, dump=True)
        assert dumped["entries"] == entries
        assert len(dumped["entries"]) == dumped["nonzero_count"]
