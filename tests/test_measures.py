import tracemalloc
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from influence_lab import dsl, fourier, measures, oracles
from influence_lab.errors import CapacityError
from influence_lab.measures import (
    avg_influence,
    avg_sensitivity,
    block_sensitivity,
    influences,
    max_sensitivity,
    measure_report,
)
from influence_lab.oracles import block_sensitivity_naive_at, sensitivity_at, sensitivity_profile
from influence_lab.truthtable import (
    TruthTable,
    builtin,
    complement,
    compose,
    iterate,
    permute_variables,
    random_table,
)

AND2 = TruthTable.from_bits([0, 0, 0, 1])
PAPER_F = builtin("paper_f", 4)


def test_influence_families():
    assert influences(builtin("parity", 4)) == (1, 1, 1, 1)
    assert influences(AND2)[0] == Fraction(1, 2)
    assert influences(TruthTable(3, 0))[1] == 0


def test_avg_influence_equals_spectral(small_corpus):
    # sum_s coeff_s^2 * |s| / n, read off the level weights A_j = den^2 * W_j
    for tables in small_corpus.values():
        for t in tables:
            spec = fourier.wht(t)
            num = sum(a * j for j, a in enumerate(spec.weight_profile()))
            assert avg_influence(t) == Fraction(num, spec.denominator**2 * t.n)


def test_avg_sensitivity_equals_definition(small_corpus):
    for tables in small_corpus.values():
        for t in tables:
            by_enum = Fraction(int(sensitivity_profile(t).sum()), t.size)
            assert avg_sensitivity(t) == by_enum
            assert avg_sensitivity(t) == avg_influence(t) * t.n


def test_paper_family_avg_sensitivity():
    assert avg_sensitivity(PAPER_F) == Fraction(5, 2)
    assert avg_sensitivity(iterate(PAPER_F, 2)) == Fraction(25, 4)


def test_parity_avg_sensitivity():
    for n in (2, 5):
        assert avg_sensitivity(builtin("parity", n)) == n


def test_sensitivity_examples():
    assert sensitivity_at(AND2, (1, 1)) == 2
    assert sensitivity_at(TruthTable(4, 0), 5) == 0
    # case analysis for the 4-variable base function: S(x) = 2 + [x1 != x3]
    for x in range(16):
        x1, x3 = (x >> 1) & 1, (x >> 3) & 1
        assert sensitivity_at(PAPER_F, x) == 2 + (1 if x1 != x3 else 0)
    ms = max_sensitivity(PAPER_F)
    assert ms.value == 3
    assert sensitivity_at(PAPER_F, ms.witness) == 3


def test_sensitivity_profile_matches_pointwise():
    t = random_table(5, 77)
    profile = sensitivity_profile(t)
    for x in range(t.size):
        assert profile[x] == sensitivity_at(t, x)


def test_sensitivity_profile_of_parity_at_the_cap():
    profile = sensitivity_profile(builtin("parity", 20))
    assert bool(np.all(profile == 20))
    assert int(profile.sum()) == 20 << 20


def _influences_by_gather(t):
    bits, idx = t.bits(), np.arange(t.size)
    return tuple(Fraction(int(np.count_nonzero(bits != bits[idx ^ (1 << i)])), t.size) for i in range(t.n))


def test_packed_kernels_match_unpacked_references():
    # every n up to 12: n < 6 fills part of one word, n = 6, 7 put x_6 at the word boundary
    tables = [random_table(n, 70 + 3 * n + j) for n in range(1, 13) for j in range(3)]
    tables += [TruthTable(n, 0) for n in range(1, 13)] + [builtin("and", n) for n in range(2, 13)]
    tables += [complement(t) for t in tables] + [_relabeled(t, seed) for seed, t in enumerate(tables)]
    for t in tables:
        profile = sensitivity_profile(t)
        assert max_sensitivity(t) == (int(profile.max()), int(np.argmax(profile))), str(t)
        assert influences(t) == _influences_by_gather(t), str(t)


def test_packed_kernels_pinned_results():
    for n in range(1, 13):
        assert max_sensitivity(TruthTable(n, 0)) == (0, 0)
        assert max_sensitivity(complement(TruthTable(n, 0))) == (0, 0)
    for n in range(2, 13):
        assert max_sensitivity(builtin("and", n)) == (n, (1 << n) - 1)  # only the all-ones input
    parity = builtin("parity", 20)
    assert max_sensitivity(parity) == (20, 0)
    assert influences(parity) == (1,) * 20


@pytest.mark.parametrize(
    "kernel, limit_mib",
    [(fourier.wht, 16.0), (measures.influences, 1.5), (measures.max_sensitivity, 1.5)],
    ids=["wht", "influences", "max_sensitivity"],
)
def test_full_table_kernel_peak_at_the_cap(kernel, limit_mib):
    # on a fresh table the unpacked routes peaked at 17.0, 1.5 and 3.0 MiB: int64
    # signs, and the 1 MiB bit array they unpacked; the packed routes unpack nothing
    t = random_table(20, 5)
    tracemalloc.start()
    try:
        kernel(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_top_entries_peak_at_the_cap():
    # 9.0 MiB measured: one int64 buffer of |sums| and one bool mask; gathering the
    # nonzeros first held masks, their magnitudes and a partitioned copy, 24 MiB
    spec = fourier.wht(random_table(20, 5))
    tracemalloc.start()
    try:
        fourier.top_entries(spec, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_weight_profile_peak_at_the_cap():
    # 9.1 MiB measured: the 8 MiB sums * sums and the popcount of every mask that
    # np.add.at scatters by; np.bincount with weights is exact too but peaked at 25 MiB
    spec = fourier.wht(random_table(20, 5))
    tracemalloc.start()
    try:
        spec.weight_profile()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _assert_packing(t, x, value, blocks):
    """blocks are value pairwise disjoint blocks, each flipping f at x."""
    combined = 0
    for block in blocks:
        assert block != 0
        assert combined & block == 0
        combined |= block
        assert t.bit_at(x ^ block) != t.bit_at(x)
    assert len(blocks) == value


def test_block_sensitivity_paper_f():
    result = block_sensitivity(PAPER_F)
    assert result.value == 3
    assert result.exact
    assert block_sensitivity_naive_at(PAPER_F, 0b0001) == 3  # x = (1,0,0,0)
    _assert_packing(PAPER_F, 0b0001, 3, (0b0010, 0b0100, 0b1001))  # {x1}, {x2}, {x0, x3}


def test_block_sensitivity_parity():
    for n in (3, 6):
        result = block_sensitivity(builtin("parity", n))
        assert result.value == n
        assert len(result.witness_blocks) == n


def test_block_sensitivity_witness_valid(small_corpus):
    for t in small_corpus[5][:6]:
        result = block_sensitivity(t)
        assert result.exact
        _assert_packing(t, result.witness_input, result.value, result.witness_blocks)


def test_block_sensitivity_matches_naive(small_corpus):
    for n, tables in small_corpus.items():
        for t in tables:
            assert block_sensitivity(t).value == oracles.block_sensitivity_naive(t)


def _packing_over_all_blocks(t, x):
    """bs at x by exhaustive search over every sensitive block, minimal or not."""
    sensitive = [b for b in range(1, t.size) if t.bit_at(x ^ b) != t.bit_at(x)]

    @cache
    def best(avail):
        return max((1 + best(avail & ~b) for b in sensitive if b & ~avail == 0), default=0)

    return best(t.size - 1)


def test_block_sensitivity_naive_at_matches_all_block_packing():
    # the oracle packs minimal blocks only; packing every sensitive block must give the same
    tables = [random_table(4, 600 + seed) for seed in range(8)] + [random_table(6, 610), PAPER_F]
    for t in tables:
        for x in range(t.size):
            assert block_sensitivity_naive_at(t, x) == _packing_over_all_blocks(t, x)


@pytest.mark.parametrize(
    "expr, value, witness, blocks",
    [
        ("compose(maj(3),paper_f)", 6, 3, (64, 128, 1024, 2048, 48, 768)),
        ("compose(paper_f,maj(3))", 6, 91, (1, 2, 8, 16, 128, 256)),
        ("iterate(paper_f,2)", 9, 0, (1024, 2048, 16384, 32768, 68, 136, 768, 12288, 51)),
    ],
)
def test_block_sensitivity_pinned_results(expr, value, witness, blocks):
    # the witness is the smallest input attaining bs; the oracle is capped at n = 12
    t = dsl.elaborate(expr)
    result = block_sensitivity(t)
    assert (result.value, result.witness_input, result.witness_blocks) == (value, witness, blocks)
    assert result.exact
    _assert_packing(t, witness, value, blocks)
    assert all(block_sensitivity_naive_at(t, x) < value for x in range(witness))
    if t.n <= 12:
        assert block_sensitivity_naive_at(t, witness) == value


def test_block_sensitivity_scan_stops_at_first_group_that_cannot_win():
    # input 0 is sensitive to all 12 coordinates; every other input has a
    # ceiling of at most floor(13/2), so no other input's candidates are computed
    result = block_sensitivity(builtin("or", 12))
    assert (result.value, result.witness_input, result.inputs_scanned) == (12, 0, 1)


def test_block_sensitivity_witness_agrees_with_single_input(small_corpus):
    # the oracle finds minimal blocks by its own subset search, sharing no code
    # with the scan; the witness is the smallest input attaining bs, whatever
    # order the scan takes
    for n, tables in small_corpus.items():
        for t in tables:
            result = block_sensitivity(t)
            _assert_packing(t, result.witness_input, result.value, result.witness_blocks)
            smallest = next(x for x in range(t.size) if block_sensitivity_naive_at(t, x) == result.value)
            assert result.witness_input == smallest


@pytest.mark.parametrize(
    "n, packed_hex",
    [
        (6, "30fc33ff300c33ff"),
        (7, "ffffcfcf0f0f0f0ffff0ffc0ffffffff"),
        (8, "d5d5f0f0d5d5f0f0d5d5f0f0d5d5f0f05f5f5f5f5f5f5f5f5555505055555050"),
    ],
)
def test_block_sensitivity_equal_sensitivity_inputs_pack_differently(n, packed_hex):
    # small DNFs (found by random search) on which inputs with the same number
    # of free variables need different packings, so a packing memo keyed on
    # that count alone misses the maximum
    t = TruthTable(n, int(packed_hex, 16))
    assert block_sensitivity(t).value == oracles.block_sensitivity_naive(t)


def _candidates_by_definition(t, x, free):
    """Sensitive blocks B over the free coordinates with no sensitive B minus one coordinate."""
    def sensitive(block):
        return t.bit_at(x ^ block) != t.bit_at(x)

    spread = measures._spread_table(free)
    return [
        int(b) for b in spread
        if sensitive(b) and not any(sensitive(b & ~(1 << i)) for i in free if (b >> i) & 1)
    ]


def test_sensitive_masks_match_definition(small_corpus):
    for tables in small_corpus.values():
        for t in tables:
            masks = measures._sensitive_masks(t, np.arange(t.size))
            expected = [
                sum(1 << i for i in range(t.n) if t.bit_at(x ^ (1 << i)) != t.bit_at(x))
                for x in range(t.size)
            ]
            assert masks.tolist() == expected
            assert np.array_equal(np.bitwise_count(masks), sensitivity_profile(t))


def test_batched_candidates_match_definition():
    # one batch per sensitive-coordinate mask, mixing inputs whose subcubes are
    # constant (no candidates) with inputs whose subcubes are not
    tables = [random_table(7, 40 + seed) for seed in range(3)]
    tables += [dsl.elaborate(e) for e in ("compose(and(2),or(3))", "compose(or(2),maj(3))")]
    tables.append(TruthTable(6, int("30fc33ff300c33ff", 16)))
    for t in tables:
        masks = measures._sensitive_masks(t, np.arange(t.size))
        for coord_mask in np.unique(masks).tolist():
            free = tuple(i for i in range(t.n) if not (coord_mask >> i) & 1)
            xs = np.flatnonzero(masks == coord_mask)
            batched = measures._subcube_candidates(t.bits(), xs, measures._spread_table(free))
            assert batched == [_candidates_by_definition(t, x, free) for x in xs.tolist()]


def _relabeled(t, seed):
    """t with its variables permuted and its output complemented."""
    perm = np.random.default_rng(seed).permutation(t.n).tolist()
    return complement(permute_variables(t, perm))


def _class_weight_table(sizes, seed):
    """A random function of the Hamming weight of each block of consecutive variables."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    idx = np.arange(1 << n)
    key = np.zeros(1 << n, dtype=np.int64)
    lo = 0
    for size in sizes:
        key = key * (size + 1) + np.bitwise_count((idx >> lo) & ((1 << size) - 1)).astype(np.int64)
        lo += size
    values = rng.integers(2, size=int(np.prod([s + 1 for s in sizes])))
    return TruthTable.from_bit_array(values[key].astype(np.uint8))


def _symmetry_corpus():
    tables = [ref for _, _, ref in oracles.builtin_references()]
    pairs = [("maj", 3, "maj", 3), ("or", 2, "and", 3), ("and", 2, "or", 3), ("paper_f", 4, "or", 2),
             ("parity", 2, "paper_f", 4), ("maj", 3, "and", 3), ("or", 3, "maj", 3)]
    for seed, (outer, m, inner, k) in enumerate(pairs):
        t = compose(builtin(outer, m), builtin(inner, k))
        tables += [t, _relabeled(t, seed)]
    tables += [_relabeled(_class_weight_table(sizes, seed), seed)
               for seed, sizes in enumerate([(3, 2, 1, 2), (4, 4), (2, 2, 2, 1), (5, 1, 1), (3, 3, 2)])]
    tables += [random_table(n, 900 + 10 * n + j) for n in range(2, 9) for j in range(3)]
    return tables


def test_symmetry_classes_match_transposition_search():
    for t in _symmetry_corpus():
        assert measures.symmetry_classes(t) == oracles.symmetry_classes_naive(t), str(t)


def _span(basis):
    span = {0}
    for a in basis:
        span |= {s ^ a for s in span}
    return span


def test_translation_basis_spans_every_translation(small_corpus):
    # the basis is read off the squared spectrum; the oracle shifts the table by every a
    tables = [t for ts in small_corpus.values() for t in ts]
    tables += [ref for _, n, ref in oracles.builtin_references() if n <= 9]
    tables += [t for t in _symmetry_corpus() if t.n <= 10]
    tables += [dsl.elaborate(e) for e in ("compose(parity(2),paper_f)", "compose(paper_f,parity(2))")]
    for t in tables:
        basis = measures._translation_basis(fourier.wht(t))
        expected = set(oracles.translations_naive(t))
        assert _span(basis) == expected, str(t)
        assert len(expected) == 1 << len(basis), str(t)


def _orbit_minima_by_closure(t, classes):
    """Smallest input of every orbit, by closing labels under each generator over all inputs.

    The generators are the exchanges of neighbouring members of a class and
    every translation the oracle finds by shifting the table.
    """
    idx = np.arange(t.size)
    moves = [idx ^ a for a in oracles.translations_naive(t)]
    for c in classes:
        for i, j in zip(c, c[1:]):
            differ = ((idx >> i) ^ (idx >> j)) & 1
            moves.append(idx ^ (differ * ((1 << i) | (1 << j))))
    labels = idx.copy()
    while True:
        merged = labels
        for move in moves:
            merged = np.minimum(merged, merged[move])
        if np.array_equal(merged, labels):
            return np.unique(labels)
        labels = merged


@pytest.mark.parametrize(
    "expr",
    ["maj(5)", "compose(or(2),and(3))", "compose(maj(3),maj(3))", "compose(parity(2),paper_f)",
     "compose(paper_f,maj(3))", "compose(maj(3),parity(3))"],
)
def test_orbit_scan_matches_every_input(expr):
    # the scan visits orbit minima only; its value and witness must still be
    # the max over every input and the smallest input attaining it
    t = _relabeled(dsl.elaborate(expr), 7)
    classes = measures.symmetry_classes(t)
    minima = measures._orbit_minima(t, classes, fourier.wht(t))
    assert minima.tolist() == _orbit_minima_by_closure(t, classes).tolist()
    result = block_sensitivity(t)
    assert result.exact
    _assert_packing(t, result.witness_input, result.value, result.witness_blocks)
    assert result.inputs_scanned <= minima.size
    # the per-input oracle takes about 50 ms an input at n = 12: there, only up to the witness
    inputs = range(t.size) if t.n <= 9 else range(result.witness_input + 1)
    by_input = [block_sensitivity_naive_at(t, x) for x in inputs]
    assert by_input.index(result.value) == result.witness_input
    assert max(by_input) == result.value


@pytest.mark.parametrize(
    "expr, value, orbits",
    [("compose(maj(3),maj(5))", 6, 216), ("compose(or(4),and(4))", 4, 625)],
)
def test_block_sensitivity_scans_orbit_minima_only(expr, value, orbits):
    # without the orbit reduction these scan all 2^15 and 2^16 inputs (10-20 s);
    # the counter catches a silent fallback to the full scan without timing it
    result = block_sensitivity(dsl.elaborate(expr))
    assert (result.value, result.exact) == (value, True)
    assert result.inputs_scanned <= orbits


@pytest.mark.parametrize(
    "expr, seed, value, orbits",
    [("iterate(paper_f,2)", None, 9, 1024), ("compose(maj(3),paper_f)", 3, 6, 256),
     ("compose(paper_f,maj(3))", 3, 6, 64), ("parity(15)", None, 15, 1),
     ("compose(maj(3),parity(5))", None, 10, 3)],
)
def test_block_sensitivity_scans_translation_orbits_only(expr, seed, value, orbits):
    # with exchanges alone these scan 65536, 3075, 213, 16 and 162 inputs; iterate has
    # no interchangeable pair, the next two are relabeled (permuted and complemented).
    # The last two need translations that are not constant on a class: restricted to
    # the class-constant ones they scan 8 and 81
    t = dsl.elaborate(expr) if seed is None else _relabeled(dsl.elaborate(expr), seed)
    result = block_sensitivity(t)
    assert (result.value, result.exact) == (value, True)
    assert result.inputs_scanned <= orbits


def test_block_sensitivity_masks_orbit_minima_only(monkeypatch):
    # the sensitive-coordinate masks are computed for the 108 orbit minima alone:
    # the 6 * 6 * 6 exchange orbits, paired by complementing every input
    sizes = []
    masks = measures._sensitive_masks

    def recording(t, xs):
        sizes.append(xs.size)
        return masks(t, xs)

    monkeypatch.setattr(measures, "_sensitive_masks", recording)
    assert block_sensitivity(dsl.elaborate("compose(maj(3),maj(5))")).value == 6
    assert sum(sizes) == 108


def test_block_sensitivity_budget_flags_partial():
    t = random_table(10, 3)
    result = block_sensitivity(t, budget_seconds=0.0)
    assert not result.exact
    assert result.inputs_scanned < t.size
    assert result.value <= block_sensitivity(t).value


def test_block_sensitivity_capacity():
    with pytest.raises(CapacityError):
        block_sensitivity(random_table(17, 0))


def test_measures_invariant_under_complement():
    for seed in range(6):
        t = random_table(4, 400 + seed)
        c = complement(t)
        assert influences(t) == influences(c)
        assert max_sensitivity(t).value == max_sensitivity(c).value
        assert block_sensitivity(t).value == block_sensitivity(c).value


def test_measures_invariant_under_permutation():
    perm = [3, 0, 2, 1]
    for seed in range(6):
        t = random_table(4, 500 + seed)
        p = permute_variables(t, perm)
        assert sorted(influences(t)) == sorted(influences(p))
        assert avg_influence(t) == avg_influence(p)
        assert max_sensitivity(t).value == max_sensitivity(p).value
        assert block_sensitivity(t).value == block_sensitivity(p).value


def test_influence_spectral_identity(small_corpus):
    # Inf_i = sum of squared coefficients over masks containing i
    for t in small_corpus[4]:
        spec = fourier.wht(t)
        den = spec.denominator**2
        for i in range(t.n):
            masks = [s for s in range(t.size) if (s >> i) & 1]
            num = sum(int(spec.sums[s]) ** 2 for s in masks)
            assert influences(t)[i] == Fraction(num, den)


def test_measure_report_consistency():
    report = measure_report(PAPER_F, fourier.wht(PAPER_F))
    assert report.avg_sensitivity == report.rho * report.n
    assert report.block_sensitivity is not None
    assert report.block_sensitivity.value == 3
    assert report.max_sensitivity == 3
    skipped = measure_report(PAPER_F, fourier.wht(PAPER_F), include_block_sensitivity=False)
    assert skipped.block_sensitivity is None
    assert skipped.bs_skipped_reason == "disabled"
    big_t = random_table(17, 1)
    big = measure_report(big_t, fourier.wht(big_t))
    assert big.block_sensitivity is None
    assert "exceeds exact cap" in big.bs_skipped_reason
