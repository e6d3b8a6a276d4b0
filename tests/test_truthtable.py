import json

import numpy as np
import pytest

from influence_lab import oracles
from influence_lab.errors import CapacityError, InputError
from influence_lab.truthtable import (
    TruthTable,
    builtin,
    complement,
    compose,
    iterate,
    permute_variables,
    random_table,
    read_table,
    write_table,
)

AND2 = TruthTable.from_bits([0, 0, 0, 1])


def test_eval_and2():
    assert AND2.bit_at((1, 1)) == 1
    assert AND2.bit_at((0, 1)) == 0
    assert AND2.bit_at(3) == 1


def test_eval_parity4_odd_weight():
    parity4 = builtin("parity", 4)
    assert parity4.bit_at((1, 1, 0, 1)) == 1
    assert parity4.bit_at((1, 1, 0, 0)) == 0


def test_sign_convention():
    assert AND2.sign_at((0, 0)) == 1
    assert AND2.sign_at((1, 1)) == -1
    for x in range(AND2.size):
        assert AND2.sign_at(x) == 1 - 2 * AND2.bit_at(x)


def test_parity_sign_is_character():
    parity = builtin("parity", 5)
    for x in range(parity.size):
        assert parity.sign_at(x) == (-1) ** bin(x).count("1")


def test_eval_input_errors():
    with pytest.raises(InputError):
        AND2.bit_at(4)
    with pytest.raises(InputError):
        AND2.bit_at((1, 0, 1))
    with pytest.raises(InputError):
        AND2.bit_at((2, 0))


def test_from_bits_rejects_bad_lengths():
    with pytest.raises(InputError):
        TruthTable.from_bits([0, 1, 1])
    with pytest.raises(InputError):
        TruthTable.from_bits([1])


def test_from_bits_accepts_float_bits():
    assert TruthTable.from_bits([0.0, 1.0]) == TruthTable.from_bits([0, 1])


def test_variable_count_caps():
    with pytest.raises(InputError):
        TruthTable(0, 0)
    with pytest.raises(CapacityError):
        TruthTable(21, 0)


def test_compose_identity_outer():
    ident = TruthTable.from_bits([0, 1])  # one-variable identity
    g = random_table(3, 5)
    assert compose(ident, g) == g


def test_compose_parity2_parity2_is_parity4():
    # brute-force table equality over all 16 inputs
    p2 = builtin("parity", 2)
    composed = compose(p2, p2)
    expected = oracles.tabulate(4, lambda x: (x[0] ^ x[1]) ^ (x[2] ^ x[3]))
    assert composed == expected
    assert composed == builtin("parity", 4)


def test_compose_block_order():
    # result(x) = outer(inner(X0), inner(X1)) with contiguous blocks
    pick0 = TruthTable.from_bits([0, 1, 0, 1])  # inner: returns x0 of its block
    and2 = AND2
    c = compose(and2, pick0)
    for x in range(16):
        b = [(x >> i) & 1 for i in range(4)]
        assert c.bit_at(x) == (b[0] & b[2])


def test_compose_capacity():
    with pytest.raises(CapacityError):
        compose(builtin("parity", 5), builtin("parity", 5))


def test_iterate_base_and_step():
    f = builtin("paper_f", 4)
    assert iterate(f, 1) == f
    assert iterate(f, 2) == compose(f, iterate(f, 1))


def test_iterate_capacity():
    with pytest.raises(CapacityError):
        iterate(builtin("paper_f", 4), 3)
    with pytest.raises(InputError):
        iterate(builtin("paper_f", 4), 0)


def _compose_reference(outer, inner):
    """compose in int64 index arithmetic: bit j of the outer index is inner on block j."""
    x = np.arange(1 << (outer.n * inner.n), dtype=np.int64)
    index = np.zeros_like(x)
    for j in range(outer.n):
        block = (x >> (j * inner.n)) & (inner.size - 1)
        index |= inner.bits()[block].astype(np.int64) << j
    return TruthTable.from_bit_array(outer.bits()[index])


def test_compose_and_iterate_match_int64_reference():
    tables = [builtin("maj", n) for n in (1, 3, 5, 7)] + [builtin("parity", n) for n in (1, 2, 4, 8, 16)]
    tables += [builtin("and", 2), builtin("or", 4), builtin("paper_f", 4), random_table(3, 9)]
    pairs = 0
    for outer in tables:
        for inner in tables:
            if outer.n * inner.n <= 16:
                assert compose(outer, inner) == _compose_reference(outer, inner), (outer, inner)
                pairs += 1
    assert pairs > 50
    for t, k in ((builtin("paper_f", 4), 2), (builtin("maj", 3), 2), (builtin("parity", 2), 4), (builtin("or", 4), 2)):
        expected = t
        for _ in range(k - 1):
            expected = _compose_reference(t, expected)
        assert iterate(t, k) == expected


def test_permute_variables_with_numpy_indices_at_the_cap():
    t = random_table(20, 8)
    perm = np.random.default_rng(3).permutation(20)
    x = np.arange(1 << 20, dtype=np.int64)
    src = np.zeros_like(x)
    for i, p_i in enumerate(perm.tolist()):
        src |= ((x >> p_i) & 1) << i
    assert permute_variables(t, perm) == TruthTable.from_bit_array(t.bits()[src])


def test_paper_f_matches_formula_substitution():
    # f(x) = x0 (x1 - x2)^2 + (1 - x0)(x2 - x3)^2, evaluated directly
    f = builtin("paper_f", 4)
    for x in range(16):
        x0, x1, x2, x3 = ((x >> i) & 1 for i in range(4))
        expected = x0 * (x1 - x2) ** 2 + (1 - x0) * (x2 - x3) ** 2
        assert f.bit_at(x) == expected
    assert f.bit_at((1, 0, 1, 0)) == 1
    assert f.bit_at((0, 1, 1, 1)) == 0


def test_builtin_parity2_bits():
    assert list(builtin("parity", 2).bits()) == [0, 1, 1, 0]


def test_builtin_majority():
    maj3 = builtin("majority", 3)
    for x in range(8):
        assert maj3.bit_at(x) == (1 if bin(x).count("1") >= 2 else 0)
    with pytest.raises(InputError):
        builtin("majority", 4)


def test_builtin_and_or():
    and3 = builtin("and", 3)
    or3 = builtin("or", 3)
    for x in range(8):
        assert and3.bit_at(x) == (1 if x == 7 else 0)
        assert or3.bit_at(x) == (0 if x == 0 else 1)


def test_builtins_match_pointwise_tabulation():
    refs = oracles.builtin_references()
    covered = {(name, n) for name, n, _ in refs}
    assert {("maj", n) for n in (1, 3, 5, 7, 9)} <= covered
    assert {("parity", n) for n in range(1, 11)} <= covered
    assert {name for name, _, _ in refs} == {"maj", "parity", "and", "or", "paper_f"}
    for name, n, ref in refs:
        assert builtin(name, n) == ref, f"{name}({n})"


def test_builtins_at_the_variable_cap():
    idx = np.random.default_rng(5).integers(0, 1 << 20, size=200)
    parity, maj = builtin("parity", 20), builtin("maj", 19)
    for x in idx.tolist():
        assert parity.bit_at(x) == bin(x).count("1") & 1
        assert maj.bit_at(x >> 1) == int(bin(x >> 1).count("1") >= 10)
    for name, n in (("parity", 21), ("maj", 21), ("and", 21), ("or", 21)):
        with pytest.raises(CapacityError):
            builtin(name, n)
    for name, n in (("parity", 0), ("maj", -1), ("and", -1), ("or", 0), ("maj", 0)):
        with pytest.raises(InputError):
            builtin(name, n)


def test_builtin_unknown():
    with pytest.raises(InputError):
        builtin("nand", 2)
    with pytest.raises(InputError):
        builtin("paper_f", 5)


def test_random_table_determinism():
    assert random_table(10, 99) == random_table(10, 99)
    assert random_table(10, 99) != random_table(10, 100)


def test_random_table_balance():
    for n in (8, 9, 10):
        t = random_table(n, 7)
        ones = int(t.bits().sum())
        assert abs(ones / t.size - 0.5) < 0.1


def test_serialization_round_trip(tmp_path):
    for n, seed in [(1, 0), (2, 1), (5, 2), (10, 3), (16, 4), (20, 5)]:
        t = random_table(n, seed)
        path = tmp_path / f"t{n}.json"
        write_table(t, path)
        assert read_table(path) == t


def test_serialization_and2_encoding(tmp_path):
    path = tmp_path / "and2.json"
    path.write_text('{"version":1,"n":2,"bits":"8"}')
    assert read_table(path) == AND2
    write_table(AND2, path)
    assert json.loads(path.read_text()) == {"version": 1, "n": 2, "bits": "8"}


def test_serialization_errors(tmp_path):
    cases = [
        '{"version":1,"n":2,"bits":"88"}',  # wrong length for n
        '{"version":1,"n":2,"bits":"g"}',  # non-hex
        '{"version":1,"n":2}',  # missing bits
        '{"version":2,"n":2,"bits":"8"}',  # wrong version
        '{"version":1,"n":1,"bits":"8"}',  # trailing bits of last nibble set
        "not json at all",
        # int(s, 16) takes each of these; only ASCII hex digits are admitted
        '{"version":1,"n":4,"bits":"0x1f"}',
        '{"version":1,"n":4,"bits":" 1ff"}',
        '{"version":1,"n":4,"bits":"+1ff"}',
        '{"version":1,"n":4,"bits":"1_ff"}',
        '{"version":1,"n":4,"bits":"\\u0663\\u0663\\u0663\\u0663"}',  # Arabic-Indic digits
    ]
    for i, text in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        with pytest.raises(InputError):
            read_table(path)


def test_complement_flips_all_bits():
    t = random_table(4, 12)
    c = complement(t)
    assert all(c.bit_at(x) == 1 - t.bit_at(x) for x in range(t.size))


def test_permute_variables():
    t = builtin("paper_f", 4)
    perm = [2, 0, 3, 1]
    p = permute_variables(t, perm)
    for x in range(16):
        b = [(x >> i) & 1 for i in range(4)]
        assert p.bit_at(x) == t.bit_at(tuple(b[perm[i]] for i in range(4)))
    with pytest.raises(InputError):
        permute_variables(t, [0, 1, 2, 2])


def test_bits_computed_once_per_table_and_read_only():
    t = random_table(10, 5)
    b = t.bits()
    assert t.bits() is b
    with pytest.raises(ValueError):
        b[0] = 1 - b[0]
    twin = TruthTable(t.n, t.packed)
    assert np.array_equal(twin.bits(), b)
    assert twin == t
