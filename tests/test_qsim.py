import math

import numpy as np
import pytest

from influence_lab import bounds, fourier, qsim
from influence_lab.errors import CapacityError, InputError
from influence_lab.oracles import displacement_direct, gap_check_direct
from influence_lab.qsim import (
    QUERY,
    Algorithm,
    FourierState,
    Permutation,
    RegisterLayout,
    Unitary,
    apply_query,
    apply_unitary,
    deutsch_parity,
    displacement_statistic,
    error_profile,
    gap_check,
    grover,
    initial_state,
    oracle_states,
    profile_state,
    reconstruct,
    run,
    serial_read,
    simulate_direct,
)
from influence_lab.truthtable import TruthTable, builtin, random_table

SQRT2 = math.sqrt(2.0)


def oracle_apply(layout: RegisterLayout, x: int, v: np.ndarray) -> np.ndarray:
    """Reference computational-basis query gate |i,a,w> -> |i, a xor x_i, w>."""
    out = np.zeros_like(v)
    for i in range(layout.n_index):
        for a in (0, 1):
            for w in range(layout.work_dim):
                src = layout.basis_index(i, a, w)
                dst = layout.basis_index(i, a ^ ((x >> i) & 1), w)
                out[dst] = v[src]
    return out


def random_state(layout: RegisterLayout, masks, seed: int) -> FourierState:
    """Unit-norm random coefficients at the given strictly ascending masks."""
    rng = np.random.default_rng(seed)
    state = initial_state(layout)
    coeffs = np.array([rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim) for _ in masks])
    state.masks = np.array(masks, dtype=np.int64)
    assert np.all(np.diff(state.masks) > 0)
    state.coeffs = coeffs / math.sqrt(np.vdot(coeffs, coeffs).real)
    state.queries_applied = max(bin(s).count("1") for s in masks)
    return state


def test_layout_dimensions():
    layout = RegisterLayout(4, 3)
    assert layout.dim == 24
    assert layout.basis_index(0, 0, 0) == 0
    assert layout.basis_index(3, 1, 2) == 23
    with pytest.raises(InputError):
        layout.basis_index(4, 0, 0)
    with pytest.raises(InputError):
        RegisterLayout(0, 1)


def test_initial_state():
    layout = RegisterLayout(3, 2)
    state = initial_state(layout)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert state.masks.tolist() == [0]
    assert state.queries_applied == 0
    for x in range(8):
        v = reconstruct(state, x)
        assert v[0] == 1.0 and np.allclose(v[1:], 0.0)


def test_apply_unitary_identity_and_support():
    layout = RegisterLayout(2, 1)
    state = random_state(layout, [0b01, 0b10], 1)
    masks, before = state.masks.copy(), state.coeffs.copy()
    apply_unitary(state, Unitary(np.eye(layout.dim, dtype=complex)))
    assert np.array_equal(state.masks, masks)
    assert np.allclose(state.coeffs, before)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-9)


def test_apply_unitary_matches_per_mask_product():
    layout = RegisterLayout(3, 2)
    rng = np.random.default_rng(4)
    shape = (layout.dim, layout.dim)
    real, _ = np.linalg.qr(rng.normal(size=shape))
    cplx, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    for m in (real, cplx):
        state = random_state(layout, [0b000, 0b011, 0b101], 6)
        expected = [m @ v for v in state.coeffs]
        apply_unitary(state, Unitary(m))
        for j, v in enumerate(expected):
            assert np.max(np.abs(state.coeffs[j] - v)) < 1e-12


def test_apply_unitary_rejects_non_unitary():
    layout = RegisterLayout(2, 1)
    state = initial_state(layout)
    bad = np.eye(layout.dim) * 1.001
    with pytest.raises(InputError):
        apply_unitary(state, Unitary(bad))
    with pytest.raises(InputError):
        apply_unitary(state, Unitary(np.eye(3)))


def test_unitary_validated_when_built():
    layout = RegisterLayout(2, 1)
    shear = np.eye(layout.dim)
    shear[0, 1] = 0.5
    with pytest.raises(InputError, match="not unitary"):
        Unitary(shear)
    with pytest.raises(InputError, match="square"):
        Unitary(np.ones((2, 3)))


def test_permutation_validated_when_built():
    for bad in ([0, 0, 2], [0, 1, 3], [[0, 1], [1, 0]], [0.0, 1.0]):
        with pytest.raises(InputError, match="bijection"):
            Permutation(np.array(bad))
    layout = RegisterLayout(2, 1)
    wrong_length = Permutation(np.arange(layout.dim + 1))
    with pytest.raises(InputError, match="dimension"):
        Algorithm(layout, (wrong_length,), frozenset())
    with pytest.raises(InputError, match="dimension"):
        apply_unitary(initial_state(layout), wrong_length)


def _dense(target: np.ndarray) -> np.ndarray:
    """Permutation matrix with P[target[b], b] = 1."""
    p = np.zeros((target.size, target.size))
    p[target, np.arange(target.size)] = 1.0
    return p


def test_permutation_matches_dense_route():
    rng = np.random.default_rng(8)
    for layout in (RegisterLayout(3, 1), RegisterLayout(6, 64)):  # dim 6 and 768
        dim = layout.dim
        target = rng.permutation(dim)
        p = _dense(target)
        state = random_state(layout, [0b000, 0b011, 0b101], 7)
        expected = state.coeffs @ p.T
        apply_unitary(state, Permutation(target))
        assert np.array_equal(state.coeffs, expected)
        alg = Algorithm(layout, (Permutation(target),), frozenset())
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        assert np.array_equal(simulate_direct(alg, 0), p @ v)


def test_serial_read_holds_no_dense_permutation_matrix():
    alg = serial_read(random_table(6, 21))
    classical = [s for s in alg.steps if not isinstance(s, qsim.Query)]
    assert all(isinstance(s, Permutation) for s in classical)
    assert sum(s.target.nbytes for s in classical) < 1 << 20


def test_serial_read_steps_depend_on_n_alone():
    a, b = serial_read(random_table(4, 3)), serial_read(random_table(4, 4))
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert type(sa) is type(sb)
        if isinstance(sa, Permutation):
            assert np.array_equal(sa.target, sb.target)
    assert a.accept != b.accept


def test_query_leaves_answer_plus_alone():
    layout = RegisterLayout(4, 1)
    state = initial_state(layout)
    # put the register in |i=2> (|0>+|1>)/sqrt(2): answer-plus, no kickback
    v = np.zeros(layout.dim, dtype=complex)
    v[layout.basis_index(2, 0, 0)] = 1 / SQRT2
    v[layout.basis_index(2, 1, 0)] = 1 / SQRT2
    state.coeffs = v[None, :]
    apply_query(state)
    assert state.masks.tolist() == [0]
    assert np.allclose(state.coeffs[0], v, atol=1e-12)
    assert state.queries_applied == 1


def test_query_pure_kickback_moves_mask():
    layout = RegisterLayout(4, 1)
    state = initial_state(layout)
    v = np.zeros(layout.dim, dtype=complex)
    v[layout.basis_index(3, 0, 0)] = 1 / SQRT2
    v[layout.basis_index(3, 1, 0)] = -1 / SQRT2  # answer-minus at index 3
    state.coeffs = v[None, :]
    apply_query(state)
    assert state.masks.tolist() == [0b1000]
    assert np.allclose(state.coeffs[0], v, atol=1e-12)


def test_query_matches_oracle_gate_on_random_states():
    cases = [(RegisterLayout(n, 2), sorted({0, 1, (1 << n) - 1 & 0b11}), n) for n in (2, 3, 4)]
    # many masks, some of them neighbours, so transported parts land on occupied masks
    many = sorted(np.random.default_rng(6).choice(64, 20, replace=False).tolist())
    cases.append((RegisterLayout(6, 3), many, 6))
    for layout, masks, seed in cases:
        n = layout.n_index
        state = random_state(layout, masks, seed=seed)
        before = {x: reconstruct(state, x) for x in range(1 << n)}
        apply_query(state)
        for x in range(1 << n):
            expected = oracle_apply(layout, x, before[x])
            assert np.max(np.abs(reconstruct(state, x) - expected)) < 1e-9


def test_support_grows_by_at_most_one_per_query():
    layout = RegisterLayout(3, 1)
    state = random_state(layout, [0b000, 0b011], 9)
    apply_query(state)
    assert all(
        min(bin(s ^ old).count("1") for old in (0b000, 0b011)) <= 1
        for s in state.masks.tolist()
    )


def test_algorithm_declared_queries_checked():
    layout = RegisterLayout(2, 1)
    assert Algorithm(layout, (QUERY, Unitary(np.eye(layout.dim)), QUERY), frozenset()).queries == 2
    with pytest.raises(InputError):
        Algorithm(layout, (Unitary(np.eye(3)),), frozenset())


def test_run_invariants_on_builtins():
    algs = [
        serial_read(random_table(3, 21)),
        deutsch_parity(4),
        grover(4, 1),
    ]
    for alg in algs:
        state = run(alg)
        assert state.queries_applied == alg.queries
        assert abs(state.norm_sq() - 1.0) < 1e-9
        assert state.max_weight() <= alg.queries
        assert len(state.support_history) == len(alg.steps) + 1


def test_support_history_pinned_and_masks_ascending():
    cases = [
        (grover(10, 3), [1, 1, 10, 10, 46, 46, 130, 130, 130, 386]),
        (deutsch_parity(12), [1, 1] + [2] * 12),
        (serial_read(random_table(6, 21)), [1, 2, 2, 2, 4, 4, 4, 8, 8, 8, 16, 16, 16, 32, 32, 32, 64, 64]),
    ]
    for alg, history in cases:
        assert run(alg).support_history == history
        state = initial_state(alg.layout)
        for step in alg.steps:
            if step is QUERY:
                apply_query(state)
            else:
                apply_unitary(state, step)
            assert np.all(np.diff(state.masks) > 0)
            assert state.coeffs.shape == (state.masks.size, alg.layout.dim)


def test_fourier_matches_direct_all_oracles():
    for n in (2, 3, 4):
        algs = [serial_read(random_table(n, 31 + n)), grover(n, 1)]
        if n % 2 == 0:
            algs.append(deutsch_parity(n))
        for alg in algs:
            state = run(alg)
            batched = oracle_states(state)
            for x in range(1 << n):
                gap = np.max(np.abs(reconstruct(state, x) - simulate_direct(alg, x)))
                assert gap < 1e-9
                assert np.max(np.abs(batched[x] - reconstruct(state, x))) < 1e-12


def _random_orthogonal(layout: RegisterLayout, rng) -> Unitary:
    return Unitary(np.linalg.qr(rng.normal(size=(layout.dim, layout.dim)))[0])


def test_real_runs_are_real_and_match_complex_runs_bit_for_bit():
    t5 = random_table(5, 44)
    cases = [(grover(6, 2), builtin("or", 6)), (deutsch_parity(8), builtin("parity", 8)), (serial_read(t5), t5)]
    # the builtins' amplitudes are mostly powers of 1/sqrt(2); random real steps reach every rounding case
    layout, rng = RegisterLayout(3, 2), np.random.default_rng(13)
    steps = (_random_orthogonal(layout, rng), QUERY, _random_orthogonal(layout, rng), QUERY)
    cases.append((Algorithm(layout, steps, frozenset(range(0, layout.dim, 2))), random_table(3, 13)))
    for alg, table in cases:
        real = run(alg)
        assert real.coeffs.dtype == np.float64
        cplx = initial_state(alg.layout)
        cplx.coeffs = cplx.coeffs.astype(np.complex128)
        for step in alg.steps:
            if step is QUERY:
                apply_query(cplx)
            else:
                apply_unitary(cplx, step)
        assert cplx.coeffs.dtype == np.complex128
        assert np.array_equal(real.masks, cplx.masks)
        assert np.all(cplx.coeffs.imag == 0.0)
        expected = profile_state(cplx, alg.accept, table).per_oracle
        assert profile_state(real, alg.accept, table).per_oracle.tobytes() == expected.tobytes()


def test_complex_step_runs_in_complex_arithmetic():
    # a phase between the queries makes the coefficients complex; every route must agree with the direct simulator
    layout = RegisterLayout(3, 2)
    rng = np.random.default_rng(12)
    phase = Unitary(np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, layout.dim))))
    accept = frozenset(range(0, layout.dim, 3))
    steps = (_random_orthogonal(layout, rng), QUERY, phase, QUERY, _random_orthogonal(layout, rng))
    alg = Algorithm(layout, steps, accept)
    table = random_table(3, 12)
    state = run(alg)
    assert state.coeffs.dtype == np.complex128
    direct = np.array([simulate_direct(alg, x) for x in range(8)])
    assert np.max(np.abs(oracle_states(state) - direct)) < 1e-12
    p1 = np.sum(np.abs(direct[:, sorted(accept)]) ** 2, axis=1)
    expected = np.where(table.bits() == 1, 1.0 - p1, p1)
    assert np.max(np.abs(profile_state(state, accept, table).per_oracle - expected)) < 1e-12
    bits = table.bits()
    gaps = [
        np.sum(np.abs(direct[x] - direct[y]) ** 2)
        for x in range(8)
        for y in range(x + 1, 8)
        if bits[x] != bits[y]
    ]
    report = gap_check(state, table, 0.01)
    assert report.pairs_checked == len(gaps)
    assert report.min_gap == pytest.approx(min(gaps), abs=1e-12)


def test_serial_read_exact_for_any_function():
    for n in (2, 3, 4):
        t = random_table(n, 17 + n)
        alg = serial_read(t)
        prof = error_profile(alg, t)
        assert alg.queries == n
        assert prof.worst < 1e-9


def test_serial_read_and2():
    and2 = TruthTable.from_bits([0, 0, 0, 1])
    alg = serial_read(and2)
    prof = error_profile(alg, and2)
    assert alg.queries == 2
    assert prof.worst < 1e-9


def test_profile_matches_per_oracle_loop(monkeypatch):
    # small blocks of float64 rows: 3 columns per block at n = 6, one per block at n = 8
    monkeypatch.setattr(qsim, "_BLOCK_BYTES", 3 * 8 * 64)
    calls = []

    def counted(state, columns=None):
        calls.append(len(columns))
        return oracle_states(state, columns)

    monkeypatch.setattr(qsim, "oracle_states", counted)
    t6 = random_table(6, 8)
    for alg, t in ((serial_read(t6), t6), (grover(8, 2), builtin("or", 8))):
        state = run(alg)
        accept = sorted(alg.accept)
        calls.clear()
        prof = profile_state(state, alg.accept, t)
        assert len(calls) > 1 and sum(calls) == len(accept)
        for x in range(1 << t.n):
            p1 = float(np.sum(np.abs(reconstruct(state, x)[accept]) ** 2))
            expected = 1.0 - p1 if t.bit_at(x) else p1
            assert abs(prof.per_oracle[x] - expected) < 1e-12


def test_serial_read_capacity():
    with pytest.raises(CapacityError):
        serial_read(random_table(7, 0))


def test_deutsch_parity_exact_at_half_queries():
    for n in (2, 4, 6):
        alg = deutsch_parity(n)
        prof = error_profile(alg, builtin("parity", n))
        assert alg.queries == n // 2
        assert prof.worst < 1e-9
        # tight against the influence bound at eps = 0
        assert alg.queries == bounds.query_lb_influence(1.0, n, 0.0).value
    with pytest.raises(InputError):
        deutsch_parity(3)


def test_grover_single_marked_success():
    alg = grover(4, 1)
    prof = error_profile(alg, builtin("or", 4))
    assert alg.queries == 2
    assert prof.per_oracle[0] < 1e-9
    for i in range(4):
        assert prof.per_oracle[1 << i] < 1e-9  # sin^2(3 pi / 6) = 1


def test_error_profile_layout_mismatch():
    with pytest.raises(InputError):
        error_profile(deutsch_parity(4), builtin("parity", 6))


def test_displacement_statistic_init_zero():
    assert displacement_statistic(initial_state(RegisterLayout(4, 1)), 1) == 0.0


def test_displacement_statistic_half_weight():
    layout = RegisterLayout(4, 1)
    state = random_state(layout, [0b0011, 0b1100], 5)
    assert displacement_statistic(state, 1) == pytest.approx(2.0, abs=1e-9)


def test_displacement_matches_enumeration():
    for n in (2, 3):
        t = random_table(n, 70 + n)
        state = run(serial_read(t))
        for k in (1, 3):
            assert displacement_statistic(state, k) == pytest.approx(
                displacement_direct(state, k), abs=1e-9
            )
    with pytest.raises(InputError):
        displacement_statistic(state, 2)


def test_displacement_sandwich_on_runs():
    for n in (2, 4):
        t = random_table(n, 90 + n)
        alg = serial_read(t)
        state = run(alg)
        prof = profile_state(state, alg.accept, t)
        weights = fourier.wht(t).weight_profile()
        for k in (1, 3):
            e_val = displacement_statistic(state, k)
            lo = bounds.displacement_lower_bound(weights, prof.worst, k)
            hi = bounds.displacement_upper_bound(alg.queries, n, k)
            assert lo - 1e-9 <= e_val <= hi + 1e-9


def test_gap_check_exact_algorithm():
    alg = deutsch_parity(4)
    state = run(alg)
    report = gap_check(state, builtin("parity", 4), 0.0)
    assert report.min_gap >= 2 - 1e-6
    assert not report.violated


def test_gap_check_no_pairs_for_constant():
    state = run(serial_read(TruthTable(3, 0)))
    report = gap_check(state, TruthTable(3, 0), 0.0)
    assert report.min_gap is None
    assert report.pairs_checked == 0
    assert not report.violated


def test_gap_check_serial_no_violations():
    for n in (3, 4, 5):
        t = random_table(n, 110 + n)
        state = run(serial_read(t))
        assert not gap_check(state, t, 0.0).violated


def test_gap_check_matches_pairwise_reference():
    for n in range(3, 6):
        t = random_table(n, 130 + n)
        runs = [(serial_read(t), t)] + [(grover(n, it), builtin("or", n)) for it in (1, 0)]
        for alg, table in runs:
            state = run(alg)
            for eps in (0.0, 0.1):
                fast = gap_check(state, table, eps)
                slow = gap_check_direct(state, table, eps)
                assert fast.pairs_checked == slow.pairs_checked
                assert fast.violated == slow.violated
                assert fast.threshold == slow.threshold
                assert abs(fast.min_gap - slow.min_gap) < 1e-12


def test_gap_check_capacity():
    t = random_table(6, 2)
    state = run(serial_read(t))
    with pytest.raises(CapacityError):
        gap_check(state, t, 0.0)
