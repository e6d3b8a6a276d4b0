import random
import tracemalloc

import pytest

from influence_lab import oracles
from influence_lab.dsl import Node, elaborate, parse
from influence_lab.errors import CapacityError, InputError, ParseError
from influence_lab.truthtable import builtin, compose, iterate, random_table


def test_parse_xor_shape():
    ast = parse("x0 ^ x1")
    assert ast.kind == "xor"
    assert [c.kind for c in ast.children] == ["var", "var"]
    assert [c.value for c in ast.children] == [0, 1]


def test_parse_precedence():
    ast = parse("!(x0 & x1) | x2")
    assert ast.kind == "or"
    left, right = ast.children
    assert left.kind == "not"
    assert left.children[0].kind == "and"
    assert right == Node("var", 2, ())


def test_parse_precedence_chain():
    # ! > & > ^ > |
    ast = parse("x0 | x1 ^ x2 & !x3")
    assert ast.kind == "or"
    assert ast.children[1].kind == "xor"
    assert ast.children[1].children[1].kind == "and"
    assert ast.children[1].children[1].children[1].kind == "not"


def test_parse_associativity():
    x0, x1, x2 = (Node("var", i, ()) for i in range(3))
    assert parse("x0 ^ x1 ^ x2") == Node("xor", None, (Node("xor", None, (x0, x1)), x2))
    assert parse("x0 ^ (x1 ^ x2)") == Node("xor", None, (x0, Node("xor", None, (x1, x2))))


def test_parse_error_missing_operand():
    with pytest.raises(ParseError) as info:
        parse("x0 ^^ x1")
    assert info.value.offset == 3
    assert info.value.line == 1
    assert info.value.column == 4
    assert info.value.expected


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse("x0 @ x1")
    assert info.value.offset == 3
    with pytest.raises(ParseError) as info:
        parse("x0 x1")
    assert info.value.offset == 3
    with pytest.raises(ParseError):
        parse("(x0 & x1")
    with pytest.raises(ParseError):
        parse("")


def test_elaborate_parity2():
    assert list(elaborate("x0 ^ x1").bits()) == [0, 1, 1, 0]


def test_elaborate_paper_f():
    assert elaborate("paper_f") == builtin("paper_f", 4)


def test_elaborate_iterate_paper_f():
    assert elaborate("iterate(paper_f, 2)") == iterate(builtin("paper_f", 4), 2)


def test_elaborate_literals():
    assert elaborate("parity(8)") == builtin("parity", 8)
    assert elaborate("maj(5)") == builtin("majority", 5)
    assert elaborate("compose(parity(2), parity(2))") == compose(
        builtin("parity", 2), builtin("parity", 2)
    )


def test_elaborate_pointwise_calls():
    assert elaborate("maj(x0, x1, x2)") == builtin("majority", 3)
    assert elaborate("and(x0, x1, x2)") == builtin("and", 3)
    assert elaborate("paper_f(x0, x1, x2, x3)") == builtin("paper_f", 4)
    # substitution, not block composition
    t = elaborate("or(x0 & x1, x2)")
    for x in range(8):
        b = [(x >> i) & 1 for i in range(3)]
        assert t.bit_at(x) == ((b[0] & b[1]) | b[2])


def test_elaborate_constants():
    zero = elaborate("0")
    one = elaborate("1")
    assert zero.n == 1 and list(zero.bits()) == [0, 0]
    assert one.n == 1 and list(one.bits()) == [1, 1]


@pytest.mark.parametrize(
    "source, n, reference",
    [
        ("!x0 ^ (x1 & 1) | 0", 2, lambda x: (1 - x[0]) ^ (x[1] & 1) | 0),
        ("!(0 | 1) ^ !0", 1, lambda x: 1),
        ("!(1 & !0)", 1, lambda x: 0),
        # arity 11 and 10: the packed argument index runs past 255
        ("maj(x0, !x1, x2, x3, x4, x5, x6, x7, x8, x9, 1)", 10, lambda x: int(sum(x) - 2 * x[1] + 2 > 5)),
        ("parity(x0, x1, x2, x3, x4, x5, x6, x7, x8, !x9)", 10, lambda x: (sum(x) + 1) & 1),
        (
            "maj(parity(x0, x1, x2), x3 & !x4, or(0, x5), 1, 0)",
            6,
            lambda x: int((x[0] ^ x[1] ^ x[2]) + (x[3] & (1 - x[4])) + x[5] + 1 > 2),
        ),
    ],
)
def test_elaborate_matches_pointwise_reference(source, n, reference):
    assert elaborate(source) == oracles.tabulate(n, reference)


def _random_formula(rng, n):
    """A formula mentioning each of x0..x{n-1}, with extra variables, constants and negations.

    Each call of a pointwise builtin takes a contiguous run of the leaves as its
    arguments: maj an odd count, paper_f four, the others any count.
    """
    leaves = [f"x{v}" for v in range(n)] + [rng.choice([f"x{rng.randrange(n)}", "0", "1"]) for _ in range(n)]
    rng.shuffle(leaves)

    def grow(part):
        if len(part) == 1:
            text = part[0]
        else:
            kinds = ["&", "^", "|", "parity", "and", "or"] + ["maj"] * (len(part) % 2) + ["paper_f"] * (len(part) >= 4)
            kind = rng.choice(kinds)
            if kind in "&^|":
                cut = rng.randrange(1, len(part))
                text = f"({grow(part[:cut])} {kind} {grow(part[cut:])})"
            else:
                arity = 4 if kind == "paper_f" else rng.choice([k for k in range(1, len(part) + 1) if kind != "maj" or k % 2])
                cuts = sorted(rng.sample(range(1, len(part)), arity - 1)) if arity > 1 else []
                args = [part[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(part)])]
                text = f"{kind}({', '.join(grow(a) for a in args)})"
        return f"!{text}" if rng.random() < 0.3 else text

    return grow(leaves)


def test_elaborate_matches_per_input_walk_on_random_formulas():
    rng = random.Random(2611)
    for n in range(1, 10):
        for _ in range(25):
            source = _random_formula(rng, n)
            node = parse(source)
            assert elaborate(source) == oracles.tabulate(n, lambda x: oracles.formula_value(node, x)), source


def test_elaborate_builds_each_column_where_a_leaf_reads_it():
    # a 20-leaf formula over 20 variables, the shape of the wide analyze input:
    # holding all 20 uint8 columns for the whole walk peaked at 35 MiB, building
    # each where it is read at 6.0 MiB; as 128 KiB word arrays it is 1.4 MiB
    leaves = [f"!x{v}" if v % 3 == 0 else f"x{v}" for v in range(20)]
    source = (
        "(maj({0}, {1}, {2}) ^ ({3} & {4}) ^ ({5} | {6} | {7}))"
        " | (({8} ^ {9}) & maj({10}, {11} & {12}, {13}))"
        " | ({14} & {15} & !({16} ^ {17}))"
        " | parity({18}, {19})"
    ).format(*leaves)
    tracemalloc.start()
    try:
        t = elaborate(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n == 20
    assert peak <= 2 << 20


def test_elaborate_errors():
    with pytest.raises(InputError, match="missing x1"):
        elaborate("x0 & x2")
    with pytest.raises(InputError, match="unknown builtin"):
        elaborate("frob(2)")
    with pytest.raises(InputError, match="unknown builtin 'foo'"):
        elaborate("x0 & foo(x1)")  # inside a formula
    with pytest.raises(InputError, match="function-valued"):
        elaborate("x0 ^ parity(4)")
    with pytest.raises(InputError, match="function-valued"):
        elaborate("x0 ^ compose(parity(2), parity(2))")
    with pytest.raises(InputError):
        elaborate("compose(parity(2))")
    with pytest.raises(InputError):
        elaborate("iterate(paper_f, x0)")
    with pytest.raises(InputError, match="only valid as a builtin argument"):
        elaborate("x0 ^ 2")
    with pytest.raises(InputError):
        elaborate("maj(x0, x1)")  # even arity majority
    with pytest.raises(InputError):
        elaborate("parity")  # bare name without an arity
    with pytest.raises(CapacityError):
        elaborate("parity(21)")
    with pytest.raises(CapacityError):
        elaborate("iterate(paper_f, 3)")


def render_minterms(t) -> str:
    """XOR of t's minterms; each mentions every variable, so x0..x{n-1} are all present."""
    terms = [
        " & ".join(f"x{i}" if (x >> i) & 1 else f"!x{i}" for i in range(t.n))
        for x in range(t.size)
        if t.bit_at(x)
    ]
    return " ^ ".join(f"({term})" for term in terms)


def test_minterm_rendering_round_trip():
    for n in (1, 2, 3, 4):
        for seed in range(6):
            t = random_table(n, 4000 + 10 * n + seed)
            if t.packed == 0:
                continue
            assert elaborate(render_minterms(t)) == t
