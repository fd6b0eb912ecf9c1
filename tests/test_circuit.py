"""Circuit IR, builder primitives, evaluation, and the text writer."""

import ast
import errno
import hashlib
import io
import pathlib
import random

import numpy as np
import pytest
from reference import bits_to_int, int_to_bits

from depletion import circuit as C
from depletion import compiler as CP
from depletion.bits import ints_to_rows, rows_to_bits


def fragment(widths, block):
    """One operand per input party, in order; `block(builder, *operands)`
    returns the output wires."""
    b = C.CircuitBuilder()
    return b.finish(block(b, *(b.input_vector(i, w) for i, w in enumerate(widths))))


def less_than(sigma):
    return fragment((sigma, sigma), lambda b, x, y: [b.lt(x, y)])


def equality(sigma):
    return fragment((sigma, sigma), lambda b, x, y: [b.eq(x, y)])


def naive_eval(circ, inputs):
    """Independent recursive evaluator used as the oracle."""
    wire_of = {}
    for party, wires in circ.input_map.items():
        for w, bit in zip(wires, inputs[party]):
            wire_of[w] = int(bit)
    first = 1 + circ.n_input_wires  # gate g drives wire first + g

    def value(w):
        if w == circ.const_one:
            return 1
        if w in wire_of:
            return wire_of[w]
        g = w - first
        a, b = value(int(circ.in_a[g])), value(int(circ.in_b[g]))
        wire_of[w] = (a & b) if circ.kind[g] == C.AND else (a ^ b)
        return wire_of[w]

    return [value(w) for w in circ.output_wires]


def test_single_gates():
    b = C.CircuitBuilder()
    x = b.input_vector(0, 2)
    circ = b.finish([b.xor_v(x[0], x[1])])
    assert circ.evaluate({0: [1, 1]}).tolist() == [0]
    assert circ.evaluate({0: [1, 0]}).tolist() == [1]

    b = C.CircuitBuilder()
    x = b.input_vector(0, 2)
    circ = b.finish([b.and_v(x[0], x[1])])
    assert circ.evaluate({0: [1, 1]}).tolist() == [1]
    assert circ.evaluate({0: [0, 1]}).tolist() == [0]


def test_not_via_constant_one():
    b = C.CircuitBuilder()
    x = b.input_vector(0, 1)
    circ = b.finish([b.not_(x[0])])
    assert circ.evaluate({0: [0]}).tolist() == [1]
    assert circ.evaluate({0: [1]}).tolist() == [0]
    counts = circ.gate_counts()
    assert counts.and_count == 0 and counts.xor_count == 1


def test_random_circuits_match_naive_evaluator():
    rng = random.Random(7)
    for _ in range(30):
        b = C.CircuitBuilder()
        wires = [b.one]
        for party in range(2):
            wires += b.input_vector(party, rng.randint(1, 4))
        for _ in range(50):
            op = rng.choice([b.xor_v, b.and_v])
            wires.append(op(rng.choice(wires), rng.choice(wires)))
        outputs = rng.sample(wires, k=min(5, len(wires)))
        circ = b.finish(outputs)
        inputs = {
            p: [rng.randint(0, 1) for _ in circ.input_map[p]]
            for p in circ.input_map
        }
        got = circ.evaluate(inputs).tolist()
        assert got == naive_eval(circ, inputs)


def test_batched_evaluation_matches_single():
    rng = random.Random(3)
    b = C.CircuitBuilder()
    x = b.input_vector(0, 4)
    y = b.input_vector(1, 4)
    circ = b.finish([b.lt(x, y), b.eq(x, y)])
    singles = []
    xs = np.array([[rng.randint(0, 1) for _ in range(16)] for _ in range(4)], dtype=np.uint8)
    ys = np.array([[rng.randint(0, 1) for _ in range(16)] for _ in range(4)], dtype=np.uint8)
    for k in range(16):
        singles.append(circ.evaluate({0: xs[:, k], 1: ys[:, k]}).tolist())
    batched = circ.evaluate({0: xs, 1: ys})
    assert batched.T.tolist() == singles


def test_less_than_exhaustive_sigma4():
    circ = less_than(4)
    a = rows_to_bits(ints_to_rows([x for x in range(16) for _ in range(16)], 4), 4).T
    bb = rows_to_bits(ints_to_rows([y for _ in range(16) for y in range(16)], 4), 4).T
    got = circ.evaluate({0: a, 1: bb})[0]
    expect = [1 if x < y else 0 for x in range(16) for y in range(16)]
    assert got.tolist() == expect


def test_less_than_examples_and_bounds():
    circ = less_than(4)
    assert circ.evaluate({0: int_to_bits(2, 4), 1: int_to_bits(5, 4)}).tolist() == [1]
    assert circ.evaluate({0: int_to_bits(9, 4), 1: int_to_bits(9, 4)}).tolist() == [0]
    assert less_than(8).gate_counts().and_count <= 8


def test_equality_exhaustive_sigma3():
    circ = equality(3)
    a = rows_to_bits(ints_to_rows([x for x in range(8) for _ in range(8)], 3), 3).T
    bb = rows_to_bits(ints_to_rows([y for _ in range(8) for y in range(8)], 3), 3).T
    got = circ.evaluate({0: a, 1: bb})[0]
    expect = [1 if x == y else 0 for x in range(8) for y in range(8)]
    assert got.tolist() == expect


def test_equality_examples_and_counts():
    circ = equality(8)
    a, b = int_to_bits(0x5A, 8), int_to_bits(0x5A, 8)
    assert circ.evaluate({0: a, 1: b}).tolist() == [1]
    assert circ.evaluate({0: a, 1: int_to_bits(0x5B, 8)}).tolist() == [0]
    assert circ.gate_counts().and_count == 7


def test_mux_exhaustive_width2():
    circ = fragment((1, 2, 2), lambda b, s, x0, x1: b.mux(s[0], x0, x1))
    cases = [
        (s, x0, x1)
        for s in range(2)
        for x0 in range(4)
        for x1 in range(4)
    ]
    sel = np.array([[s for s, _, _ in cases]], dtype=np.uint8)
    x0s = rows_to_bits(ints_to_rows([x0 for _, x0, _ in cases], 2), 2).T
    x1s = rows_to_bits(ints_to_rows([x1 for _, _, x1 in cases], 2), 2).T
    got = circ.evaluate({0: sel, 1: x0s, 2: x1s})
    for k, (s, x0, x1) in enumerate(cases):
        assert bits_to_int(got[:, k]) == (x1 if s else x0)
    assert circ.gate_counts().and_count == 2


def test_cond_swap_exhaustive_width2():
    circ = fragment((1, 2, 2), lambda b, c, x, y: [w for out in b.cond_swap(c[0], x, y) for w in out])
    cases = [(c, a, b) for c in range(2) for a in range(4) for b in range(4)]
    ctl = np.array([[c for c, _, _ in cases]], dtype=np.uint8)
    av = rows_to_bits(ints_to_rows([a for _, a, _ in cases], 2), 2).T
    bv = rows_to_bits(ints_to_rows([b for _, _, b in cases], 2), 2).T
    got = circ.evaluate({0: ctl, 1: av, 2: bv})
    for k, (c, a, b) in enumerate(cases):
        out_a = bits_to_int(got[:2, k])
        out_b = bits_to_int(got[2:, k])
        assert (out_a, out_b) == ((b, a) if c else (a, b))
    assert circ.gate_counts().and_count == 2


def test_gate_counts_empty_circuit():
    b = C.CircuitBuilder()
    w = b.input_vector(0, 1)
    counts = b.finish(w).gate_counts()
    assert (counts.and_count, counts.xor_count, counts.depth_and) == (0, 0, 0)


def test_and_depth():
    b = C.CircuitBuilder()
    x = b.input_vector(0, 3)
    chain = b.and_v(b.and_v(x[0], x[1]), x[2])
    parallel = b.and_v(x[0], x[2])
    circ = b.finish([chain, b.xor_v(parallel, chain)])
    assert circ.gate_counts().depth_and == 2


def test_missing_and_mismatched_inputs():
    b = C.CircuitBuilder()
    x = b.input_vector(0, 2)
    y = b.input_vector(1, 2)
    circ = b.finish([b.xor_v(x[0], y[1])])
    with pytest.raises(C.MissingInput):
        circ.evaluate({0: [0, 1]})
    with pytest.raises(C.WidthMismatch):
        circ.evaluate({0: [0, 1, 1], 1: [0, 1]})


def test_inputs_must_precede_gates():
    b = C.CircuitBuilder()
    x = b.input_vector(0, 2)
    b.xor_v(x[0], x[1])
    with pytest.raises(C.CircuitError):
        b.input_vector(1, 1)


def test_input_count_must_not_be_negative():
    b = C.CircuitBuilder()
    with pytest.raises(C.CircuitError):
        b.input_vector(0, -2)
    # the refused call moved no counter: wire 0 stays the constant
    assert b.input_vector(1, 3) == [1, 2, 3]


@pytest.mark.parametrize("out", [5, -1])
def test_finish_refuses_an_undriven_output(out):
    b = C.CircuitBuilder()
    x = b.input_vector(0, 2)
    b.and_v(b.xor_v(x[0], x[1]), x[1])  # wires 0-4 are driven
    with pytest.raises(C.CircuitError):
        b.finish([out])
    assert b.finish([4]).output_wires == [4]


@pytest.mark.parametrize("error", [OSError(errno.ENOMEM, "Cannot allocate memory"), MemoryError()],
                         ids=["ENOMEM", "MemoryError"])
def test_a_buffer_that_cannot_grow_is_a_circuit_error(error, monkeypatch):
    b = C.CircuitBuilder()
    x = b.input_vector(0, 1000)  # 1 001 wires: the 1 024-wire buffers hold them

    def refuse(mm, dtype, size):
        raise error

    monkeypatch.setattr(C, "_grown", refuse)
    with pytest.raises(C.CircuitError, match="builder's _level buffer to 6144 bytes") as exc:
        b.input_vector(1, 100)  # 1 101 wires: grow by half, to 1 536 int32
    assert exc.value.__cause__ is error
    monkeypatch.undo()
    # the refused call left the builder as it was
    y = b.input_vector(1, 100)
    assert y[0] == 1001
    circ = b.finish([b.and_v(x[0], y[0])])
    assert circ.evaluate({0: [1] * 1000, 1: [1] * 100}).tolist() == [1]


FINISHED_USES = {
    "finish": lambda b, x: b.finish(x),
    "xor_v": lambda b, x: b.xor_v(x[0], x[1]),
    "and_v": lambda b, x: b.and_v(x, x),
    "lt": lambda b, x: b.lt(x, x),
    "input_vector": lambda b, x: b.input_vector(1, 1),
}


@pytest.mark.parametrize("use", FINISHED_USES.values(), ids=FINISHED_USES.keys())
@pytest.mark.parametrize("gates", [False, True])
def test_a_finished_builder_refuses_further_use(use, gates):
    b = C.CircuitBuilder()
    x = b.input_vector(0, 2)
    b.finish([b.xor_v(x[0], x[1])] if gates else x)
    with pytest.raises(C.CircuitError):
        use(b, x)


def test_only_the_builder_makes_circuits():
    """`BooleanCircuit` stores what it is given unchecked, so its one
    constructor call in the package stays in `CircuitBuilder.finish`,
    behind the builder's checks."""

    def calls(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "BooleanCircuit":
                    yield scope
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            yield from calls(child, f"{scope}.{child.name}" if named else scope)

    package = pathlib.Path(C.__file__).parent
    found = [site for path in sorted(package.glob("*.py"))
             for site in calls(ast.parse(path.read_text()), path.stem)]
    assert found == ["circuit.CircuitBuilder.finish"]


# SHA-256 of what `save_circuit_text(compile_circuit(cfg).circuit, out)`
# writes: the files `depletion compile --out` writes must stay byte-identical.
# Re-recorded when the Shuffle came to permute the N*u selected keys before
# each was output twice, and when a record came to carry one key k, with
# DupSelect XORing its select bit into every bit of k (SortCheck's gates
# stayed as recorded, apart from wire numbers).
WRITER_DIGESTS = [
    (CP.CircuitConfig(5, 3, 8, CP.VariantSpec("fixed-plus-m", 2, (0, 1))),
     "85e396cb96f7ac3bbe63aa13bf7ec602db56b543b602a4bd021b08b32a4c0905"),
    (CP.CircuitConfig(2, 4, 16), "271b8cc9ec8585de0853dd41ff6715e998a8bb89e4d9952b012cf4ba8ddd8335"),
]


@pytest.mark.parametrize("chunk", [7, C._TEXT_CHUNK])
# fixed ids, so that a re-recorded digest keeps the test's name
@pytest.mark.parametrize("cfg, digest", WRITER_DIGESTS, ids=["fixed-plus-m-n5-u3", "n2-u4"])
def test_text_writer_output_is_pinned(cfg, digest, chunk, monkeypatch):
    monkeypatch.setattr(C, "_TEXT_CHUNK", chunk)  # 7 splits the gate lines into many chunks
    out = io.StringIO()
    C.save_circuit_text(CP.compile_circuit(cfg).circuit, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
def test_counting_builder_matches_materialized(width):
    def run(make):
        ops = []

        def record(name):
            b = make()
            x = [b.input_vector(0, width) for _ in range(2)]
            sel = b.input_vector(1, 1)[0]
            if name == "lt":
                b.lt(x[0], x[1])
            elif name == "lt_layer":
                # (2, 3) instances: one operand broadcast from a single row
                rows = np.array([[x[0], x[1], x[0]], [x[1], x[1], x[0]]])
                b.lt(rows, np.array(x[1])[None, None])
            elif name == "eq":
                b.eq(x[0], x[1])
            elif name == "eq_const":
                b.eq_const(x[0], (1 << width) - 2 if width > 1 else 1)
            elif name == "mux":
                b.mux(sel, x[0], x[1])
            elif name == "cond_swap":
                b.cond_swap(sel, x[0], x[1])
            elif name == "or":
                b.or_(x[0][0], x[1][0])
            elif name == "or_fold":
                C.pairwise(b.or_, x[0])
            elif name == "and_fold":
                C.pairwise(b.and_v, x[0])
            ops.append((name, b.and_count, b.xor_count))

        for name in ["lt", "lt_layer", "eq", "eq_const", "mux", "cond_swap", "or", "or_fold", "and_fold"]:
            record(name)
        return ops

    assert run(C.CircuitBuilder) == run(C.CountingBuilder)
