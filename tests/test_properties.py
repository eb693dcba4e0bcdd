"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Vocabulary, normalized_l1_distance
from repro.datagen import RandomVerilogDesignGenerator, RVDGConfig
from repro.nn import Tensor, log_softmax, segment_softmax, segment_sum
from repro.sim import Simulator, TestbenchConfig, generate_stimulus
from repro.sim import values as V
from repro.verilog import parse_module
from repro.verilog.printer import format_module

# ----------------------------------------------------------------------
# Value arithmetic
# ----------------------------------------------------------------------

widths = st.integers(min_value=1, max_value=64)


@given(st.integers(min_value=-(2**70), max_value=2**70), widths)
def test_truncate_is_idempotent_and_in_range(value, width):
    once = V.truncate(value, width)
    assert 0 <= once < (1 << width)
    assert V.truncate(once, width) == once


@given(st.integers(min_value=0, max_value=2**32), widths)
def test_set_then_get_bit_roundtrip(value, width):
    index = value % width
    for bit_value in (0, 1):
        updated = V.set_bit(value, index, bit_value)
        assert V.bit(updated, index) == bit_value


@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_reduce_xor_is_parity(value):
    assert V.reduce_xor(value, 16) == bin(value).count("1") % 2


# ----------------------------------------------------------------------
# Parser / printer round trip on generated designs
# ----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_rvdg_roundtrip_is_stable(seed):
    gen = RandomVerilogDesignGenerator(
        RVDGConfig(n_inputs=3, n_state=2, n_outputs=2, n_branches=2), seed=seed
    )
    source = gen.generate_source("d")
    printed = format_module(parse_module(source))
    assert format_module(parse_module(printed)) == printed


def _ingested_corpus_designs():
    """Every usable design ingested from the committed corpus."""
    import pathlib

    from repro.ingest import ingest_directory

    corpus_dir = pathlib.Path(__file__).resolve().parents[1] / "examples" / "corpus"
    corpus = ingest_directory(corpus_dir)
    return sorted(corpus.designs.values(), key=lambda d: d.name)


@pytest.mark.parametrize(
    "design", _ingested_corpus_designs(), ids=lambda d: d.name
)
def test_ingested_corpus_roundtrip_is_stable(design):
    """parse -> print -> parse is a fixed point on every real corpus file."""
    printed = format_module(parse_module(design.source))
    assert format_module(parse_module(printed)) == printed
    assert parse_module(printed).name == design.name


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_rvdg_simulation_is_deterministic(seed):
    gen = RandomVerilogDesignGenerator(seed=seed)
    module = gen.generate("d")
    stim = generate_stimulus(module, TestbenchConfig(n_cycles=8), seed=seed)
    t1 = Simulator(module).run(stim)
    t2 = Simulator(module).run(stim)
    assert t1.outputs == t2.outputs
    assert t1.executions == t2.executions


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_printed_design_simulates_identically(seed):
    """Pretty-printing must preserve semantics, not just syntax."""
    gen = RandomVerilogDesignGenerator(seed=seed)
    module = gen.generate("d")
    reparsed = parse_module(format_module(module))
    stim = generate_stimulus(module, TestbenchConfig(n_cycles=8), seed=seed)
    assert Simulator(module).run(stim, record=False).outputs == (
        Simulator(reparsed).run(stim, record=False).outputs
    )


# ----------------------------------------------------------------------
# Expression evaluation against a Python oracle
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.sampled_from(["&", "|", "^", "+", "-"]),
)
def test_evaluator_matches_python_oracle(a, b, op):
    module = parse_module(
        f"module t(y); reg [7:0] a, b; output [7:0] y;"
        f" assign y = a {op} b; endmodule"
    )
    from repro.sim.evaluator import Evaluator

    result = Evaluator(module).eval(module.assigns[0].rhs, {"a": a, "b": b})
    oracle = {
        "&": a & b,
        "|": a | b,
        "^": a ^ b,
        "+": (a + b) & 0xFF,
        "-": (a - b) & 0xFF,
    }[op]
    assert result == oracle


# ----------------------------------------------------------------------
# NN invariants
# ----------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=8),
)
def test_softmax_is_distribution(scores):
    out = np.exp(log_softmax(Tensor(np.array([scores]))).data)
    assert np.all(out >= 0)
    assert np.isclose(out.sum(), 1.0)


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
)
def test_segment_softmax_partitions(scores, n_segments):
    seg = np.array([i % n_segments for i in range(len(scores))])
    present = sorted(set(seg.tolist()))
    weights = segment_softmax(Tensor(np.array(scores)), seg, n_segments)
    sums = np.zeros(n_segments)
    np.add.at(sums, seg, weights.data)
    for segment in present:
        assert np.isclose(sums[segment], 1.0)


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=10),
)
def test_segment_sum_matches_numpy(data):
    seg = np.zeros(len(data), dtype=np.int64)
    out = segment_sum(Tensor(np.array(data).reshape(-1, 1)), seg, 1)
    assert np.isclose(out.data[0, 0], np.sum(data), atol=1e-6)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6
    ).filter(lambda w: sum(w) > 0)
)
def test_normalized_distance_bounds(weights):
    w = np.array(weights)
    w = w / w.sum()
    other = np.roll(w, 1)
    d = normalized_l1_distance(w, other)
    assert 0.0 <= d <= 1.0
    assert normalized_l1_distance(w, w) == 0.0


# ----------------------------------------------------------------------
# Vocabulary
# ----------------------------------------------------------------------


@given(st.lists(st.sampled_from(["And", "Or", "Not", "Lvalue"]), max_size=6))
def test_vocab_encode_decode_roundtrip(path):
    vocab = Vocabulary()
    ids = vocab.encode_path(tuple(path))
    assert [vocab.decode(i) for i in ids] == list(path)
