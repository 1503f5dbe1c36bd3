"""LZW compressibility, normalization, and Lyapunov exponents."""

import math
import tracemalloc
from pathlib import Path
from statistics import linear_regression

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    lzw_compress,
    lzw_compress_bits,
    lzw_decompress,
    lyapunov_mean,
    naive_step_bits,
    scalar_compressibility,
    scalar_normalization_constant,
    serialize_trajectory,
)
from oee_ca.complexity import (
    COUNT_LENGTHS,
    EXTINCT,
    NORM_MAX_WIDTH,
    compressibility,
    fit_exponent,
    lyapunov,
    lzw_phrase_bound,
    lzw_phrase_count,
    lzw_size_bits,
    normalization_constant,
    serialize_states,
    state_rows,
    substring_counts,
)
from oee_ca.variants import (
    TABLE_BUDGET,
    Variant,
    VariantConfig,
    _sorted_pairs,
    execution_rng,
    fixed_rule_run,
    fixed_rule_runs,
    integers_rows,
    run_trajectory,
)


# --- serialization ----------------------------------------------------------

def test_serialize_examples():
    assert serialize_trajectory([0b01, 0b10], 2) == "0110"
    assert serialize_trajectory([0], 4) == "0000"


@given(st.integers(3, 8), st.integers(1, 6), st.data())
def test_serialize_length(width, steps, data):
    states = [data.draw(st.integers(0, (1 << width) - 1)) for _ in range(steps)]
    assert len(serialize_trajectory(states, width)) == width * steps


def test_serialize_empty_rejected():
    with pytest.raises(ValueError):
        serialize_trajectory([], 4)
    with pytest.raises(ValueError):
        serialize_states([], 4)


def test_serialize_states_rejects_more_than_64_cells():
    with pytest.raises(ValueError, match="64 cells"):
        serialize_states([1], 65)


TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([*range(3, 18), 40, 64]), st.data())
def test_serialize_states_matches_oracle(width, data):
    """Rows from the table (up to 16 cells) or unpacked with numpy (17 and
    more) equal the ``format`` serialization as 0/1 bytes."""
    states = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=20))
    want = serialize_trajectory(states, width)
    assert serialize_states(states, width) == want.encode().translate(TO_BITS)


def test_state_rows_chosen_by_budget():
    """A table of 0/1 rows while its cells fit the budget: 16 cells, not 17."""
    assert 16 << 16 <= TABLE_BUDGET < 17 << 17
    assert isinstance(state_rows(16), list)
    assert state_rows(17) is None


# --- LZW --------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**5))
def test_lzw_size_bits_closed_form(m):
    assert lzw_size_bits(m) == sum(j.bit_length() for j in range(1, m + 1))


@given(st.integers(0, 2**200))
def test_lzw_size_bits_large(m):
    """Against the sum grouped by bit length: L-bit codes j run from
    2**(L-1) to min(m, 2**L - 1)."""
    want = sum(n * (min(m, (1 << n) - 1) - (1 << (n - 1)) + 1)
               for n in range(1, m.bit_length() + 1))
    assert lzw_size_bits(m) == want


def test_lzw_single_symbol_costs_one_bit():
    assert lzw_compress_bits("0") == 1


def test_lzw_empty_rejected():
    with pytest.raises(ValueError):
        lzw_compress_bits("")
    with pytest.raises(ValueError):
        lzw_phrase_count(b"")


def test_lzw_non_binary_rejected():
    with pytest.raises(ValueError):
        lzw_compress_bits("0120")


def test_lzw_repetition_beats_random():
    rng = execution_rng(3)
    random_s = "".join(str(int(b)) for b in rng.integers(0, 2, 4096))
    assert lzw_compress_bits("0" * 4096) < lzw_compress_bits(random_s)


def test_lzw_deterministic():
    s = "0110100110010110" * 8
    assert lzw_compress(s) == lzw_compress(s)


@given(st.text(alphabet="01", min_size=1, max_size=400))
def test_lzw_round_trip(s):
    assert lzw_decompress(lzw_compress(s)) == s


def test_lzw_code_width_accounting():
    # "0" emits one code while the dictionary holds {0, 1}: 1 bit; after the
    # first emission the dictionary grows, so widths are non-decreasing.
    codes = lzw_compress("000111000111")
    widths = [w for _, w in codes]
    assert widths == sorted(widths)
    assert widths[0] == 1
    assert sum(widths) == lzw_compress_bits("000111000111")


def test_lzw_bad_code_rejected():
    with pytest.raises(ValueError):
        lzw_decompress([(9, 4)])


def _oracle_bits(s: str) -> int:
    return sum(width for _, width in lzw_compress(s))


@given(st.text(alphabet="01", min_size=1, max_size=600))
def test_lzw_size_matches_oracle_random(s):
    assert lzw_compress_bits(s) == _oracle_bits(s)


@pytest.mark.parametrize("density", [0.5, 0.1, 0.01])
def test_lzw_phrase_count_grows_its_trie(density):
    """From 2047 symbols on the trie list starts at 4096 entries and grows
    as the phrases need: the count still equals the oracle's."""
    rng = execution_rng(7)
    for n in (2047, 2048, 5000, 40_000):
        bits = (rng.random(n) < density).astype(np.uint8).tobytes()
        assert lzw_phrase_count(bits) == len(lzw_compress("".join(map(str, bits))))


@given(st.text(alphabet="01", min_size=1, max_size=24), st.integers(1, 60))
def test_lzw_size_matches_oracle_periodic(period, k):
    s = period * k
    assert lzw_compress_bits(s) == _oracle_bits(s)


@given(st.sampled_from("01"), st.integers(1, 3000))
def test_lzw_size_matches_oracle_one_symbol(ch, n):
    assert lzw_compress_bits(ch * n) == _oracle_bits(ch * n)


# --- normalization constant -------------------------------------------------

def test_norm_constant_deterministic_and_memoized():
    a = normalization_constant(4, samples=20, steps=64, seed=1)
    b = normalization_constant(4, samples=20, steps=64, seed=1)
    assert a == b and a > 0


def test_norm_constant_monotone_in_samples():
    lo = normalization_constant(4, samples=5, steps=64, seed=2)
    hi = normalization_constant(4, samples=50, steps=64, seed=2)
    assert hi >= lo


def test_norm_constant_cache_file(tmp_path):
    path = str(tmp_path / "norm.txt")
    val = normalization_constant(5, samples=10, steps=32, seed=9, cache_path=path)
    with open(path) as fh:
        line = fh.read().split()
    assert line == ["5", "10", "32", "9", str(val)]
    # purge the in-process memo and verify the file is honored
    from oee_ca import complexity as cx
    cx._NORM_MEMO.pop((5, 10, 32, 9))
    assert normalization_constant(5, samples=10, steps=32, seed=9,
                                  cache_path=path) == val


def test_norm_constant_memo_hit_still_writes_cache_file(tmp_path):
    """A memoized constant is appended to a cache file that lacks it, and a
    file that has it is left as it was."""
    first, second = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    val = normalization_constant(4, samples=7, steps=24, seed=5, cache_path=first)
    assert normalization_constant(4, samples=7, steps=24, seed=5, cache_path=second) == val
    for path in (first, second):
        assert Path(path).read_text() == f"4 7 24 5 {val}\n"
    normalization_constant(4, samples=7, steps=24, seed=5, cache_path=second)
    assert Path(second).read_text() == f"4 7 24 5 {val}\n"


@pytest.mark.parametrize("w", [1, 2, 3, 5, 13, 17, 21, 33, 63])
def test_norm_constant_matches_scalar_oracle(w):
    from oee_ca import complexity as cx
    for seed in (0, 1, 7):
        key = (w, 12, 40, seed)
        cx._NORM_MEMO.pop(key, None)
        assert normalization_constant(*key) == scalar_normalization_constant(*key)


@pytest.mark.parametrize("w, expected", [(3, 261), (6, 6097), (8, 8697), (10, 12451),
                                         (12, 14640), (13, 16290), (14, 17467), (19, 23577),
                                         (24, 29685), (32, 39189), (63, 76244)])
def test_norm_constant_defaults_pinned(w, expected):
    """The default settings of the library and the CLI: 1000 samples x 1024
    steps, seed 0."""
    assert normalization_constant(w, samples=1000, steps=1024, seed=0) == expected
    assert normalization_constant(w) == expected


@pytest.mark.parametrize("w", [0, -1, NORM_MAX_WIDTH + 1, 70])
def test_norm_constant_rejects_width(w):
    with pytest.raises(ValueError, match="normalization width"):
        normalization_constant(w, samples=2, steps=4)


def test_norm_constant_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps must be >= 0"):
        normalization_constant(4, samples=2, steps=-1)


@pytest.mark.parametrize("samples", [0, -1])
def test_norm_constant_rejects_samples_below_one(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        normalization_constant(4, samples=samples, steps=4)


@pytest.mark.parametrize("w", [1, 2, 3, 7, 40, 63])
def test_fixed_rule_runs_match_step_bits(w):
    """A run holds the ``naive_step_bits`` states up to its first repeat, and
    the state after its last one is the one at ``first``."""
    rng = execution_rng(w)
    for steps in (0, 1, 9, 300):
        rule, bits = int(rng.integers(0, 256)), int(rng.integers(0, 1 << w))
        rows = [bits]
        for _ in range(steps):
            rows.append(naive_step_bits(rule, rows[-1], w))
        states, first = fixed_rule_run(rule, w, bits, steps)
        assert states == rows[:len(states)]
        assert len(set(states)) == len(states)
        if first is None:
            assert len(states) == steps + 1
        else:
            assert rows[len(states)] == states[first]


# caps at, around and between the lanes' checkpoints (16, 32, 64, ...)
LANE_CAPS = [0, 1, 15, 16, 17, 31, 32, 33, 300, 1024]


def _assert_runs_match(lanes, w, steps):
    rules, states = zip(*lanes)
    runs = fixed_rule_runs(rules, w, states, steps)
    assert len(runs) == len(lanes)
    for (rule, state), (got, first) in zip(lanes, runs):
        assert (got.tolist(), first) == fixed_rule_run(rule, w, state, steps)


# the widths either side of the lanes' field limits: a ring below 32 cells
# takes a 32-bit field, one of 32..63 cells a 64-bit one
FIELD_WIDTHS = [1, 2, 31, 32, 33, 62, 63]


@st.composite
def lane_sets(draw):
    """``(w, lanes)``: one lane, or several with some sharing a rule."""
    w = draw(st.integers(1, 63))
    state = st.integers(0, (1 << w) - 1)
    shared = draw(st.integers(0, 255))
    return w, draw(st.lists(st.tuples(st.integers(0, 255) | st.just(shared), state),
                            min_size=1, max_size=12))


def _edge_lanes(w):
    """Rings with their top or bottom cell set, which a field without a
    spare bit would carry into its neighbour."""
    top, full = 1 << (w - 1), (1 << w) - 1
    return w, [(30, top | 1), (110, full // 3), (90, top), (45, full)]


@settings(max_examples=150, deadline=None)
@given(lane_sets(), st.sampled_from(LANE_CAPS))
@example(_edge_lanes(1), 300)
@example(_edge_lanes(2), 300)
@example(_edge_lanes(31), 300)
@example(_edge_lanes(32), 300)
@example(_edge_lanes(33), 300)
@example(_edge_lanes(62), 300)
@example(_edge_lanes(63), 300)
def test_fixed_rule_runs_match_fixed_rule_run(lanes, steps):
    """Run for run, states and ``first``."""
    w, lanes = lanes
    _assert_runs_match(lanes, w, steps)


@pytest.mark.parametrize("steps", LANE_CAPS)
@pytest.mark.parametrize("w", FIELD_WIDTHS)
def test_fixed_rule_runs_match_at_the_field_limits(w, steps):
    """40 drawn lanes at each width either side of a field limit."""
    _assert_runs_match(integers_rows(execution_rng(w), (256, 1 << w), 40), w, steps)


@pytest.mark.parametrize("w", [-1, 0, 64, 65])
def test_fixed_rule_runs_reject_widths_without_a_spare_field_bit(w):
    with pytest.raises(ValueError, match=rf"lane width must be in 1\.\.63, got {w}$"):
        fixed_rule_runs([30], w, [1], 4)


@pytest.mark.parametrize("steps", LANE_CAPS)
@pytest.mark.parametrize("w, lanes", [
    # each with a run whose first repeat is step 16, 32 or 64, a checkpoint
    # exactly, beside runs that repeat elsewhere or not within the cap
    (5, [(25, 11), (26, 27), (30, 13)]),
    (7, [(26, 27), (30, 13), (30, 13), (0, 0)]),
    (13, [(7, 1539), (6, 2325), (30, 1)]),
    (40, [(37, 323492280079), (65, 623201794424), (110, 1)]),
    # at 63 cells the history's keys pass 64 bits: the argsort path
    (63, [(37, 3006298905912775774), (37, 8790988948122266956), (110, 1), (0, 5)]),
])
def test_fixed_rule_runs_repeat_on_a_checkpoint(w, lanes, steps):
    _assert_runs_match(lanes, w, steps)


@pytest.mark.parametrize("width", [53, 54, 63])
def test_sorted_pairs_keep_the_top_cell_at_the_key_limit(width):
    """1025-state histories take 11 step bits, so from 54 cells their
    ``state << b | step`` keys would pass 64 bits: states that differ in
    the top cell alone stay apart, and ties stay in step order."""
    top = 1 << (width - 1)
    rows = np.array([[0, top, *range(1, 1024)], [top, 0, top, *range(1, 1023)]],
                    dtype=np.uint64)
    equal, at = _sorted_pairs(rows, width)
    assert equal.sum(axis=1).tolist() == [0, 1]
    k = int(np.flatnonzero(equal[1])[0])
    assert (at[1, k], at[1, k + 1]) == (0, 2)


def test_fixed_rule_runs_memory_does_not_grow_with_the_cap():
    """Every width-8 run repeats within 256 steps, so lanes retire at the
    same checkpoints whatever the cap above that: the same runs, and a
    tracemalloc peak within 10 %."""
    rules, states = zip(*integers_rows(execution_rng(0), (256, 1 << 8), 1000))
    fixed_rule_runs(rules, 8, states, 16)      # numpy's first calls
    peaks, results = [], []
    for steps in (1024, 1 << 16):
        tracemalloc.start()
        try:
            results.append(fixed_rule_runs(rules, 8, states, steps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0] == results[1]
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


def test_norm_memory_follows_the_phrases_not_the_cap():
    """At width 8 the walked strings grow with the cap, (cap + 1) x 8
    symbols, and so does the constant, but their LZW tries hold the
    phrases alone: the whole constant's tracemalloc peak at cap 2^16 is at
    most three times the one at cap 1024 (about 2x; a trie list sized to
    the string made it about 15x)."""
    from oee_ca import complexity as cx

    cx._max_compressed_bits(8, 1000, 16, 0)
    peaks, constants = [], []
    for steps in (1024, 1 << 16):
        tracemalloc.start()
        try:
            constants.append(cx._max_compressed_bits(8, 1000, steps, 0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert constants == [8697, 202409]
    assert peaks[1] <= 3 * peaks[0]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="01", max_size=40), st.text(alphabet="01", min_size=1, max_size=40),
       st.integers(1, 4), st.integers(1, 600))
@example("", "0", 1, 1)
@example("", "0", 1, 500)
@example("", "1", 1, 37)
@example("0", "1", 1, 1)
@example("", "01101", 1, 400)
@example("1101", "0", 1, 300)
@example("", "01", 6, 300)           # a cycle with a shorter symbol period
@example("011", "1", 1, 200)         # a one-symbol cycle after a head
@example("0110", "01101", 1, 56)     # n < span + COUNT_LENGTHS: no counts
def test_lzw_phrase_bound_holds_on_eventually_periodic_strings(head, cycle, repeat, n):
    """``head`` then ``cycle`` repeated, cut to ``n`` symbols: no string of
    that shape has more phrases than the bound for span len(head + cycle),
    and the exact substring counts only tighten it."""
    cycle *= repeat
    span = len(head) + len(cycle)
    s = (head + cycle * (n // len(cycle) + 1))[:n]
    bits = s.encode().translate(TO_BITS)
    counts = substring_counts(bits, span)
    assert (counts == []) == (n < span + COUNT_LENGTHS)
    refined, span_only = lzw_phrase_bound(n, span, counts), lzw_phrase_bound(n, span)
    assert lzw_phrase_count(bits) <= refined <= span_only <= n


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30000), st.integers(1, 30000), st.integers(1, 30000))
@example(1, 1, 1)
@example(2, 1, 2)
@example(6150, 1, 1)
@example(6150, 1, 6150)
@example(6150, 6149, 6150)
@example(30000, 1, 30000)
def test_lzw_phrase_bound_never_decreases_with_the_span(n, a, b):
    """The span-only bound is non-decreasing in the span over 1..n, so the
    normalization constant may stop at the first run, longest first, that
    it rules out.  The spans are ``a`` and ``b`` capped at n."""
    s1, s2 = sorted((min(a, n), min(b, n)))
    assert lzw_phrase_bound(n, s1) <= lzw_phrase_bound(n, s2)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="01", max_size=70), st.text(alphabet="01", min_size=1, max_size=70),
       st.integers(1, 3), st.integers(0, 400))
@example("", "1", 1, 48)
@example("", "0", 1, 49)
@example("1", "10", 3, 120)
def test_substring_counts_are_exact(head, cycle, repeat, extra):
    """Counted from the first span start positions, the counts are those of
    the whole eventually periodic string: every length up to
    ``COUNT_LENGTHS``, once the string reaches ``span + COUNT_LENGTHS``."""
    cycle *= repeat
    span = len(head) + len(cycle)
    n = span + COUNT_LENGTHS + extra
    s = (head + cycle * (n // len(cycle) + 1))[:n]
    counts = substring_counts(s.encode().translate(TO_BITS), span)
    assert counts == [len({s[i:i + l] for i in range(n - l + 1)})
                      for l in range(COUNT_LENGTHS + 1)]
    assert substring_counts(s[:n - extra - 1].encode().translate(TO_BITS), span) == []


@pytest.mark.parametrize("key", [(8, 200, 256, 4), (8, 200, 256, 5), (17, 60, 200, 4)])
def test_norm_constant_skips_walks_and_matches_scalar_oracle(key, monkeypatch):
    """Plans where the bound rules samples out: fewer runs are walked than
    drawn, fewer still with the substring counts than with the span-only
    bound, and the constant equals the oracle's, which walks every run."""
    from oee_ca import complexity as cx
    walked = []
    count = cx.lzw_phrase_count
    monkeypatch.setattr(cx, "lzw_phrase_count", lambda bits: walked.append(1) or count(bits))
    expected, walks = scalar_normalization_constant(*key), []
    for counts in (cx.substring_counts, lambda bits, span: []):
        monkeypatch.setattr(cx, "substring_counts", counts)
        walked.clear()
        cx._NORM_MEMO.pop(key, None)
        assert normalization_constant(*key) == expected
        walks.append(len(walked))
    refined, span_only = walks
    assert 0 < refined < span_only < key[1]


def test_norm_constant_walks_longest_runs_first(monkeypatch):
    """The runs are serialized longest first, the visit stops before the
    last sampled run, and the constant equals the oracle's, which walks
    every run in draw order."""
    from oee_ca import complexity as cx
    key = (8, 200, 256, 4)
    lengths = []
    serialize = cx.serialize_states
    monkeypatch.setattr(cx, "serialize_states",
                        lambda states, w: lengths.append(len(states)) or serialize(states, w))
    cx._NORM_MEMO.pop(key, None)
    assert normalization_constant(*key) == scalar_normalization_constant(*key)
    assert lengths == sorted(lengths, reverse=True)
    assert 0 < len(lengths) < key[1]


# --- compressibility --------------------------------------------------------

def test_compressibility_linearity():
    states = [0b0110] * 8
    bits, c1 = compressibility(states, 4, 100)
    _, c2 = compressibility(states, 4, 200)
    assert c1 == bits / 100 and math.isclose(c2, c1 / 2)


def test_compressibility_constant_below_random():
    rng = execution_rng(8)
    const = [0] * 64
    rand = [int(rng.integers(0, 64)) for _ in range(64)]
    norm = 1000
    assert compressibility(const, 6, norm)[1] < compressibility(rand, 6, norm)[1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 6, 9, 17]), st.data())
def test_compressibility_matches_oracle(width, data):
    states = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=40))
    assert compressibility(states, width, 777) == scalar_compressibility(states, width, 777)


def test_compressibility_rejects_bad_norm():
    with pytest.raises(ValueError):
        compressibility([0], 4, 0)


# --- Lyapunov ---------------------------------------------------------------

def test_lyapunov_identity_rule_is_zero():
    base = run_trajectory(VariantConfig(Variant.ISOLATED, 4, 0b0110, 204))
    assert lyapunov(base, perturb_bit=0, horizon=8) == 0.0


def test_lyapunov_rule0_extinct():
    base = run_trajectory(VariantConfig(Variant.ISOLATED, 4, 0b0110, 0))
    assert lyapunov(base, perturb_bit=0, horizon=8) == EXTINCT


def test_lyapunov_validation():
    base = run_trajectory(VariantConfig(Variant.ISOLATED, 4, 0, 204))
    with pytest.raises(ValueError):
        lyapunov(base, perturb_bit=4, horizon=8)
    with pytest.raises(ValueError):
        lyapunov(base, perturb_bit=0, horizon=1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 15),
       st.integers(0, 15), st.integers(0, 3))
def test_lyapunov_bounded_by_saturation(r_o, r_e, so, se, bit):
    """y(t) <= w_o, so the fitted per-step rate is at most ln(w_o)."""
    config = VariantConfig(Variant.CASE_I, 4, so, r_o, w_e=4, s_e=se, r_e=r_e)
    k = lyapunov(run_trajectory(config, cap=12), perturb_bit=bit, horizon=12)
    if k != EXTINCT:
        assert k <= math.log(4) + 1e-9


def test_lyapunov_case3_common_random_numbers():
    """Same seed drives both runs, so the result is reproducible."""
    config = VariantConfig(Variant.CASE_III, 4, 0b0101, 30, mu=0.3, seed=17)
    assert (lyapunov(run_trajectory(config, cap=10), 0, 10)
            == lyapunov(run_trajectory(config, cap=10), 0, 10))


def test_lyapunov_mean_extinct_when_all_die():
    config = VariantConfig(Variant.ISOLATED, 4, 0b0110, 0)
    assert lyapunov_mean(config, horizon=8) == EXTINCT


def test_lyapunov_mean_averages_positions():
    config = VariantConfig(Variant.ISOLATED, 4, 0b0110, 204)
    assert lyapunov_mean(config, horizon=8) == 0.0


# --- exponent fitting -------------------------------------------------------

def test_fit_exponent_recovers_exact_growth():
    k = 0.4
    ys = [math.exp(k * t) for t in range(1, 8)]
    assert math.isclose(fit_exponent(ys), k, rel_tol=1e-9)


@settings(max_examples=300)
@given(st.lists(st.integers(0, 64), min_size=2, max_size=16))
def test_fit_exponent_matches_linear_regression(ys):
    """The inline fit is the stdlib's slope; abs_tol covers slopes that are 0
    up to rounding, where summation orders of other Python versions differ."""
    pts = [(t, math.log(y)) for t, y in enumerate(ys, start=1) if y > 0]
    if len(pts) >= 2:
        want = linear_regression(*zip(*pts)).slope
        assert math.isclose(fit_exponent(ys), want, rel_tol=1e-12, abs_tol=1e-15)


def test_fit_exponent_single_point():
    # y(1) = e^k with only one usable point gives slope ln(y)/1
    assert math.isclose(fit_exponent([math.e]), 1.0)
