import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqrep import core
from seqrep.core import (
    ConfigError,
    Dataset,
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    MomentumSGD,
    RngState,
    Sequence,
    block_views,
    nearest_rows,
    pairwise_sqdist,
    write_file,
)
from conftest import integer_rows

finite_vec = arrays(np.float64, st.integers(1, 8),
                    elements=st.floats(-1e6, 1e6, allow_nan=False))


def test_squared_l2_identity_and_unit_axes():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(pairwise_sqdist(x, x),
                                  [[0, 1, 1], [1, 0, 2], [1, 2, 0]])


def test_squared_l2_matches_bruteforce_loop(rng):
    a = rng.gen.normal(size=(4, 5))
    b = rng.gen.normal(size=(3, 5))
    d2 = pairwise_sqdist(a, b)
    assert d2.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            expected = sum((x - y) ** 2 for x, y in zip(a[i], b[j]))
            assert d2[i, j] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [5, 32, 100], ids=["under-a-block", "one-block", "ragged"])
def test_squared_l2_row_blocks_equal_the_one_expression_form(rng, n):
    # 1000 columns make a block 32 rows; the blocks overwrite the GEMM's output
    a = rng.gen.normal(size=(n, 16))
    b = np.concatenate([a[:3], rng.gen.normal(size=(997, 16))])  # zeros to clip
    expect = np.maximum(np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
                        - 2.0 * (a @ b.T), 0.0)
    np.testing.assert_array_equal(pairwise_sqdist(a, b), expect)


overflowing_rows = pytest.mark.parametrize(
    "a, b", [([[2e200]], [[1e200], [2.1e200]]),  # inf - inf
             ([[1e160]], [[-1e160]]),  # inf
             ([[0.0]] * 40 + [[1e200]], [[1.0]] * 900)],  # last block
    ids=["nan", "inf", "last-block"])


@overflowing_rows
def test_squared_l2_overflow_raises(a, b):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DegenerateInputError, match="overflow"):
        pairwise_sqdist(np.array(a), np.array(b))


@overflowing_rows
def test_squared_l2_overflow_raises_whatever_the_error_state(a, b, strict_numpy):
    with pytest.raises(DegenerateInputError, match="overflow"):
        pairwise_sqdist(np.array(a), np.array(b))


def test_squared_l2_dimension_mismatch():
    with pytest.raises(ValueError):
        pairwise_sqdist(np.ones((2, 2)), np.ones((2, 3)))


@settings(max_examples=50, deadline=None)
@given(finite_vec.flatmap(lambda a: st.tuples(
    st.just(a),
    arrays(np.float64, a.shape[0], elements=st.floats(-1e6, 1e6, allow_nan=False)))))
def test_squared_l2_symmetry(pair):
    a, b = (v[None, :] for v in pair)
    ab, ba = pairwise_sqdist(a, b)[0, 0], pairwise_sqdist(b, a)[0, 0]
    assert ab >= 0.0
    # the expanded form cancels |a|^2 + |b|^2, so its error scales with them
    scale = float(np.sum(a * a) + np.sum(b * b))
    assert ab == pytest.approx(ba, rel=1e-12, abs=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(width=st.integers(1, 3), data=st.data())
def test_blocked_nearest_rows_equal_the_whole_matrix_argmin(width, data):
    # more rows of a than one 256-row block, so a block boundary is crossed;
    # argmin over the whole matrix gives a tie to the first row
    a = data.draw(integer_rows(st.integers(257, 320), width))
    b = data.draw(integer_rows(st.integers(1, 40), width))
    rows = nearest_rows(a, b)
    assert rows.shape == (len(a),)
    assert np.array_equal(rows, np.argmin(pairwise_sqdist(a, b), axis=1))


def test_write_file_creates_parent_directories(tmp_path):
    out = write_file(tmp_path / "a" / "b" / "f.txt", "x 1\n")
    assert out.read_bytes() == b"x 1\n"
    write_file(out, b"\x00\x01")
    assert out.read_bytes() == b"\x00\x01"


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    out = write_file(tmp_path / "f.bin", b"old contents")

    class DiskFull:
        """A file that takes half the bytes, then fails."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(core, "open", lambda path, mode: DiskFull(open(path, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        write_file(out, b"new contents, twice as long as the old")
    assert out.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["f.bin"]


def test_failed_replace_leaves_no_temp(tmp_path):
    target = tmp_path / "d"
    (target / "inner").mkdir(parents=True)
    with pytest.raises(OSError):
        write_file(target, "x")
    assert sorted(os.listdir(tmp_path)) == ["d"]


@pytest.mark.parametrize("bad", ["", ".hidden", "..", "../escape", "a/b", "a b", "é", 7])
def test_sequence_id_must_be_safe(bad):
    with pytest.raises(ConfigError, match="sequence id"):
        Sequence(id=bad, frames=[[1.0]])


def test_sequence_id_rule_admits_plain_names():
    for ok in ("a", "seq000", "resample-a", "x.y_z-1", "-", "a.."):
        assert Sequence(id=ok, frames=[[1.0]]).id == ok


def test_sequence_invariants():
    s = Sequence(id="a", frames=[[1.0, 2.0], [3.0, 4.0]], latent=[[0.1], [0.2]])
    assert len(s) == 2 and s.dimension == 2
    assert not s.frames.flags.writeable
    with pytest.raises(DegenerateInputError):
        Sequence(id="bad", frames=[[np.nan, 0.0]])
    with pytest.raises(DimensionError):
        Sequence(id="bad", frames=[[1.0, 2.0]], latent=[[0.1], [0.2]])


def test_dataset_invariants():
    a = Sequence(id="a", frames=[[1.0, 2.0]])
    b = Sequence(id="b", frames=[[3.0, 4.0]])
    ds = Dataset(dimension=2, sequences=(a, b))
    assert len(ds) == 2
    assert ds.by_id("b") is b
    with pytest.raises(ConfigError, match="'nope'"):
        ds.by_id("nope")
    with pytest.raises(ConfigError):
        Dataset(dimension=2, sequences=(a,))
    with pytest.raises(ConfigError):
        Dataset(dimension=2, sequences=(a, Sequence(id="a", frames=[[0.0, 1.0]])))
    with pytest.raises(DimensionError):
        Dataset(dimension=3, sequences=(a, b))


def test_dataset_rejects_latents_of_different_widths():
    # such a dataset would be written as a SeqPack that read_seqpack refuses
    g = RngState(0).gen
    a = Sequence(id="a", frames=g.normal(size=(10, 2)), latent=g.normal(size=(10, 2)))
    b = Sequence(id="b", frames=g.normal(size=(10, 2)), latent=g.normal(size=(10, 3)))
    with pytest.raises(DimensionError, match="latents must share one dimension"):
        Dataset(dimension=2, sequences=(a, b))
    c = Sequence(id="c", frames=g.normal(size=(10, 2)))  # a missing latent is no second width
    mixed = Dataset(dimension=2, sequences=(a, c))
    assert mixed.by_id("a").latent.shape == (10, 2) and mixed.by_id("c").latent is None


def test_rng_reproducibility():
    a = RngState(123).gen.normal(size=10)
    b = RngState(123).gen.normal(size=10)
    np.testing.assert_array_equal(a, b)


def test_rng_split_is_independent_and_deterministic():
    root = RngState(7)
    child = root.split(1, 2)
    again = RngState(7).split(1, 2)
    np.testing.assert_array_equal(child.gen.normal(size=5), again.gen.normal(size=5))
    # drawing from the parent first must not change the child stream
    root2 = RngState(7)
    root2.gen.normal(size=100)
    np.testing.assert_array_equal(
        root2.split(1, 2).gen.normal(size=5), RngState(7).split(1, 2).gen.normal(size=5)
    )


def test_rng_rejects_bad_seed():
    with pytest.raises(ConfigError):
        RngState(-1)


def test_block_views_share_the_vector_in_argument_order():
    vec = np.arange(10.0)
    views = block_views(vec, a=(2, 3), b=(4,))
    assert list(views) == ["a", "b"]
    np.testing.assert_array_equal(views["a"], [[0, 1, 2], [3, 4, 5]])
    views["b"][0] = -1.0
    assert vec[6] == -1.0
    with pytest.raises(DimensionError):
        block_views(vec, a=(3, 3))


def test_momentum_sgd_matches_the_per_block_update():
    g = RngState(8).gen
    theta = g.normal(size=12)
    start, ref_theta, ref_v = theta.copy(), theta.copy(), np.zeros(12)
    sgd = MomentumSGD(theta, learning_rate=0.03, momentum=0.9, stage="embed")
    for _ in range(5):
        grad = g.normal(size=12)
        sgd.step(1.0, grad)
        ref_v = 0.9 * ref_v - 0.03 * grad
        ref_theta = ref_theta + ref_v
    np.testing.assert_array_equal(theta, ref_theta)  # updated in place, bit for bit
    assert sgd.end_epoch() is None
    assert (sgd.epoch, sgd.batch) == (1, 0)
    assert sgd.log.batch_loss == [1.0] * 5 and sgd.log.batch_epoch == [0] * 5
    assert sgd.log.epoch_param_delta == [float(np.linalg.norm(theta - start))]


def test_momentum_sgd_end_epoch_allocates_no_parameter_sized_vector():
    # a fresh theta - start and theta.copy() per epoch are 11 MB each for the predictor
    g = RngState(9).gen
    theta = g.normal(size=250_000)
    start = theta.copy()
    sgd = MomentumSGD(theta, learning_rate=0.03, momentum=0.9, stage="predictor")
    sgd.step(1.0, g.normal(size=theta.size))
    expect = float(np.linalg.norm(theta - start))
    tracemalloc.start()
    try:
        sgd.end_epoch()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000  # a block's finiteness mask is 32 kB; the whole vector's was 250 kB
    assert sgd.log.epoch_param_delta[-1] == expect  # the same norm of the same values
    start = theta.copy()
    sgd.step(1.0, g.normal(size=theta.size))
    sgd.end_epoch()
    assert sgd.log.epoch_param_delta[-1] == float(np.linalg.norm(theta - start))  # new start


def test_momentum_sgd_blocks_cover_the_whole_vector():
    # two full blocks and a ragged tail, against the whole-vector expressions
    g = RngState(10).gen
    theta = g.normal(size=2 * 32_768 + 5)
    start, ref_theta, ref_v = theta.copy(), theta.copy(), np.zeros(theta.size)
    sgd = MomentumSGD(theta, learning_rate=0.03, momentum=0.9, stage="predictor")
    for _ in range(3):
        grad = g.normal(size=theta.size)
        sgd.step(1.0, grad)
        ref_v = 0.9 * ref_v - 0.03 * grad
        ref_theta = ref_theta + ref_v
    np.testing.assert_array_equal(theta, ref_theta)
    sgd.end_epoch()
    assert sgd.log.epoch_param_delta[-1] == float(np.linalg.norm(theta - start))
    theta[-1] = np.inf  # only the tail block sees it
    with pytest.raises(DivergenceError, match="non-finite parameters"):
        sgd.end_epoch()


def test_momentum_sgd_works_in_the_parameters_dtype():
    # float32 parameters: velocity, scratch and epoch start are float32 too,
    # and the update is the whole-vector float32 expression bit for bit
    g = RngState(12).gen
    theta = g.normal(size=32_768 + 5).astype(np.float32)
    start, ref_theta, ref_v = theta.copy(), theta.copy(), np.zeros_like(theta)
    sgd = MomentumSGD(theta, learning_rate=0.03, momentum=0.9, stage="predictor")
    assert all(a.dtype == np.float32
               for a in (sgd.velocity, sgd._scaled, sgd._epoch_start))
    for _ in range(3):
        grad = g.normal(size=theta.size).astype(np.float32)
        sgd.step(1.0, grad)
        ref_v = 0.9 * ref_v - 0.03 * grad
        ref_theta = ref_theta + ref_v
    assert theta.dtype == ref_theta.dtype == np.float32
    np.testing.assert_array_equal(theta, ref_theta)
    sgd.end_epoch()
    assert sgd.log.epoch_param_delta[-1] == pytest.approx(
        float(np.linalg.norm((theta - start).astype(np.float64))), rel=1e-6)


def test_momentum_sgd_needs_no_parameter_sized_scratch():
    # the predictor's 1.4 M parameters: velocity and epoch start are 11 MB
    # each, and a third vector of scratch was another 11 MB
    g = RngState(11).gen
    theta = g.normal(size=1_378_432)
    grad = g.normal(size=theta.size)
    tracemalloc.start()
    try:
        sgd = MomentumSGD(theta, learning_rate=0.03, momentum=0.9, stage="predictor")
        before, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sgd.step(1.0, grad)
        stepped = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert built < 2 * theta.nbytes + 1_000_000
    assert stepped < 1_000_000


def test_momentum_sgd_reports_divergence():
    sgd = MomentumSGD(np.zeros(3), learning_rate=1.0, momentum=0.0, stage="predictor")
    sgd.step(0.5, np.ones(3))
    with pytest.raises(DivergenceError, match="epoch 0, batch 1") as info:
        sgd.step(float("nan"), np.zeros(3))
    assert info.value.stage == "predictor"
    sgd.step(0.25, np.array([np.inf, 0.0, 0.0]))  # a finite loss leaves it to the epoch check
    with pytest.raises(DivergenceError, match="non-finite parameters") as info:
        sgd.end_epoch()
    assert (info.value.epoch, info.value.batch, info.value.loss) == (0, 1, 0.25)


def test_momentum_sgd_reports_collapse():
    sgd = MomentumSGD(np.zeros(3), learning_rate=1.0, momentum=0.0, stage="embed")
    sgd.step(0.0, np.zeros(3))  # every hinge inactive: nothing to learn, not a collapse
    sgd.step(0.2, np.array([0.0, -1e-300, 0.0]))
    with pytest.raises(DivergenceError, match="epoch 0, batch 2: collapsed") as info:
        sgd.step(0.2, np.zeros(3))
    assert (info.value.stage, info.value.loss) == ("embed", 0.2)


def test_momentum_sgd_collapse_check_reads_past_the_first_block():
    theta = np.zeros(3 * core._BLOCK)
    sgd = MomentumSGD(theta, learning_rate=1.0, momentum=0.0, stage="predictor")
    grad = np.zeros_like(theta)
    grad[-1] = 1.0  # zero in the first block, not later
    sgd.step(0.2, grad)
    assert theta[-1] == -1.0 and not theta[:-1].any()
    with pytest.raises(DivergenceError, match="epoch 0, batch 1: collapsed"):
        sgd.step(0.2, np.zeros_like(theta))


def test_momentum_sgd_reports_blow_up_relative_to_the_first_positive_loss():
    sgd = MomentumSGD(np.zeros(3), learning_rate=1e-3, momentum=0.0, stage="predictor")
    sgd.step(0.0, np.zeros(3))  # a zero loss sets no reference
    sgd.step(2.0, np.ones(3))
    sgd.step(1e-3, np.ones(3))  # a later, smaller loss does not move the reference
    sgd.step(2000.0, np.ones(3))  # exactly 1000x passes
    sgd.end_epoch()
    with pytest.raises(DivergenceError, match="epoch 1, batch 0: blew up") as info:
        sgd.step(np.nextafter(2000.0, np.inf), np.ones(3))
    assert info.value.stage == "predictor"
