"""Forward-pass behavior, parameter accounting, checkpoint io."""

import gc
import re
import weakref

import numpy as np
import pytest

from focusface import model as model_module
from focusface.autodiff import ShapeError, Tape
from focusface.model import (
    ToyBackboneConfig,
    ToyModel,
    embed_images,
    load_checkpoint,
    save_checkpoint,
    toy_scale_modules,
)
from focusface.params import BACKBONE, summarize
from focusface.training import TrainConfig, init_state


def small_batch(rng, n=3):
    return rng.uniform(-1.0, 1.0, size=(n, 1, 32, 32))


def frozen_trainable(model):
    """Names and size of what a frozen-backbone run of ``model`` trains."""
    names = init_state(model, TrainConfig(freeze_backbone=True)).velocities
    return names, sum(model.params[n].size for n in names)


def test_forward_output_shapes():
    model = ToyModel.init(seed=0)
    out = model.forward(Tape(), small_batch(np.random.default_rng(0), n=5))
    assert out.recognition_embedding.shape == (5, 64)
    assert out.mask_embedding.shape == (5, 8)
    assert out.mask_logits.shape == (5, 2)


def test_forward_rejects_wrong_shape():
    model = ToyModel.init(seed=0)
    with pytest.raises(ShapeError, match="expected images"):
        model.forward(Tape(), np.zeros((2, 32, 32)))
    with pytest.raises(ShapeError, match="expected images"):
        model.forward(Tape(), np.zeros((2, 1, 16, 16)))


def test_zero_image_through_zero_heads_gives_zero_embeddings():
    model = ToyModel.init(seed=0)
    for name in ("recognition.weight", "recognition.bias",
                 "mask.weight", "mask.bias"):
        model.params[name][:] = 0.0
    out = model.forward(Tape(), np.zeros((2, 1, 32, 32)))
    assert np.all(out.recognition_embedding.data == 0.0)
    assert np.all(out.mask_embedding.data == 0.0)


def test_forward_deterministic():
    model = ToyModel.init(seed=3)
    images = small_batch(np.random.default_rng(1))
    a = model.forward(Tape(), images)
    b = model.forward(Tape(), images)
    assert np.array_equal(a.recognition_embedding.data, b.recognition_embedding.data)
    assert np.array_equal(a.mask_logits.data, b.mask_logits.data)


def test_batch_of_two_equals_two_singles():
    model = ToyModel.init(seed=4)
    images = small_batch(np.random.default_rng(2), n=2)
    batch = model.forward(Tape(), images)
    one = model.forward(Tape(), images[:1])
    two = model.forward(Tape(), images[1:])
    for got, a, b in [
        (batch.recognition_embedding, one.recognition_embedding, two.recognition_embedding),
        (batch.mask_embedding, one.mask_embedding, two.mask_embedding),
        (batch.mask_logits, one.mask_logits, two.mask_logits),
    ]:
        stacked = np.concatenate([a.data, b.data], axis=0)
        assert np.max(np.abs(got.data - stacked)) <= 1e-12


def test_init_deterministic_per_seed():
    a = ToyModel.init(seed=11)
    b = ToyModel.init(seed=11)
    c = ToyModel.init(seed=12)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert not np.array_equal(a.params["conv0.weight"], c.params["conv0.weight"])


def test_live_counts_match_descriptor_table():
    config = ToyBackboneConfig()
    model = ToyModel.init(config, seed=0)
    summary = summarize(toy_scale_modules(config))
    assert model.total_count() == summary.scratch_total
    assert frozen_trainable(model)[1] == summary.frozen_trainable


def test_nondefault_config_counts_match():
    config = ToyBackboneConfig(input_hw=24, in_channels=3, stages=((4, 2), (12, 1)),
                               recognition_dim=16, mask_dim=4, num_classes=7)
    counts = toy_scale_modules(config)
    summary = summarize(counts)
    model = ToyModel.init(config, seed=0)
    assert model.total_count() == summary.scratch_total
    conv = sum(p.size for n, p in model.params.items() if n.startswith("conv"))
    assert counts[BACKBONE] == conv == (4 * 3 * 9 + 4 + 1) + (12 * 4 * 9 + 12 + 1)
    assert frozen_trainable(model)[1] == summary.frozen_trainable


def test_frozen_backbone_gradients_absent():
    model = ToyModel.init(seed=5)
    tape = Tape()
    leaves = model.leaves(tape, frozen_trainable(model)[0])
    out = model.forward(tape, small_batch(np.random.default_rng(3)), leaves=leaves)
    grads = tape.backward(tape.sum(out.recognition_embedding))
    assert leaves["recognition.weight"].node_id in grads
    for name in model.params:
        if name.startswith("conv"):
            assert leaves[name].node_id not in grads


def test_normalized_recognition_embedding_unit_norm():
    model = ToyModel.init(seed=6)
    tape = Tape()
    out = model.forward(tape, small_batch(np.random.default_rng(4)))
    normed = tape.l2_normalize(out.recognition_embedding, axis=-1)
    norms = np.linalg.norm(normed.data, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_config_validation():
    with pytest.raises(ValueError, match="mask_dim"):
        ToyBackboneConfig(mask_dim=1)
    with pytest.raises(ValueError, match="recognition_dim"):
        ToyBackboneConfig(recognition_dim=4)
    with pytest.raises(ValueError, match="empty feature map"):
        ToyBackboneConfig(input_hw=0)


def test_embed_images_thread_count_irrelevant():
    model = ToyModel.init(seed=7)
    images = small_batch(np.random.default_rng(5), n=150)  # chunks of 64, 64, 22
    emb1, prob1 = embed_images(model, images, threads=1)
    emb4, prob4 = embed_images(model, images, threads=4)
    assert np.array_equal(emb1, emb4)
    assert np.array_equal(prob1, prob4)
    norms = np.linalg.norm(emb1, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    assert np.all((prob1 > 0) & (prob1 < 1))


def test_embed_images_equals_one_forward_per_chunk():
    # casting the parameters once per call gives each chunk the bits of a
    # plain float32 forward, which casts them on its own tape
    model = ToyModel.init(seed=7)
    images = small_batch(np.random.default_rng(5), n=150)
    emb, prob = embed_images(model, images)
    for start in (0, 64, 128):  # chunks of 64, 64 and 22
        stop = start + 64
        out = model.forward(Tape(np.float32), images[start:stop])
        ref = out.recognition_embedding.data.astype(np.float64)
        ref = ref / np.linalg.norm(ref, axis=1, keepdims=True)
        logits = out.mask_logits.data.astype(np.float64)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        ref_prob = (e / e.sum(axis=1, keepdims=True))[:, 1]
        assert emb[start:stop].tobytes() == ref.tobytes()
        assert prob[start:stop].tobytes() == ref_prob.tobytes()


def test_inference_tape_dies_with_its_outputs():
    # no node of an inference tape stores a rule, so nothing closes a cycle
    # back to the tape: reference counting frees it with its last output
    model = ToyModel.init(seed=0)
    gc.collect()
    gc.disable()
    try:
        tape = Tape(np.float32)
        alive = weakref.ref(tape)
        out = model.forward(tape, small_batch(np.random.default_rng(2)))
        del tape
        assert alive() is not None
        del out
        assert alive() is None
    finally:
        gc.enable()


def test_embed_images_leaves_no_tape_alive(monkeypatch):
    tapes = []

    class RecordedTape(Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(model_module, "Tape", RecordedTape)
    model = ToyModel.init(seed=7)
    images = small_batch(np.random.default_rng(5), n=150)
    gc.collect()
    gc.disable()
    try:
        embed_images(model, images)
        assert len(tapes) == 3
        assert all(alive() is None for alive in tapes)
    finally:
        gc.enable()


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = ToyModel.init(seed=8)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(model, str(first), seed=8)
    loaded, seed = load_checkpoint(str(first))
    assert seed == 8
    assert loaded.config == model.config
    # float32 narrowing happens exactly once: re-saving reproduces the bytes
    save_checkpoint(loaded, str(second), seed=8)
    assert first.read_bytes() == second.read_bytes()
    for name in model.params:
        assert np.array_equal(loaded.params[name],
                              model.params[name].astype(np.float32).astype(np.float64))


def test_checkpoint_header_is_pinned(tmp_path):
    # the header's field order is the file format; checkpoints already on disk
    # load only while the writer keeps it
    path = tmp_path / "h.ckpt"
    save_checkpoint(ToyModel.init(seed=0), str(path), seed=0)
    raw = path.read_bytes()
    assert raw[:raw.index(b"end-header\n") + len(b"end-header\n")] == (
        b"focusface-checkpoint v1\n"
        b"seed = 0\n"
        b"input_hw = 32\n"
        b"in_channels = 1\n"
        b"stages = 8:2,16:2,32:2\n"
        b"recognition_dim = 64\n"
        b"mask_dim = 8\n"
        b"num_classes = 20\n"
        b"param conv0.weight 8 1 3 3\n"
        b"param conv0.bias 8 1 1\n"
        b"param conv0.slope scalar\n"
        b"param conv1.weight 16 8 3 3\n"
        b"param conv1.bias 16 1 1\n"
        b"param conv1.slope scalar\n"
        b"param conv2.weight 32 16 3 3\n"
        b"param conv2.bias 32 1 1\n"
        b"param conv2.slope scalar\n"
        b"param recognition.weight 512 64\n"
        b"param recognition.bias 64\n"
        b"param mask.weight 512 8\n"
        b"param mask.bias 8\n"
        b"param mask_classifier.weight 8 2\n"
        b"param mask_classifier.bias 2\n"
        b"param arcface.weight 64 20\n"
        b"end-header\n")


def test_checkpoint_with_older_frozen_line_loads(tmp_path):
    # earlier versions wrote "frozen = none|backbone" after the architecture
    # fields; such a file loads to the same config and parameters
    path = tmp_path / "a.ckpt"
    save_checkpoint(ToyModel.init(seed=8), str(path), seed=8)
    raw = path.read_bytes()
    older = tmp_path / "older.ckpt"
    older.write_bytes(raw.replace(b"num_classes = 20\n",
                                  b"num_classes = 20\nfrozen = backbone\n"))
    want, want_seed = load_checkpoint(str(path))
    got, got_seed = load_checkpoint(str(older))
    assert got.config == want.config and got_seed == want_seed == 8
    for name, value in want.params.items():
        assert got.params[name].tobytes() == value.tobytes(), name


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError, match="not a recognized checkpoint"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncated_payload(tmp_path):
    model = ToyModel.init(seed=9)
    path = tmp_path / "t.ckpt"
    save_checkpoint(model, str(path), seed=9)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def test_checkpoint_missing_header_field_named(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(ToyModel.init(seed=9), str(path), seed=9)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"num_classes = 20\n", b""))
    with pytest.raises(ValueError, match=r"m\.ckpt.*num_classes"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("line,edited,named", [
    (b"stages = 8:2,16:2,32:2", b"stages = 8:2,16", "stages field: '16' is not a channels:stride"),
    (b"stages = 8:2,16:2,32:2", b"stages = 8:0,16:2,32:2", "stages field: '8:0' is not"),
    (b"param conv0.weight 8 1 3 3", b"param conv0.weight -8 1 3 3", ""),
    (b"seed = 9", b"seed = one", "seed field: 'one' is not an integer"),
    (b"mask_dim = 8", b"mask_dim = 8.0", "mask_dim field: '8.0' is not an integer"),
    (b"param conv0.bias 8 1 1", b"param conv0.bias 8 1 x",
     "param conv0.bias field: 'x' is not an integer"),
], ids=["stages", "zero-stride", "negative-dimension", "seed", "mask_dim", "param-dimension"])
def test_checkpoint_malformed_header_named(tmp_path, line, edited, named):
    path = tmp_path / "m.ckpt"
    save_checkpoint(ToyModel.init(seed=9), str(path), seed=9)
    raw = path.read_bytes()
    assert line in raw
    path.write_bytes(raw.replace(line, edited))
    with pytest.raises(ValueError, match=r"m\.ckpt: " + re.escape(named)):
        load_checkpoint(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_non_finite_parameter_named(tmp_path, bad):
    model = ToyModel.init(seed=9)
    model.params["recognition.weight"][2, 3] = bad
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, str(path))
    with pytest.raises(ValueError,
                       match=r"m\.ckpt: parameter recognition\.weight: 1 of 32768 "
                             r"entries are inf or nan"):
        load_checkpoint(str(path))


def test_backbone_descriptor_count_matches_live_conv_params():
    config = ToyBackboneConfig()
    model = ToyModel.init(config, seed=0)
    live = sum(p.size for n, p in model.params.items() if n.startswith("conv"))
    # 3x3 conv weight + bias + PReLU slope per stage, (8, 16, 32) channels
    expected = (8 * 1 * 9 + 8 + 1) + (16 * 8 * 9 + 16 + 1) + (32 * 16 * 9 + 32 + 1)
    assert toy_scale_modules(config)[BACKBONE] == live == expected
