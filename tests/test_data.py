"""Rendering determinism, occluder behavior, pairing, splits, disk format."""

import numpy as np
import pytest

from focusface.data import (
    COVERAGE_RANGE,
    IMAGE_HW,
    MASK_TYPES,
    MaskSpec,
    apply_mask,
    build_splits,
    draw_mask_spec,
    identity_spec,
    load_corpus,
    occluder_pattern,
    render_sample,
    save_corpus,
    split_identity_counts,
    train_batch,
)


def test_render_deterministic():
    spec = identity_spec(0, 5)
    assert np.array_equal(render_sample(spec, 9), render_sample(spec, 9))


def test_render_range_and_shape():
    rng = np.random.default_rng(0)
    for _ in range(20):
        spec = identity_spec(int(rng.integers(1000)), int(rng.integers(50)))
        img = render_sample(spec, int(rng.integers(1000)))
        assert img.shape == (IMAGE_HW, IMAGE_HW)
        assert img.min() >= -1.0 and img.max() <= 1.0


def test_identity_spec_stable_per_dataset_seed():
    assert identity_spec(3, 7) == identity_spec(3, 7)
    assert identity_spec(3, 7) != identity_spec(4, 7)


def test_same_identity_correlates_more_than_different():
    # averaged over 100 seeded trials; the identity signal must dominate jitter
    rng = np.random.default_rng(42)
    within, across = [], []
    for trial in range(100):
        a = identity_spec(1, 2 * trial)
        b = identity_spec(1, 2 * trial + 1)
        s1, s2, s3 = (int(x) for x in rng.integers(0, 10_000, 3))
        x1, x2 = render_sample(a, s1).ravel(), render_sample(a, s2).ravel()
        y = render_sample(b, s3).ravel()
        within.append(np.corrcoef(x1, x2)[0, 1])
        across.append(np.corrcoef(x1, y)[0, 1])
    assert np.mean(within) > np.mean(across)


def test_mask_spec_validation():
    with pytest.raises(ValueError, match="mask_type"):
        MaskSpec("bandana", 0.5, 0.5)
    with pytest.raises(ValueError, match="coverage"):
        MaskSpec("surgical", 0.5, 0.001)  # rounds to zero occluded rows
    with pytest.raises(ValueError, match="coverage"):
        MaskSpec("surgical", 0.5, 1.0)  # would cover the whole image
    with pytest.raises(ValueError, match="color_intensity"):
        MaskSpec("surgical", 1.5, 0.5)
    MaskSpec("surgical", 0.5, 0.25)  # outside the default sampling range is fine


def test_coverage_range_is_honored_and_validated():
    rng = np.random.default_rng(0)
    specs = [draw_mask_spec(rng, (0.25, 0.30)) for _ in range(50)]
    assert all(0.25 <= s.coverage <= 0.30 for s in specs)
    with pytest.raises(ValueError, match="coverage"):
        build_splits(6, 2, coverage_range=(0.5, 0.4))
    with pytest.raises(ValueError, match="coverage"):
        build_splits(6, 2, coverage_range=(0.0, 0.5))
    corpus = build_splits(6, 2, coverage_range=(0.45, 0.50))
    assert corpus.coverage_range == (0.45, 0.50)


def test_apply_mask_preserves_top_rows():
    img = render_sample(identity_spec(0, 1), 0)
    masked = apply_mask(img, MaskSpec("surgical", 0.7, 0.5))
    assert np.array_equal(masked[:16], img[:16])
    assert not np.array_equal(masked[16:], img[16:])


def test_apply_mask_idempotent_and_pure():
    img = render_sample(identity_spec(0, 2), 0)
    spec = MaskSpec("kn95", 0.3, 0.45)
    once = apply_mask(img, spec)
    assert np.array_equal(apply_mask(once, spec), once)
    other = apply_mask(render_sample(identity_spec(0, 3), 1), spec)
    rows = spec.rows
    assert np.array_equal(once[-rows:], other[-rows:])


def test_masked_region_distinguishable():
    rng = np.random.default_rng(7)
    diffs = []
    for trial in range(50):
        spec = identity_spec(trial, trial)
        img = render_sample(spec, 0)
        mspec = MaskSpec(MASK_TYPES[trial % 4], float(rng.uniform(-0.2, 1.0)),
                         float(rng.uniform(*COVERAGE_RANGE)))
        rows = mspec.rows
        diffs.append(np.abs(apply_mask(img, mspec)[-rows:] - img[-rows:]).mean())
    assert np.mean(diffs) > 0.1


def test_mask_types_render_distinct_patterns():
    patterns = [occluder_pattern(MaskSpec(t, 0.5, 0.5)) for t in MASK_TYPES]
    for i in range(len(patterns)):
        for j in range(i + 1, len(patterns)):
            assert not np.array_equal(patterns[i], patterns[j])


def test_occluder_stays_inside_canvas():
    for t in MASK_TYPES:
        pattern = occluder_pattern(MaskSpec(t, 0.9, 0.55))
        assert pattern.shape[1] == IMAGE_HW
        assert np.all(pattern[:, 0] == -1.0) and np.all(pattern[:, -1] == -1.0)


def test_split_identity_counts():
    assert split_identity_counts(33) == (20, 5, 8)
    train, val, test = split_identity_counts(10)
    assert train + val + test == 10 and test >= 2
    with pytest.raises(ValueError, match="at least 2"):
        split_identity_counts(1)


def test_build_splits_structure():
    corpus = build_splits(33, 8, dataset_seed=1)
    assert corpus.num_classes == 20
    assert corpus.train_unmasked.shape == (20, 8, 32, 32)
    for split, n_ids in ((corpus.val, 5), (corpus.test, 8)):
        refs, probes = split.references, split.probes
        assert len(refs.images) == 6 * n_ids
        assert len(probes.images) == 12 * n_ids
        # masked:unmasked is 2:1 on both sides
        assert refs.masked.sum() == 2 * (~refs.masked).sum()
        assert probes.masked.sum() == 2 * (~probes.masked).sum()
        assert set(refs.sessions) == {1}
        assert set(probes.sessions) == {2, 3}
        # same identities on both sides, never shared with other splits
        assert set(refs.identity_ids) == set(probes.identity_ids)
    train_set = set(corpus.train_identity_ids)
    val_set = set(corpus.val.references.identity_ids)
    test_set = set(corpus.test.references.identity_ids)
    assert not (train_set & val_set) and not (train_set & test_set)
    assert not (val_set & test_set)


def test_build_splits_deterministic():
    a = build_splits(12, 4, dataset_seed=3)
    b = build_splits(12, 4, dataset_seed=3)
    assert np.array_equal(a.train_unmasked, b.train_unmasked)
    assert np.array_equal(a.train_masked, b.train_masked)
    assert np.array_equal(a.test.probes.images, b.test.probes.images)
    c = build_splits(12, 4, dataset_seed=4)
    assert not np.array_equal(a.train_unmasked, c.train_unmasked)


def test_references_and_probes_use_disjoint_variation_seeds():
    corpus = build_splits(12, 4, dataset_seed=5)
    refs, probes = corpus.test.references, corpus.test.probes
    ident = refs.identity_ids[0]
    ref_imgs = refs.images[(refs.identity_ids == ident) & ~refs.masked]
    probe_imgs = probes.images[(probes.identity_ids == ident) & ~probes.masked]
    for r in ref_imgs:
        for p in probe_imgs:
            assert not np.array_equal(r, p)


def test_train_batch_deterministic_and_labeled():
    corpus = build_splits(12, 4, dataset_seed=6)
    a = train_batch(corpus, 17, 16, seed=2)
    b = train_batch(corpus, 17, 16, seed=2)
    assert np.array_equal(a.unmasked, b.unmasked)
    assert np.array_equal(a.masked, b.masked)
    assert np.array_equal(a.identity_labels, b.identity_labels)
    assert a.identity_labels.min() >= 0
    assert a.identity_labels.max() < corpus.num_classes
    assert np.all(a.mask_labels_unmasked == 0) and np.all(a.mask_labels_masked == 1)
    c = train_batch(corpus, 18, 16, seed=2)
    assert not np.array_equal(a.unmasked, c.unmasked)


def test_train_batch_flip_synchronized():
    corpus = build_splits(12, 4, dataset_seed=7)
    batch, (ids, idx, src) = train_batch(corpus, 3, 32, seed=3, return_indices=True)
    assert np.array_equal(src, idx)  # original mode
    for k in range(32):
        u = corpus.train_unmasked[ids[k], idx[k]]
        m = corpus.train_masked[ids[k], src[k]]
        if batch.flip_flags[k]:
            u, m = np.flip(u, axis=-1), np.flip(m, axis=-1)
        assert np.array_equal(batch.unmasked[k, 0], u)
        assert np.array_equal(batch.masked[k, 0], m)


def test_train_batch_random_selection_avoids_anchor():
    corpus = build_splits(12, 4, dataset_seed=8)
    _, (ids, idx, src) = train_batch(corpus, 3, 64, selection="random", seed=4,
                                     return_indices=True)
    assert np.all(src != idx)
    assert src.min() >= 0 and src.max() < corpus.samples_per_identity


def test_train_batch_original_shares_top_rows():
    corpus = build_splits(12, 4, dataset_seed=4)
    batch = train_batch(corpus, 11, 64, selection="original", seed=1)
    # worst-case coverage 0.55 -> 18 rows; a flip mirrors both members
    assert np.array_equal(batch.unmasked[:, 0, :13], batch.masked[:, 0, :13])


def test_train_batch_random_top_rows_generally_differ():
    corpus = build_splits(12, 4, dataset_seed=6)
    batch = train_batch(corpus, 0, 100, selection="random", seed=1)
    differing = sum(not np.array_equal(u[0, :13], m[0, :13])
                    for u, m in zip(batch.unmasked, batch.masked))
    assert differing >= 90


def test_train_batch_random_selection_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2 samples per identity"):
        train_batch(build_splits(12, 1, dataset_seed=9), 0, 8, selection="random")
    # with two samples, the masked member is always the other one
    _, (_, idx, src) = train_batch(build_splits(12, 2, dataset_seed=9), 0, 32,
                                   selection="random", return_indices=True)
    assert np.array_equal(src, 1 - idx)


def test_corpus_round_trip(tmp_path):
    corpus = build_splits(8, 3, dataset_seed=9)
    out = tmp_path / "corpus"
    save_corpus(corpus, str(out))
    loaded = load_corpus(str(out))
    assert loaded.dataset_seed == 9
    assert loaded.samples_per_identity == 3
    assert np.array_equal(loaded.train_identity_ids, corpus.train_identity_ids)
    assert np.array_equal(loaded.train_unmasked, corpus.train_unmasked)
    assert np.array_equal(loaded.train_masked, corpus.train_masked)
    for split in ("val", "test"):
        for side in ("references", "probes"):
            got = getattr(getattr(loaded, split), side)
            want = getattr(getattr(corpus, split), side)
            assert np.array_equal(got.images, want.images)
            assert np.array_equal(got.identity_ids, want.identity_ids)
            assert np.array_equal(got.masked, want.masked)
            assert np.array_equal(got.sessions, want.sessions)


def test_manifest_byte_identical_across_writes(tmp_path):
    corpus = build_splits(8, 3, dataset_seed=10)
    a, b = tmp_path / "a", tmp_path / "b"
    save_corpus(corpus, str(a))
    save_corpus(corpus, str(b))
    assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()


def test_load_rejects_foreign_manifest(tmp_path):
    out = tmp_path / "corpus"
    out.mkdir()
    (out / "manifest.tsv").write_text("something else\n")
    with pytest.raises(ValueError, match="not a recognized corpus manifest"):
        load_corpus(str(out))


def _edit_manifest(tmp_path, edit):
    """A saved corpus whose manifest text went through ``edit``."""
    out = tmp_path / "corpus"
    save_corpus(build_splits(8, 3, dataset_seed=9), str(out))
    manifest = out / "manifest.tsv"
    manifest.write_text(edit(manifest.read_text()))
    return str(out)


def test_load_rejects_manifest_without_samples_line(tmp_path):
    out = _edit_manifest(tmp_path, lambda text: "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("# samples_per_identity")))
    with pytest.raises(ValueError, match=r"manifest\.tsv .*samples_per_identity"):
        load_corpus(out)


def test_load_rejects_rows_beyond_declared_samples(tmp_path):
    out = _edit_manifest(tmp_path, lambda text: text.replace(
        "# samples_per_identity = 3", "# samples_per_identity = 2"))
    with pytest.raises(ValueError, match=r"manifest\.tsv: train row .*_train_u0002"):
        load_corpus(out)
