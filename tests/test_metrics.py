"""Metric suite vs the brute-force oracle, plus scoring and export paths."""

import csv
import json

import numpy as np
import pytest

from oracles import oracle_metrics, oracle_rows, random_scoreset

from focusface.data import build_splits
from focusface.metrics import (
    MetricsReport,
    ScoreSet,
    compute_metrics,
    mask_detection_roc,
    protocol_scores,
    roc_points,
    score_pairs,
    split_mask_detection_set,
    write_metrics_report,
    write_roc_csv,
)
from focusface.model import ToyModel, embed_images

REPORT_FIELDS = ("eer", "auc", "fmr100", "fmr10", "gmean", "imean", "threshold_at_eer")


def assert_matches_oracle(scores: ScoreSet, tol=1e-9):
    report = compute_metrics(scores)
    want = oracle_metrics(scores.genuine, scores.impostor)
    for field in REPORT_FIELDS:
        assert abs(getattr(report, field) - want[field]) <= tol, field


# -- worked examples ---------------------------------------------------------

def test_perfect_separation():
    report = compute_metrics(ScoreSet([0.9, 0.8], [0.1, 0.2]))
    assert report.eer == 0.0
    assert report.auc == 1.0
    assert report.fmr100 == 0.0


def test_quarter_error_example():
    scores = ScoreSet([0.9, 0.7, 0.6, 0.4], [0.5, 0.3, 0.2, 0.1])
    report = compute_metrics(scores)
    assert abs(report.eer - 0.25) <= 1e-9
    assert abs(report.fmr100 - 0.25) <= 1e-9
    assert abs(report.threshold_at_eer - 0.5) <= 1e-9
    assert_matches_oracle(scores)


def test_identical_distributions_are_chance_level():
    values = [0.1, 0.25, 0.4, 0.6, 0.8]
    report = compute_metrics(ScoreSet(values, values))
    assert abs(report.eer - 0.5) <= 1e-9
    assert abs(report.auc - 0.5) <= 1e-9


def test_gmean_imean():
    report = compute_metrics(ScoreSet([0.2, 0.4], [0.0, -0.4]))
    assert report.gmean == pytest.approx(0.3)
    assert report.imean == pytest.approx(-0.2)


# -- errors ------------------------------------------------------------------

def test_empty_side_rejected():
    with pytest.raises(ValueError, match="genuine and impostor"):
        compute_metrics(ScoreSet([], [0.1]))
    with pytest.raises(ValueError, match="genuine and impostor"):
        compute_metrics(ScoreSet([0.1], []))


def test_non_finite_scores_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        compute_metrics(ScoreSet([0.1, np.nan], [0.0]))


@pytest.mark.parametrize("genuine, impostor", [
    ([2.0**60] * 3, [2.0**60] * 5),
    ([2.0**60, 0.5, 0.1], [2.0**60, 0.2, -3.0]),
    ([0.5], [2.0**53]),
])
def test_scores_without_a_sentinel_rejected(genuine, impostor):
    # max + 1.0 rounds back to max, so no threshold lies above every score
    for sweep in (compute_metrics, roc_points):
        with pytest.raises(ValueError, match=r"max \+ 1\.0 rounds back"):
            sweep(ScoreSet(genuine, impostor))


# -- oracle equivalence ------------------------------------------------------

def test_matches_brute_force_oracle_on_random_sets():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        genuine, impostor = random_scoreset(rng)
        assert_matches_oracle(ScoreSet(genuine, impostor))


def test_report_invariants_on_random_sets():
    rng = np.random.default_rng(77)
    for _ in range(50):
        genuine, impostor = random_scoreset(rng)
        report = compute_metrics(ScoreSet(genuine, impostor))
        assert 0.0 <= report.eer <= 1.0
        assert 0.0 <= report.auc <= 1.0
        assert report.fmr100 >= report.fmr10 >= 0.0


def test_monotone_transform_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        genuine, impostor = random_scoreset(rng)
        before = compute_metrics(ScoreSet(genuine, impostor))
        after = compute_metrics(ScoreSet(genuine**3 + 3 * genuine,
                                         impostor**3 + 3 * impostor))
        for field in ("eer", "auc", "fmr100", "fmr10"):
            assert abs(getattr(before, field) - getattr(after, field)) <= 1e-12


def test_strong_genuine_score_never_hurts_operating_points():
    rng = np.random.default_rng(6)
    for _ in range(30):
        genuine, impostor = random_scoreset(rng)
        before = compute_metrics(ScoreSet(genuine, impostor))
        boosted = np.append(genuine, impostor.max() + 1.0)
        after = compute_metrics(ScoreSet(boosted, impostor))
        assert after.fmr100 <= before.fmr100 + 1e-12
        assert after.fmr10 <= before.fmr10 + 1e-12


# -- roc points --------------------------------------------------------------

def sweep_cases():
    """Score sets for the sweep tests: random ones, signed zeros, all-tied
    sets, and one whose maximum is so large that max + 1.0 is the next float."""
    rng = np.random.default_rng(31)
    cases = [random_scoreset(rng) for _ in range(40)]
    cases += [([0.0, -0.0, 0.5], [-0.0, 0.0, -0.5]),
              ([-0.0, -0.0], [0.0]),
              (rng.choice([-0.0, 0.0, 0.25], 50), rng.choice([-0.0, 0.0, -0.25], 70))]
    cases += [([v] * 3, [v] * 5) for v in (0.3, -0.0, 2.0**52)]
    cases.append(([2.0**52, 0.5, 0.1], [2.0**52, 0.2, -3.0]))
    return cases


def test_roc_points_match_oracle_rows_bit_for_bit():
    for genuine, impostor in sweep_cases():
        fmr, fnmr, thresholds = roc_points(ScoreSet(genuine, impostor))
        want_t, want_fmr, want_fnmr = (np.array(c) for c in zip(*oracle_rows(genuine, impostor)))
        assert fmr.tobytes() == want_fmr.tobytes()
        assert fnmr.tobytes() == want_fnmr.tobytes()
        assert thresholds.shape == want_t.shape and np.all(thresholds == want_t)


def test_roc_points_do_not_depend_on_score_order():
    rng = np.random.default_rng(32)
    for genuine, impostor in sweep_cases():
        genuine, impostor = np.asarray(genuine, float), np.asarray(impostor, float)
        curve = roc_points(ScoreSet(genuine, impostor))
        shuffled = roc_points(ScoreSet(rng.permutation(genuine), rng.permutation(impostor)))
        for got, want in zip(shuffled, curve):
            assert got.tobytes() == want.tobytes()


def test_roc_points_are_finite_float64_arrays():
    for genuine, impostor in sweep_cases():
        points = roc_points(ScoreSet(genuine, impostor))
        assert len(points) == 3
        for values in points:
            assert values.dtype == np.float64 and values.shape == points[2].shape
            assert np.all(np.isfinite(values))


def test_roc_points_shape_and_endpoints():
    rng = np.random.default_rng(8)
    genuine, impostor = random_scoreset(rng)
    fmr, _, thresholds = roc_points(ScoreSet(genuine, impostor))
    distinct = len(set(genuine.tolist()) | set(impostor.tolist()))
    assert thresholds.size <= distinct + 2
    assert fmr[0] == 1.0 and fmr[-1] == 0.0
    assert np.all(fmr[:-1] >= fmr[1:])
    assert np.all(thresholds[:-1] < thresholds[1:])


def test_roc_passes_through_origin_for_perfect_separation():
    fmr, fnmr, _ = roc_points(ScoreSet([0.9, 0.8], [0.1, 0.2]))
    assert np.any((fmr == 0.0) & (fnmr == 0.0))


def test_roc_auc_consistent_with_report():
    rng = np.random.default_rng(9)
    for _ in range(10):
        genuine, impostor = random_scoreset(rng)
        scores = ScoreSet(genuine, impostor)
        fmr, fnmr, _ = roc_points(scores)
        points = sorted(zip(fmr.tolist(), (1.0 - fnmr).tolist()))
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        auc = float(np.trapezoid(ys, xs))
        assert abs(auc - compute_metrics(scores).auc) <= 1e-12


# -- pair scoring ------------------------------------------------------------

def test_score_pairs_counts():
    refs = np.array([[1.0, 0.0], [0.0, 1.0]])
    probes = np.array([[1.0, 0.1], [0.1, 1.0]])
    scores = score_pairs(refs, [0, 1], probes, [0, 1])
    assert scores.genuine.size == 2
    assert scores.impostor.size == 2


def test_score_pairs_equal_embeddings_per_identity():
    emb = {0: [0.6, 0.8], 1: [-0.8, 0.6]}
    refs = np.array([emb[0], emb[1]])
    probes = np.array([emb[0], emb[1], emb[0]])
    scores = score_pairs(refs, [0, 1], probes, [0, 1, 0])
    assert np.allclose(scores.genuine, 1.0)
    assert np.all(scores.impostor < 1.0)


def test_score_pairs_cosine_values():
    v = np.array([1.0, 2.0, 2.0])
    scores = score_pairs([v], [0], [v, -v], [0, 1])
    assert scores.genuine[0] == pytest.approx(1.0, abs=1e-15)
    assert scores.impostor[0] == pytest.approx(-1.0, abs=1e-15)
    assert score_pairs([[1.0, 0.0]], [0], [[0.0, 5.0]], [0]).genuine[0] == 0.0


def test_score_pairs_zero_embedding_named():
    with pytest.raises(ValueError, match="probe 1 has a zero-norm embedding"):
        score_pairs(np.eye(2), [0, 1], np.array([[1.0, 0.0], [0.0, 0.0]]), [0, 1])


def test_cosine_similarity_zero_vector_rejected():
    # A zero vector has no direction, so its cosine to anything is undefined.
    with pytest.raises(ValueError, match="reference 0 has a zero-norm embedding"):
        score_pairs([[0.0, 0.0]], [0], [[1.0, 0.0]], [0])


def test_protocol_scores_counts_match_split_structure():
    corpus = build_splits(33, 2, dataset_seed=11)
    model = ToyModel.init(seed=0)
    um = protocol_scores(model, corpus.test, "um")
    # 8 identities: 2 unmasked refs and 8 masked probes each
    assert um.genuine.size == 8 * 2 * 8
    assert um.genuine.size + um.impostor.size == (8 * 2) * (8 * 8)
    mm = protocol_scores(model, corpus.test, "mm")
    assert mm.genuine.size == 8 * 4 * 8
    assert mm.genuine.size + mm.impostor.size == (8 * 4) * (8 * 8)
    with pytest.raises(ValueError, match="mode"):
        protocol_scores(model, corpus.test, "uu")


# -- mask detection ----------------------------------------------------------

def test_mask_detection_roc_runs_and_bounds():
    corpus = build_splits(12, 2, dataset_seed=12)
    model = ToyModel.init(seed=1)
    images, labels = split_mask_detection_set(corpus.test)
    (fmr, fnmr, thresholds), auc = mask_detection_roc(model, images, labels)
    assert 0.0 <= auc <= 1.0
    assert thresholds.size >= 2 and fmr.shape == fnmr.shape == thresholds.shape
    # the AUC comes from the same sweep as the points, with compute_metrics' bits
    _, probs = embed_images(model, images[:, None])
    scores = ScoreSet(probs[labels == 1], probs[labels == 0])
    assert auc == compute_metrics(scores).auc


def test_mask_detection_label_inversion_flips_auc():
    corpus = build_splits(12, 2, dataset_seed=13)
    model = ToyModel.init(seed=2)
    images, labels = split_mask_detection_set(corpus.test)
    _, auc = mask_detection_roc(model, images, labels)
    _, flipped = mask_detection_roc(model, images, 1 - labels)
    assert abs((1.0 - auc) - flipped) <= 1e-12


def test_mask_detection_single_class_rejected():
    model = ToyModel.init(seed=3)
    images = np.zeros((4, 32, 32))
    with pytest.raises(ValueError, match="both classes"):
        mask_detection_roc(model, images, [1, 1, 1, 1])


# -- exports -----------------------------------------------------------------

def test_roc_csv_format(tmp_path):
    scores = ScoreSet([0.9, 0.7, 0.6, 0.4], [0.5, 0.3, 0.2, 0.1])
    path = tmp_path / "roc.csv"
    write_roc_csv(roc_points(scores), str(path))
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["threshold", "fmr", "fnmr"]
    parsed = [(float(t), float(f), float(n)) for t, f, n in rows[1:]]
    fmr, fnmr, thresholds = roc_points(scores)
    assert len(parsed) == thresholds.size
    for (t, f, n), pf, pn, pt in zip(parsed, fmr, fnmr, thresholds):
        assert abs(t - pt) <= 1e-8 and abs(f - pf) <= 1e-8 and abs(n - pn) <= 1e-8


def test_metrics_report_json(tmp_path):
    report = compute_metrics(ScoreSet([0.9, 0.7], [0.2, 0.1]))
    path = tmp_path / "report.json"
    write_metrics_report(report, str(path), mode="um", split="test")
    payload = json.loads(path.read_text())
    for field in REPORT_FIELDS:
        assert field in payload
    assert payload["mode"] == "um"
    assert payload["split"] == "test"


def test_report_fields_complete():
    assert set(REPORT_FIELDS) == set(MetricsReport(0, 0, 0, 0, 0, 0, 0).as_dict())
