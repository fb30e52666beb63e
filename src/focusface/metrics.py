"""Verification scoring and the biometric metric suite.

Scores are cosine similarities between reference and probe embeddings.
The sweep visits every distinct score as a threshold with the match rule
score >= threshold (ties count as matches), then reads off FMR, FNMR,
the interpolated equal-error crossing, FMR100/FMR10 operating points, and
the trapezoidal area under the (FMR, 1-FNMR) curve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import EvalSplit
from .model import ToyModel, embed_images

PROTOCOL_MODES = ("um", "mm")


@dataclass(frozen=True)
class ScoreSet:
    """Genuine (same identity) and impostor (different identity) scores."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "genuine", np.asarray(self.genuine, dtype=np.float64))
        object.__setattr__(self, "impostor", np.asarray(self.impostor, dtype=np.float64))


@dataclass(frozen=True)
class MetricsReport:
    eer: float
    auc: float
    fmr100: float
    fmr10: float
    gmean: float
    imean: float
    threshold_at_eer: float

    def as_dict(self) -> dict:
        return {
            "eer": self.eer,
            "auc": self.auc,
            "fmr100": self.fmr100,
            "fmr10": self.fmr10,
            "gmean": self.gmean,
            "imean": self.imean,
            "threshold_at_eer": self.threshold_at_eer,
        }


def _checked(scores: ScoreSet):
    g, i = scores.genuine, scores.impostor
    if g.size == 0 or i.size == 0:
        raise ValueError("score set needs both genuine and impostor scores")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(i))):
        raise ValueError("score set contains non-finite values")
    return np.sort(g), np.sort(i)


def _sweep(scores: ScoreSet):
    """Thresholds ascending (with one past-the-end sentinel), FMR, FNMR."""
    g, i = _checked(scores)
    thresholds = np.unique(np.concatenate([g, i]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    fmr = (i.size - np.searchsorted(i, thresholds, side="left")) / i.size
    fnmr = np.searchsorted(g, thresholds, side="left") / g.size
    return thresholds, fmr, fnmr


def compute_metrics(scores: ScoreSet) -> MetricsReport:
    thresholds, fmr, fnmr = _sweep(scores)

    # diff is non-increasing, starts at +1 and ends at -1; interpolate the
    # bracketing segment so FMR and FNMR agree exactly at the crossing
    diff = fmr - fnmr
    k = int(np.searchsorted(-diff, 0.0, side="right")) - 1
    tau = diff[k] / (diff[k] - diff[k + 1])
    eer = fmr[k] + tau * (fmr[k + 1] - fmr[k])
    threshold_at_eer = thresholds[k] + tau * (thresholds[k + 1] - thresholds[k])

    def lowest_fnmr_at(fmr_cap):
        eligible = fnmr[fmr <= fmr_cap]
        return float(eligible.min()) if eligible.size else 1.0

    auc = float(np.trapezoid((1.0 - fnmr)[::-1], fmr[::-1]))
    return MetricsReport(
        eer=float(eer),
        auc=auc,
        fmr100=lowest_fnmr_at(0.01),
        fmr10=lowest_fnmr_at(0.10),
        gmean=float(scores.genuine.mean()),
        imean=float(scores.impostor.mean()),
        threshold_at_eer=float(threshold_at_eer),
    )


def roc_points(scores: ScoreSet) -> list:
    """(fmr, fnmr, threshold) tuples with thresholds rising, FMR falling."""
    thresholds, fmr, fnmr = _sweep(scores)
    return [(float(f), float(n), float(t))
            for f, n, t in zip(fmr, fnmr, thresholds)]


# -- scoring protocols -------------------------------------------------------

def _normalized_rows(embeddings, side: str) -> np.ndarray:
    embeddings = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(embeddings, axis=1)
    bad = np.flatnonzero(norms <= 1e-12)
    if bad.size:
        raise ValueError(f"{side} {int(bad[0])} has a zero-norm embedding")
    return embeddings / norms[:, None]


def score_pairs(ref_embeddings, ref_ids, probe_embeddings, probe_ids) -> ScoreSet:
    """Cosine scores for every reference x probe pair, split by identity."""
    refs = _normalized_rows(ref_embeddings, "reference")
    probes = _normalized_rows(probe_embeddings, "probe")
    sims = np.clip(refs @ probes.T, -1.0, 1.0)
    genuine = np.asarray(ref_ids)[:, None] == np.asarray(probe_ids)[None, :]
    return ScoreSet(sims[genuine], sims[~genuine])


def protocol_scores(model: ToyModel, split: EvalSplit, mode: str) -> ScoreSet:
    """Scores for one verification setting on an evaluation split.

    um: unmasked references against masked probes.  mm: masked references
    against masked probes.  Probes are always the masked ones.
    """
    if mode not in PROTOCOL_MODES:
        raise ValueError(f"mode must be one of {PROTOCOL_MODES}, got {mode!r}")
    refs, probes = split.references, split.probes
    ref_pick = refs.masked if mode == "mm" else ~refs.masked
    probe_pick = probes.masked
    ref_emb, _ = embed_images(model, refs.images[ref_pick][:, None])
    probe_emb, _ = embed_images(model, probes.images[probe_pick][:, None])
    return score_pairs(ref_emb, refs.identity_ids[ref_pick],
                       probe_emb, probes.identity_ids[probe_pick])


def split_mask_detection_set(split: EvalSplit):
    """All labeled images of an evaluation split, for mask-detection ROC."""
    images = np.concatenate([split.references.images, split.probes.images])
    labels = np.concatenate([split.references.masked, split.probes.masked])
    return images, labels.astype(np.int64)


def mask_detection_roc(model: ToyModel, images, mask_labels):
    """ROC points and AUC for the masked-class probability as a detector."""
    mask_labels = np.asarray(mask_labels)
    if len(set(mask_labels.tolist())) < 2:
        raise ValueError("mask-detection ROC needs both classes present")
    _, probs = embed_images(model, np.asarray(images)[:, None])
    scores = ScoreSet(genuine=probs[mask_labels == 1], impostor=probs[mask_labels == 0])
    return roc_points(scores), compute_metrics(scores).auc


# -- exports -----------------------------------------------------------------

def write_roc_csv(points, path: str) -> None:
    """CSV with header threshold,fmr,fnmr at 9 significant digits."""
    lines = ["threshold,fmr,fnmr"]
    for fmr, fnmr, threshold in points:
        lines.append(f"{threshold:.9g},{fmr:.9g},{fnmr:.9g}")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def write_metrics_report(report: MetricsReport, path: str, **metadata) -> None:
    """Flat key-value JSON document: the six metrics plus protocol metadata."""
    payload = dict(report.as_dict())
    payload.update(metadata)
    with open(path, "w", encoding="ascii") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
