"""Verification scoring and the biometric metric suite.

Scores are cosine similarities between reference and probe embeddings.
The sweep visits every distinct score as a threshold with the match rule
score >= threshold (ties count as matches), then reads off FMR, FNMR,
the interpolated equal-error crossing, FMR100/FMR10 operating points, and
the trapezoidal area under the (FMR, 1-FNMR) curve.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

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
        return asdict(self)


def _checked(scores: ScoreSet):
    g, i = scores.genuine, scores.impostor
    if g.size == 0 or i.size == 0:
        raise ValueError("score set needs both genuine and impostor scores")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(i))):
        raise ValueError("score set contains non-finite values")
    return g, i


def roc_points(scores: ScoreSet):
    """The sweep as float64 arrays ``(fmr, fnmr, thresholds)``.

    Thresholds rise over every distinct score plus one sentinel past the
    end (``max + 1.0``), and FMR falls.  One sort of all scores does it: each
    run of equal values is a threshold (a zero is written +0.0, whichever
    zero sorted first), its start index counts the scores below it, and a
    bincount of the genuine scores' runs counts the genuine ones.  The
    sentinel row has FMR 0: a set whose ``max + 1.0`` is ``max`` is rejected.
    """
    g, i = _checked(scores)
    ranked = np.concatenate([g, i])
    ranked.sort()
    run_start = np.empty(ranked.size, dtype=bool)
    run_start[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=run_start[1:])
    # below[k]: scores below thresholds[k], all of them at the sentinel
    below = np.append(np.flatnonzero(run_start), ranked.size)
    thresholds = ranked.take(below, mode="clip")  # the sentinel's index clips to max
    del ranked, run_start  # freed here, not at return, to lower the peak memory
    thresholds += 0.0  # -0.0 + 0.0 is +0.0
    thresholds[-1] += 1.0
    if thresholds[-1] == thresholds[-2]:
        raise ValueError(f"score set's largest score {float(thresholds[-2])!r} leaves no "
                         "threshold above every score: max + 1.0 rounds back to it")
    # genuine_below[k]: genuine scores in the runs before run k
    runs = np.searchsorted(thresholds[:-1], g)
    genuine_below = np.cumsum(np.bincount(runs + 1, minlength=thresholds.size))
    fnmr = genuine_below / g.size
    below -= genuine_below
    fmr = (i.size - below) / i.size
    return fmr, fnmr, thresholds


def _auc(fmr, fnmr) -> float:
    """Trapezoidal area under the (FMR, 1 - FNMR) curve of a sweep."""
    return float(np.trapezoid((1.0 - fnmr)[::-1], fmr[::-1]))


def compute_metrics(scores: ScoreSet) -> MetricsReport:
    fmr, fnmr, thresholds = roc_points(scores)
    auc = _auc(fmr, fnmr)

    # rise is non-decreasing, starts at -1 and ends at +1; interpolate the
    # bracketing segment so FMR and FNMR agree exactly at the crossing
    rise = fnmr - fmr
    k = int(np.searchsorted(rise, 0.0, side="right")) - 1
    tau = rise[k] / (rise[k] - rise[k + 1])
    eer = fmr[k] + tau * (fmr[k + 1] - fmr[k])
    threshold_at_eer = thresholds[k] + tau * (thresholds[k + 1] - thresholds[k])

    def lowest_fnmr_at(fmr_cap):
        eligible = fnmr[fmr <= fmr_cap]
        return float(eligible.min()) if eligible.size else 1.0

    return MetricsReport(
        eer=float(eer),
        auc=auc,
        fmr100=lowest_fnmr_at(0.01),
        fmr10=lowest_fnmr_at(0.10),
        gmean=float(scores.genuine.mean()),
        imean=float(scores.impostor.mean()),
        threshold_at_eer=float(threshold_at_eer),
    )


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
    """``roc_points`` arrays and AUC for the masked-class probability as a detector."""
    mask_labels = np.asarray(mask_labels)
    if len(set(mask_labels.tolist())) < 2:
        raise ValueError("mask-detection ROC needs both classes present")
    _, probs = embed_images(model, np.asarray(images)[:, None])
    points = roc_points(ScoreSet(genuine=probs[mask_labels == 1],
                                 impostor=probs[mask_labels == 0]))
    return points, _auc(*points[:2])


# -- exports -----------------------------------------------------------------

def write_roc_csv(points, path: str) -> None:
    """CSV of ``roc_points`` arrays: header threshold,fmr,fnmr, 9 significant digits."""
    fmr, fnmr, thresholds = points
    lines = ["threshold,fmr,fnmr"]
    for f, n, t in zip(fmr.tolist(), fnmr.tolist(), thresholds.tolist()):
        lines.append(f"{t:.9g},{f:.9g},{n:.9g}")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def write_metrics_report(report: MetricsReport, path: str, **metadata) -> None:
    """Flat key-value JSON document: the report fields plus protocol metadata."""
    payload = {**report.as_dict(), **metadata}
    with open(path, "w", encoding="ascii") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
