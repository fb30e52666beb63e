"""Independent brute-force oracles shared by the metric tests.

The sweep here deliberately avoids the library's vectorized path: every
distinct score is visited in a plain loop and counted directly against the
match rule (score >= threshold means match), with no sorting shortcuts.
"""

import numpy as np


def random_scoreset(rng):
    """Overlapping Gaussian genuine/impostor scores, sizes 10..500.

    A third of the sets are quantized to two decimals to force ties both
    within and across the two lists.
    """
    n_genuine = int(rng.integers(10, 501))
    n_impostor = int(rng.integers(10, 501))
    mu_genuine = float(rng.uniform(0.2, 0.7))
    mu_impostor = mu_genuine - float(rng.uniform(0.05, 0.4))
    sd = float(rng.uniform(0.1, 0.3))
    genuine = rng.normal(mu_genuine, sd, n_genuine)
    impostor = rng.normal(mu_impostor, sd, n_impostor)
    if rng.random() < 1 / 3:
        genuine = np.round(genuine, 2)
        impostor = np.round(impostor, 2)
    return genuine, impostor


def oracle_rows(genuine, impostor):
    """Brute-force threshold sweep: one (threshold, fmr, fnmr) row per distinct
    score, ascending, then the sentinel max + 1.0."""
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    thresholds = sorted(set(genuine.tolist()) | set(impostor.tolist()))
    thresholds.append(thresholds[-1] + 1.0)

    rows = []
    for t in thresholds:
        fmr = int(np.count_nonzero(impostor >= t)) / impostor.size
        fnmr = int(np.count_nonzero(genuine < t)) / genuine.size
        rows.append((t, fmr, fnmr))
    return rows


def oracle_metrics(genuine, impostor):
    """Brute-force threshold sweep; returns the same fields as the library."""
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    rows = oracle_rows(genuine, impostor)

    eer = threshold_at_eer = None
    for k in range(len(rows) - 1):
        d0 = rows[k][1] - rows[k][2]
        d1 = rows[k + 1][1] - rows[k + 1][2]
        if d0 >= 0 > d1:
            tau = d0 / (d0 - d1)
            eer = rows[k][1] + tau * (rows[k + 1][1] - rows[k][1])
            threshold_at_eer = rows[k][0] + tau * (rows[k + 1][0] - rows[k][0])
            break

    def lowest_fnmr(cap):
        best = 1.0
        found = False
        for _, fmr, fnmr in rows:
            if fmr <= cap:
                found = True
                best = min(best, fnmr)
        return best if found else 1.0

    points = sorted((fmr, 1.0 - fnmr) for _, fmr, fnmr in rows)
    auc = 0.0
    for k in range(len(points) - 1):
        x0, y0 = points[k]
        x1, y1 = points[k + 1]
        auc += 0.5 * (y0 + y1) * (x1 - x0)

    return {
        "eer": eer,
        "auc": auc,
        "fmr100": lowest_fnmr(0.01),
        "fmr10": lowest_fnmr(0.10),
        "gmean": float(genuine.mean()),
        "imean": float(impostor.mean()),
        "threshold_at_eer": threshold_at_eer,
    }
