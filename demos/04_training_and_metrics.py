"""A miniature end-to-end run: train briefly, then evaluate properly.

Uses a short 150-iteration budget on a small corpus so the demo finishes
in under a minute; the real defaults (1200 iterations, 33 identities)
live in the CLI and the acceptance tests.
"""

import numpy as np

from focusface.data import build_splits
from focusface.metrics import (
    ScoreSet,
    compute_metrics,
    mask_detection_roc,
    protocol_scores,
    split_mask_detection_set,
)
from focusface.training import TrainConfig, best_model, fit, parse_log_mse

corpus = build_splits(num_identities=20, samples_per_identity=16,
                      dataset_seed=11)
config = TrainConfig(seed=0, max_iterations=150, milestones=(75, 120),
                     eval_interval=50)
state, log = fit(config, corpus)
model = best_model(state)

print("last three log lines:")
for line in log[-3:]:
    print(" ", line)

mse = parse_log_mse(log)
print(f"\ncontrastive mse: first step {mse[0]:.4f}, last step {mse[-1]:.4f}")

# the two verification settings share probes, differ in references
for mode, label in (("um", "unmasked refs / masked probes"),
                    ("mm", "masked refs / masked probes")):
    report = compute_metrics(protocol_scores(model, corpus.test, mode))
    print(f"{mode} ({label}): eer {report.eer:.3f} fmr100 {report.fmr100:.3f} "
          f"auc {report.auc:.3f} gmean {report.gmean:.3f} imean {report.imean:.3f}")

# the mask head doubles as a mask detector
images, labels = split_mask_detection_set(corpus.test)
points, auc = mask_detection_roc(model, images, labels)
print(f"mask-detection auc after {config.max_iterations} iterations: {auc:.4f}")

# metrics are pure functions of score sets; a hand-checkable example
scores = ScoreSet(genuine=np.array([0.9, 0.7, 0.6, 0.4]),
                  impostor=np.array([0.5, 0.3, 0.2, 0.1]))
tiny = compute_metrics(scores)
print(f"\nworked example: eer {tiny.eer} fmr100 {tiny.fmr100} (expect 0.25 / 0.25)")
