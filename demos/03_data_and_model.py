"""The synthetic corpus and the two-head toy network.

Draws a masked/unmasked training pair, shows the split layout and the
evaluation protocol counts, runs the pair through a freshly initialised
model, and prints the exact parameter accounting at both scales.
"""

import numpy as np

from focusface.data import build_splits, train_batch
from focusface.model import ToyBackboneConfig, ToyModel, embed_images, toy_scale_modules
from focusface.params import full_scale_modules, summarize

# the default corpus: 33 identities split 20 train / 5 val / 8 test
corpus = build_splits()

# one training pair: a sample and the occluded version of the same image
batch = train_batch(corpus, iteration=0, batch_size=1)
unmasked, masked = batch.unmasked[0, 0], batch.masked[0, 0]


def ascii_image(img, step=2):
    chars = " .:-=+*#%@"
    lo, hi = img.min(), img.max()
    for row in img[::step, ::step]:
        scaled = (row - lo) / (hi - lo + 1e-9) * (len(chars) - 1)
        print("".join(chars[int(c)] for c in scaled))


print("unmasked sample:")
ascii_image(unmasked)
print("\nsame face, lower-face occlusion:")
ascii_image(masked)

print(f"\ntrain identities: {corpus.num_classes}")
for name, split in (("val", corpus.val), ("test", corpus.test)):
    refs, probes = split.references, split.probes
    print(f"{name}: {len(refs.images)} references "
          f"({int((~refs.masked).sum())} unmasked / {int(refs.masked.sum())} masked), "
          f"{len(probes.images)} probes from sessions "
          f"{sorted(set(probes.sessions.tolist()))}")

# forward pass: a recognition embedding and a mask posterior per image
model = ToyModel.init(ToyBackboneConfig(num_classes=corpus.num_classes), seed=0)
batch = np.stack([unmasked, masked])[:, None]  # (2, 1, 32, 32)
embeddings, mask_probs = embed_images(model, batch)
print(f"\nrecognition embeddings: {embeddings.shape}, "
      f"norms {np.linalg.norm(embeddings, axis=1).round(2)}")
print(f"mask-probability of [unmasked, masked]: {mask_probs.round(4)}")

# parameter accounting, exact at both scales
for label, counts in (("full scale", full_scale_modules()),
                      ("toy scale", toy_scale_modules())):
    s = summarize(counts)
    rows = ", ".join(f"{name} {count:,}" for name, count in s.module_counts)
    print(f"\n{label}: {rows}")
    print(f"  scratch {s.scratch_total:,} | frozen-backbone trainable "
          f"{s.frozen_trainable:,} | inference {s.inference_total:,} "
          f"| reduction {100 * s.reduction:.2f}%")
print(f"\nlive toy model total: {model.total_count():,}")
