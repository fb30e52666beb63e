"""The loss suite and its checkable identities.

Shows the angular-margin softmax reducing to plain cross-entropy at zero
margin, its invariance to feature scale, and the weighted combination of
the two branch losses with the contrastive embedding term.
"""

import numpy as np

from focusface.autodiff import Tape
from focusface.losses import (
    arcface_loss,
    branch_loss,
    combined_loss,
    contrastive_mse,
    cross_entropy,
)

rng = np.random.default_rng(1)
batch, dim, classes = 8, 16, 5
features = rng.normal(size=(batch, dim))
targets = rng.integers(0, classes, size=batch)
# the margin head: one unconstrained weight column per class
weights = np.random.default_rng(2).normal(0.0, 0.01, (dim, classes))

# margin zero: the angular-margin loss IS softmax cross-entropy on cosines
tape = Tape()
f = tape.leaf(features)
w = tape.leaf(weights)
zero_margin = arcface_loss(tape, f, w, targets, s=64.0, m=0.0)
fn = tape.l2_normalize(f, axis=-1)
wn = tape.l2_normalize(w, axis=0)
plain = cross_entropy(tape, tape.scale(tape.matmul(fn, wn), 64.0), targets)
print(f"m=0 arcface  {zero_margin.item():.12f}")
print(f"scaled CE    {plain.item():.12f}")

# scale invariance: features live on the unit sphere, magnitude is ignored
tape = Tape()
w = tape.leaf(weights)
a = arcface_loss(tape, tape.leaf(features), w, targets, s=64.0, m=0.5)
b = arcface_loss(tape, tape.leaf(features * 37.5), w, targets, s=64.0, m=0.5)
print(f"margin loss at |f| and 37.5|f|: {a.item():.12f} vs {b.item():.12f}")

# the full combination: alpha * mse + beta * (masked + unmasked branches)
tape = Tape()
emb_u = tape.leaf(rng.normal(size=(batch, dim)))
emb_m = tape.leaf(rng.normal(size=(batch, dim)))
mse = contrastive_mse(tape, emb_u, emb_m)
w = tape.leaf(weights)
arc_u = arcface_loss(tape, emb_u, w, targets, s=64.0, m=0.5)
arc_m = arcface_loss(tape, emb_m, w, targets, s=64.0, m=0.5)
mask_logits = tape.leaf(rng.normal(size=(batch, 2)))
ce = cross_entropy(tape, mask_logits, np.zeros(batch, dtype=int))
l_u = branch_loss(tape, arc_u, ce, lambda_=0.1)
l_m = branch_loss(tape, arc_m, ce, lambda_=0.1)
total = combined_loss(tape, mse, l_m, l_u, alpha=1 / 3, beta=0.5)
by_hand = mse.item() / 3 + 0.5 * (l_m.item() + l_u.item())
print(f"combined     {total.item():.12f}")
print(f"by hand      {by_hand:.12f}")

# worked arithmetic example: mse 0.3, branches 2.0 and 1.0 with the
# default weights -> 1/3 * 0.3 + 1/2 * (2.0 + 1.0) = 0.1 + 1.5 = 1.6
tape = Tape()
parts = [tape.leaf(np.array(v)) for v in (0.3, 2.0, 1.0)]
example = combined_loss(tape, parts[0], parts[1], parts[2],
                        alpha=1 / 3, beta=0.5)
print(f"worked example: {example.item():.6f} (expect 1.6)")
