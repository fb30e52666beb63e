"""Deterministic synthetic identity corpus with occlusion augmentation.

Identities are fixed mixtures of six signed Gaussian intensity blobs on a
zero-valued 32x32 canvas in [-1, 1]. Signed blobs on a zero background keep
the corpus free of a dominant shared component, so embeddings of different
subjects are not collinear at initialization (the toy network has no batch
norm to center that away). Three blobs are anchored in the top rows that no
occluder reaches, so every subject stays verifiable when the bottom of the
image is covered. Samples add seeded jitter (integer translation, additive
noise). Occluders overwrite the bottom rows with one of four distinct
geometries. Every randomness site is keyed by explicit integer seed
sequences, so the whole corpus is a pure function of its dataset seed and
parallel generation cannot change the result.

One generator, ``_cells``, gives the order of every image: manifest rows,
saved files and the images ``build_splits`` renders and ``load_corpus``
reads.  One slot generator, ``_slots``, names the array and index of each
image: ``_assemble`` writes a ``Corpus`` through it, ``save_corpus`` reads
one through it.
The manifest header keeps the coverage range at full precision, and
``load_corpus`` rejects rows the protocol would not write, or an identity in
two splits, before it reads an image.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

IMAGE_HW = 32
BLOB_COUNT = 6
ANCHORED_BLOBS = 3
ANCHOR_MAX_ROW = 11.0
NOISE_SIGMA = 0.05
MAX_SHIFT = 2

MASK_TYPES = ("surgical", "n95", "kn95", "cloth")
COVERAGE_RANGE = (0.40, 0.55)

MANIFEST_NAME = "manifest.tsv"
MANIFEST_MAGIC = "# focusface-manifest v1"

# seed-stream tags: each draw site uses default_rng([anchor seed, tag, ...]);
# a tag's value is part of every draw it keys, so never renumber or reuse one
_TAG_IDENTITY = 1
_TAG_MASK = 2
_TAG_BATCH = 4

# per-identity evaluation protocol: session-1 references, session-2/3 probes.
# Each side, keyed by its EvalSplit field, gives its manifest role prefix,
# its variation-seed base and one (masked, session) pair per image; an
# image's seed is the base plus its position.  Train samples use seeds
# 0..samples_per_identity-1, below every base.
EVAL_PROTOCOL = {
    "references": ("ref", 100_000, ((False, 1),) * 2 + ((True, 1),) * 4),
    "probes": ("probe", 200_000, ((False, 2),) * 2 + ((False, 3),) * 2
               + ((True, 2),) * 4 + ((True, 3),) * 4),
}


@dataclass(frozen=True)
class IdentitySpec:
    """One synthetic subject; the base pattern is a pure function of base_seed."""

    identity_id: int
    base_seed: int

    @cached_property
    def base_pattern(self) -> np.ndarray:
        """Drawn on first use and kept as long as this spec, which
        ``build_splits`` holds for one call only."""
        return _base_pattern(self.base_seed)


def identity_spec(dataset_seed: int, identity_id: int) -> IdentitySpec:
    rng = np.random.default_rng([dataset_seed, _TAG_IDENTITY, identity_id])
    return IdentitySpec(identity_id, int(rng.integers(0, 2**63)))


def _base_pattern(base_seed: int) -> np.ndarray:
    rng = np.random.default_rng(base_seed)
    # blob rows: ANCHORED_BLOBS stay above every occluder's top edge
    rows = np.concatenate([
        rng.uniform(4.0, ANCHOR_MAX_ROW, size=ANCHORED_BLOBS),
        rng.uniform(4.0, IMAGE_HW - 4.0, size=BLOB_COUNT - ANCHORED_BLOBS),
    ])
    cols = rng.uniform(3.0, IMAGE_HW - 3.0, size=BLOB_COUNT)
    sigma = rng.uniform(1.5, 3.0, size=BLOB_COUNT)
    amp = rng.uniform(0.4, 0.9, size=BLOB_COUNT) * rng.choice([-1.0, 1.0], size=BLOB_COUNT)
    rr, cc = np.mgrid[0:IMAGE_HW, 0:IMAGE_HW]
    canvas = np.zeros((IMAGE_HW, IMAGE_HW))
    for k in range(BLOB_COUNT):
        d2 = (rr - rows[k]) ** 2 + (cc - cols[k]) ** 2
        canvas = canvas + amp[k] * np.exp(-d2 / (2.0 * sigma[k] ** 2))
    return canvas


def _translate(img: np.ndarray, dr: int, dc: int) -> np.ndarray:
    out = np.zeros_like(img)
    h, w = img.shape
    src_r = slice(max(0, -dr), h - max(0, dr))
    dst_r = slice(max(0, dr), h + min(0, dr))
    src_c = slice(max(0, -dc), w - max(0, dc))
    dst_c = slice(max(0, dc), w + min(0, dc))
    out[dst_r, dst_c] = img[src_r, src_c]
    return out


def render_sample(identity: IdentitySpec, variation_seed: int) -> np.ndarray:
    """Base pattern plus seeded jitter, clipped to [-1, 1]."""
    rng = np.random.default_rng([identity.base_seed, int(variation_seed)])
    dr, dc = (int(v) for v in rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=2))
    img = _translate(identity.base_pattern, dr, dc)
    img = img + rng.normal(0.0, NOISE_SIGMA, size=img.shape)
    return np.clip(img, -1.0, 1.0)


# -- occluders ---------------------------------------------------------------

def _check_coverage(coverage: float) -> None:
    if not (np.isfinite(coverage) and 1 <= round(coverage * IMAGE_HW) <= IMAGE_HW - 1):
        raise ValueError(f"coverage {coverage} must occlude between 1 and "
                         f"{IMAGE_HW - 1} of the {IMAGE_HW} rows")


@dataclass(frozen=True)
class MaskSpec:
    """Occluder choice: geometry, fill intensity, covered height fraction."""

    mask_type: str
    color_intensity: float
    coverage: float

    def __post_init__(self):
        if self.mask_type not in MASK_TYPES:
            raise ValueError(f"mask_type must be one of {MASK_TYPES}, got {self.mask_type!r}")
        if not -1.0 <= self.color_intensity <= 1.0:
            raise ValueError(f"color_intensity must be in [-1, 1], got {self.color_intensity}")
        _check_coverage(self.coverage)

    @property
    def rows(self) -> int:
        return round(self.coverage * IMAGE_HW)


def check_coverage_range(lo: float, hi: float) -> tuple:
    """Validate a coverage sampling range; both ends must be legal specs."""
    if not lo <= hi:
        raise ValueError(f"coverage range must be ordered, got [{lo}, {hi}]")
    for value in (lo, hi):
        _check_coverage(value)
    return (float(lo), float(hi))


def _trapezoid(pattern: np.ndarray, color: float) -> None:
    rows, w = pattern.shape
    center = w / 2.0
    for t in range(rows):
        frac = t / max(rows - 1, 1)
        half = (18.0 + frac * (28.0 - 18.0)) / 2.0
        c0 = max(1, round(center - half))
        c1 = min(w - 1, round(center + half))
        pattern[t, c0:c1] = color


def occluder_pattern(spec: MaskSpec) -> np.ndarray:
    """The rows an occluder writes; a pure function of the spec."""
    rows = spec.rows
    color = spec.color_intensity
    pattern = np.full((rows, IMAGE_HW), -1.0)
    if spec.mask_type == "surgical":
        pattern[:, 1:IMAGE_HW - 1] = color
    elif spec.mask_type == "n95":
        _trapezoid(pattern, color)
    elif spec.mask_type == "kn95":
        _trapezoid(pattern, color)
        ridge = np.clip(color - 0.6, -1.0, 1.0)
        pattern[rows // 2, pattern[rows // 2] == color] = ridge
    else:  # cloth: woven-looking checker texture
        rr, cc = np.mgrid[0:rows, 0:IMAGE_HW]
        checker = ((rr + cc) % 2) * 0.4 - 0.2
        pattern[:, 1:IMAGE_HW - 1] = (color + checker)[:, 1:IMAGE_HW - 1]
    return np.clip(pattern, -1.0, 1.0)


def apply_mask(image: np.ndarray, spec: MaskSpec) -> np.ndarray:
    """Overwrite (never blend) the bottom coverage rows with the occluder."""
    out = np.array(image, copy=True)
    out[IMAGE_HW - spec.rows:] = occluder_pattern(spec)
    return out


def draw_mask_spec(rng, coverage_range: tuple = COVERAGE_RANGE) -> MaskSpec:
    # intensity magnitude bounded away from the zero background so a flat
    # occluder can never pass for an uncovered lower half
    return MaskSpec(
        mask_type=MASK_TYPES[int(rng.integers(len(MASK_TYPES)))],
        color_intensity=float(rng.uniform(0.35, 1.0) * rng.choice([-1.0, 1.0])),
        coverage=float(rng.uniform(*coverage_range)),
    )


def _mask_spec_for(identity: IdentitySpec, variation_seed: int,
                   coverage_range: tuple = COVERAGE_RANGE) -> MaskSpec:
    return draw_mask_spec(np.random.default_rng(
        [identity.base_seed, _TAG_MASK, int(variation_seed)]), coverage_range)


# -- corpus ------------------------------------------------------------------

@dataclass
class EvalSide:
    """References or probes of one evaluation split."""

    images: np.ndarray  # (n, 32, 32) float32
    identity_ids: np.ndarray  # (n,) int
    masked: np.ndarray  # (n,) bool
    sessions: np.ndarray  # (n,) int


@dataclass
class EvalSplit:
    references: EvalSide
    probes: EvalSide

    @property
    def num_identities(self) -> int:
        return len(set(self.references.identity_ids.tolist()))


@dataclass
class Corpus:
    dataset_seed: int
    samples_per_identity: int
    train_identity_ids: np.ndarray  # (I,) global ids; row index is the class id
    train_unmasked: np.ndarray  # (I, S, 32, 32) float32
    train_masked: np.ndarray  # (I, S, 32, 32) float32
    val: EvalSplit
    test: EvalSplit
    coverage_range: tuple = COVERAGE_RANGE

    @property
    def num_classes(self) -> int:
        return len(self.train_identity_ids)

    @property
    def num_identities(self) -> int:
        """Train, validation and test identities together."""
        return self.num_classes + len({*self.val.references.identity_ids.tolist(),
                                       *self.test.references.identity_ids.tolist()})


def split_identity_counts(num_identities: int):
    """(train, val, test) identity counts at the default 20:5:8 proportion."""
    if num_identities < 2:
        raise ValueError(f"need at least 2 identities, got {num_identities}")
    test = max(2, (8 * num_identities) // 33)
    val = max(1, (5 * num_identities) // 33)
    if test + val > num_identities:
        val = num_identities - test
    return num_identities - test - val, val, test


def _cells(ids: dict, samples: int):
    """Every corpus image as ``(split, identity, side, session, masked, index, seed)``.

    The one image order, of manifest rows and of the images ``_assemble``
    takes; ``ids`` maps each split name to its identity ids.  Train sample
    ``s`` is an unmasked then a masked cell, both with side ``"train"``,
    session 0 and seed ``s``.  Eval cells follow EVAL_PROTOCOL: ``side`` is
    the EvalSplit field, ``index`` the position within the side, and the
    seed the side's base plus the position within the identity's layout.
    """
    for ident, s, is_masked in itertools.product(ids["train"], range(samples), (False, True)):
        yield "train", ident, "train", 0, is_masked, s, s
    for split in ("val", "test"):
        for side, (_, base, layout) in EVAL_PROTOCOL.items():
            cells = itertools.product(ids[split], enumerate(layout))
            for n, (ident, (k, (is_masked, session))) in enumerate(cells):
                yield split, ident, side, session, is_masked, n, base + k


def _slots(corpus: Corpus, cells):
    """Where each cell's image lives in ``corpus``, as ``(array, index)``."""
    classes = {ident: k for k, ident in enumerate(corpus.train_identity_ids.tolist())}
    for split, ident, side, _, is_masked, index, _ in cells:
        if split == "train":
            train = corpus.train_masked if is_masked else corpus.train_unmasked
            yield train, (classes[ident], index)
        else:
            yield getattr(getattr(corpus, split), side).images, index


def _assemble(images, ids, samples, dataset_seed, coverage_range) -> Corpus:
    """The corpus whose ``_cells`` cells hold ``images``, one each, in order:
    each (32, 32) image is written into its cell's ``_slots`` slot, and each
    eval side's identity, mask and session arrays come from its cells."""
    cells = list(_cells(ids, samples))
    unmasked, masked = (np.empty((len(ids["train"]), samples, IMAGE_HW, IMAGE_HW),
                                 dtype=np.float32) for _ in range(2))

    def eval_side(split, side):
        rows = [(ident, is_masked, session) for sp, ident, sd, session, is_masked, _, _ in cells
                if (sp, sd) == (split, side)]
        identities, flags, sessions = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
        return EvalSide(np.empty((len(rows), IMAGE_HW, IMAGE_HW), dtype=np.float32),
                        identities, flags.astype(bool), sessions)

    val, test = (EvalSplit(**{side: eval_side(split, side) for side in EVAL_PROTOCOL})
                 for split in ("val", "test"))
    corpus = Corpus(dataset_seed, samples, np.array(ids["train"], dtype=np.int64),
                    unmasked, masked, val, test, coverage_range=coverage_range)
    for image, (array, index) in zip(images, _slots(corpus, cells), strict=True):
        array[index] = image
    return corpus


def build_splits(num_identities: int = 33, samples_per_identity: int = 64,
                 dataset_seed: int = 0,
                 coverage_range: tuple = COVERAGE_RANGE) -> Corpus:
    """Identity-disjoint train/val/test splits; eval splits hold references
    (session 1) and probes (sessions 2 and 3) with disjoint variation seeds."""
    train_n, val_n, _ = split_identity_counts(num_identities)
    seed_floor = min(base for _, base, _ in EVAL_PROTOCOL.values())
    if not 0 < samples_per_identity < seed_floor:
        raise ValueError(f"samples_per_identity must be in [1, {seed_floor}), "
                         f"got {samples_per_identity}")
    coverage_range = check_coverage_range(*coverage_range)
    specs = [identity_spec(dataset_seed, i) for i in range(num_identities)]
    ids = {"train": list(range(train_n)), "val": list(range(train_n, train_n + val_n)),
           "test": list(range(train_n + val_n, num_identities))}

    def images():
        render = lru_cache(maxsize=1)(render_sample)  # a train pair shares one render
        for _, ident, _, _, is_masked, _, seed in _cells(ids, samples_per_identity):
            img = render(specs[ident], seed)
            if is_masked:
                img = apply_mask(img, _mask_spec_for(specs[ident], seed, coverage_range))
            yield img

    return _assemble(images(), ids, samples_per_identity, dataset_seed, coverage_range)


# -- training batches --------------------------------------------------------

@dataclass
class PairBatch:
    """Unmasked and masked copies of the same training samples, flipped together."""

    unmasked: np.ndarray  # (B, 1, 32, 32)
    masked: np.ndarray  # (B, 1, 32, 32)
    identity_labels: np.ndarray  # (B,) class ids

    @property
    def mask_labels_unmasked(self) -> np.ndarray:
        return np.zeros(len(self.identity_labels), dtype=np.int64)

    @property
    def mask_labels_masked(self) -> np.ndarray:
        return np.ones(len(self.identity_labels), dtype=np.int64)


def train_batch(corpus: Corpus, iteration: int, batch_size: int,
                seed: int = 0) -> PairBatch:
    """One seeded pair batch; a pure function of (seed, iteration, corpus)."""
    n_ids, n_samples = corpus.train_unmasked.shape[:2]
    if n_ids == 0:
        raise ValueError("corpus has no training identities")
    rng = np.random.default_rng([seed, _TAG_BATCH, iteration])
    ids = rng.integers(0, n_ids, size=batch_size)
    idx = rng.integers(0, n_samples, size=batch_size)
    flips = rng.random(batch_size) < 0.5

    unmasked = corpus.train_unmasked[ids, idx]
    masked = corpus.train_masked[ids, idx]
    sel = flips[:, None, None]
    unmasked = np.where(sel, np.flip(unmasked, axis=-1), unmasked)
    masked = np.where(sel, np.flip(masked, axis=-1), masked)
    return PairBatch(unmasked[:, None], masked[:, None], ids.astype(np.int64))


# -- disk format -------------------------------------------------------------

def _write_image(path: str, img: np.ndarray) -> None:
    np.ascontiguousarray(img, dtype="<f4").tofile(path)


def _read_image(path: str) -> np.ndarray:
    img = np.fromfile(path, dtype="<f4")
    if img.size != IMAGE_HW * IMAGE_HW:
        raise ValueError(f"{path} holds {img.size} floats, expected {IMAGE_HW * IMAGE_HW}")
    return img.reshape(IMAGE_HW, IMAGE_HW)


def _manifest_rows(ids: dict, samples: int):
    """Every manifest row below the header, one per ``_cells`` cell."""
    for split, ident, side, session, is_masked, index, _ in _cells(ids, samples):
        role = "train" if split == "train" else f"{EVAL_PROTOCOL[side][0]}{session}"
        name = f"id{ident:04d}_{role}_{'um'[is_masked]}{index:04d}.f32"
        yield f"images/{split}/{name}\t{ident}\t{int(is_masked)}\t{split}\t{role}"


def save_corpus(corpus: Corpus, outdir: str) -> str:
    """Write raw float32 image files plus a tab-separated manifest.

    Manifest columns: path, identity, mask flag (0/1), split, session role
    (train, ref1, probe2, probe3); header comments carry the dataset seed
    and samples-per-identity so the corpus can be reloaded self-contained.
    """
    ids = {"train": corpus.train_identity_ids.tolist(),
           "val": list(dict.fromkeys(corpus.val.references.identity_ids.tolist())),
           "test": list(dict.fromkeys(corpus.test.references.identity_ids.tolist()))}
    rows = list(_manifest_rows(ids, corpus.samples_per_identity))
    for split in ids:
        os.makedirs(os.path.join(outdir, "images", split), exist_ok=True)
    slots = _slots(corpus, _cells(ids, corpus.samples_per_identity))
    for row, (array, index) in zip(rows, slots, strict=True):
        _write_image(os.path.join(outdir, row.split("\t", 1)[0]), array[index])
    lo, hi = corpus.coverage_range
    lines = [MANIFEST_MAGIC,
             f"# dataset_seed = {corpus.dataset_seed}",
             f"# samples_per_identity = {corpus.samples_per_identity}",
             f"# coverage_range = {lo!r},{hi!r}",
             *rows]
    manifest_path = os.path.join(outdir, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")
    return manifest_path


def _header_int(text: str, lowest: int) -> int:
    """``text`` as an integer no lower than ``lowest``, which is 0 or 1."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError("expected an integer") from None
    if value < lowest:
        raise ValueError(f"expected a {('non-negative', 'positive')[lowest]} integer")
    return value


def _header_coverage_range(text: str) -> tuple:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise ValueError("expected two comma-separated numbers") from None
    return check_coverage_range(lo, hi)


# manifest header field -> parser of its value; other "# ..." lines are comments
_MANIFEST_FIELDS = {"dataset_seed": lambda text: _header_int(text, 0),
                    "samples_per_identity": lambda text: _header_int(text, 1),
                    "coverage_range": _header_coverage_range}


def load_corpus(outdir: str) -> Corpus:
    """Read a saved corpus; its rows must be exactly the protocol's, in order."""
    try:
        manifest_path = os.path.join(outdir, MANIFEST_NAME)
        with open(manifest_path, encoding="ascii") as f:
            lines = f.read().splitlines()
        if not lines or lines[0] != MANIFEST_MAGIC:
            raise ValueError(f"{manifest_path} is not a recognized corpus manifest")
        meta = {}
        rows = []
        for line in lines[1:]:
            if line.startswith("# ") and " = " in line:
                key, value = line[2:].split(" = ", 1)
                if key in _MANIFEST_FIELDS:
                    try:
                        meta[key] = _MANIFEST_FIELDS[key](value)
                    except ValueError as exc:
                        raise ValueError(f"{manifest_path}: header field {key} = "
                                         f"{value!r}: {exc}") from None
            elif line and not line.startswith("#"):
                rows.append(line)

        for key in ("dataset_seed", "samples_per_identity"):
            if key not in meta:
                raise ValueError(f"{manifest_path} has no '# {key} = ' header line")
        samples = meta["samples_per_identity"]
        # identities in order of first appearance; the row check below
        # rejects any manifest the protocol would not write for them
        columns = [row.split("\t") for row in rows]
        ids = {split: list(dict.fromkeys(int(c[1]) for c in columns
                                         if c[3:4] == [split] and c[1].isdigit()))
               for split in ("train", "val", "test")}
        for a, b in itertools.combinations(ids, 2):
            shared = set(ids[a]) & set(ids[b])
            if shared:
                raise ValueError(f"{manifest_path}: identity {min(shared)} is in both "
                                 f"the {a} and the {b} split")
        expected = list(_manifest_rows(ids, samples))
        for n, (got, want) in enumerate(zip(rows, expected), 1):
            if got != want:
                raise ValueError(f"{manifest_path}: row {n} reads {got!r}, "
                                 f"the protocol expects {want!r}")
        if len(rows) != len(expected):
            raise ValueError(f"{manifest_path} has {len(rows)} rows, "
                             f"the protocol expects {len(expected)}")

        images = (_read_image(os.path.join(outdir, c[0])) for c in columns)
        return _assemble(images, ids, samples, meta["dataset_seed"],
                         meta.get("coverage_range", COVERAGE_RANGE))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load corpus from {outdir}: {exc}") from None
