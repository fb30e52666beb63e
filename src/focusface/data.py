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
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

IMAGE_HW = 32
BLOB_COUNT = 6
ANCHORED_BLOBS = 3
ANCHOR_MAX_ROW = 11.0
NOISE_SIGMA = 0.05
MAX_SHIFT = 2

MASK_TYPES = ("surgical", "n95", "kn95", "cloth")
COVERAGE_RANGE = (0.40, 0.55)
SELECTION_MODES = ("original", "random")

MANIFEST_NAME = "manifest.tsv"
MANIFEST_MAGIC = "# focusface-manifest v1"

# seed-stream tags: each draw site uses default_rng([anchor seed, tag, ...]);
# a tag's value is part of every draw it keys, so never renumber or reuse one
_TAG_IDENTITY = 1
_TAG_MASK = 2
_TAG_BATCH = 4

# variation-seed blocks; train samples use 0..samples_per_identity-1
_REF_SEED_BASE = 100_000
_PROBE_SEED_BASE = 200_000

# per-identity evaluation protocol: session-1 references, session-2/3 probes
_REFS_UNMASKED = 2
_REFS_MASKED = 4
_PROBES_UNMASKED = 4
_PROBES_MASKED = 8


@dataclass(frozen=True)
class IdentitySpec:
    """One synthetic subject; the base pattern is a pure function of base_seed."""

    identity_id: int
    base_seed: int


def identity_spec(dataset_seed: int, identity_id: int) -> IdentitySpec:
    rng = np.random.default_rng([dataset_seed, _TAG_IDENTITY, identity_id])
    return IdentitySpec(identity_id, int(rng.integers(0, 2**63)))


@lru_cache(maxsize=4096)
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
    img = _translate(_base_pattern(identity.base_seed), dr, dc)
    img = img + rng.normal(0.0, NOISE_SIGMA, size=img.shape)
    return np.clip(img, -1.0, 1.0)


# -- occluders ---------------------------------------------------------------

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
        if not 1 <= round(self.coverage * IMAGE_HW) <= IMAGE_HW - 1:
            raise ValueError(
                f"coverage {self.coverage} must occlude between 1 and "
                f"{IMAGE_HW - 1} of the {IMAGE_HW} rows")

    @property
    def rows(self) -> int:
        return round(self.coverage * IMAGE_HW)


def check_coverage_range(lo: float, hi: float) -> tuple:
    """Validate a coverage sampling range; both ends must be legal specs."""
    if not lo <= hi:
        raise ValueError(f"coverage range must be ordered, got [{lo}, {hi}]")
    for value in (lo, hi):
        if not 1 <= round(value * IMAGE_HW) <= IMAGE_HW - 1:
            raise ValueError(
                f"coverage {value} must occlude between 1 and "
                f"{IMAGE_HW - 1} of the {IMAGE_HW} rows")
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


def _build_eval_side(identities, seed_base, counts_unmasked, counts_masked,
                     sessions_u, sessions_m, coverage_range=COVERAGE_RANGE):
    images, ids, masked, sessions = [], [], [], []
    for spec in identities:
        for k in range(counts_unmasked):
            images.append(render_sample(spec, seed_base + k))
            ids.append(spec.identity_id)
            masked.append(False)
            sessions.append(sessions_u[k])
        for j in range(counts_masked):
            seed = seed_base + counts_unmasked + j
            img = apply_mask(render_sample(spec, seed),
                             _mask_spec_for(spec, seed, coverage_range))
            images.append(img)
            ids.append(spec.identity_id)
            masked.append(True)
            sessions.append(sessions_m[j])
    return EvalSide(np.asarray(images, dtype=np.float32).reshape(-1, IMAGE_HW, IMAGE_HW),
                    np.asarray(ids, dtype=np.int64),
                    np.asarray(masked, dtype=bool),
                    np.asarray(sessions, dtype=np.int64))


def _build_eval_split(identities, coverage_range=COVERAGE_RANGE) -> EvalSplit:
    references = _build_eval_side(
        identities, _REF_SEED_BASE, _REFS_UNMASKED, _REFS_MASKED,
        sessions_u=[1] * _REFS_UNMASKED, sessions_m=[1] * _REFS_MASKED,
        coverage_range=coverage_range)
    probes = _build_eval_side(
        identities, _PROBE_SEED_BASE, _PROBES_UNMASKED, _PROBES_MASKED,
        sessions_u=[2, 2, 3, 3], sessions_m=[2, 2, 2, 2, 3, 3, 3, 3],
        coverage_range=coverage_range)
    return EvalSplit(references, probes)


def build_splits(num_identities: int = 33, samples_per_identity: int = 64,
                 dataset_seed: int = 0,
                 coverage_range: tuple = COVERAGE_RANGE) -> Corpus:
    """Identity-disjoint train/val/test splits; eval splits hold references
    (session 1) and probes (sessions 2 and 3) with disjoint variation seeds."""
    train_n, val_n, test_n = split_identity_counts(num_identities)
    if not 0 < samples_per_identity < _REF_SEED_BASE:
        raise ValueError(f"samples_per_identity must be in [1, {_REF_SEED_BASE}), "
                         f"got {samples_per_identity}")
    coverage_range = check_coverage_range(*coverage_range)
    specs = [identity_spec(dataset_seed, i) for i in range(num_identities)]
    train_ids = specs[:train_n]
    val_ids = specs[train_n:train_n + val_n]
    test_ids = specs[train_n + val_n:]

    unmasked = np.zeros((train_n, samples_per_identity, IMAGE_HW, IMAGE_HW), dtype=np.float32)
    masked = np.zeros_like(unmasked)
    for i, spec in enumerate(train_ids):
        for s in range(samples_per_identity):
            img = render_sample(spec, s)
            unmasked[i, s] = img
            masked[i, s] = apply_mask(img, _mask_spec_for(spec, s, coverage_range))

    return Corpus(
        dataset_seed=dataset_seed,
        samples_per_identity=samples_per_identity,
        train_identity_ids=np.array([s.identity_id for s in train_ids], dtype=np.int64),
        train_unmasked=unmasked,
        train_masked=masked,
        val=_build_eval_split(val_ids, coverage_range),
        test=_build_eval_split(test_ids, coverage_range),
        coverage_range=coverage_range,
    )


# -- training batches --------------------------------------------------------

@dataclass
class PairBatch:
    """Aligned unmasked/masked pairs with shared identities and flip flags."""

    unmasked: np.ndarray  # (B, 1, 32, 32)
    masked: np.ndarray  # (B, 1, 32, 32)
    identity_labels: np.ndarray  # (B,) class ids
    flip_flags: np.ndarray  # (B,) bool

    @property
    def mask_labels_unmasked(self) -> np.ndarray:
        return np.zeros(len(self.identity_labels), dtype=np.int64)

    @property
    def mask_labels_masked(self) -> np.ndarray:
        return np.ones(len(self.identity_labels), dtype=np.int64)


def train_batch(corpus: Corpus, iteration: int, batch_size: int,
                selection: str = "original", seed: int = 0,
                return_indices: bool = False):
    """One seeded pair batch; a pure function of (seed, iteration, corpus)."""
    if selection not in SELECTION_MODES:
        raise ValueError(f"selection must be one of {SELECTION_MODES}, got {selection!r}")
    n_ids, n_samples = corpus.train_unmasked.shape[:2]
    if n_ids == 0:
        raise ValueError("corpus has no training identities")
    rng = np.random.default_rng([seed, _TAG_BATCH, iteration])
    ids = rng.integers(0, n_ids, size=batch_size)
    idx = rng.integers(0, n_samples, size=batch_size)
    if selection == "original":
        src = idx
    else:
        if n_samples < 2:
            raise ValueError("random selection needs at least 2 samples per identity")
        src = (idx + 1 + rng.integers(0, n_samples - 1, size=batch_size)) % n_samples
    flips = rng.random(batch_size) < 0.5

    unmasked = corpus.train_unmasked[ids, idx]
    masked = corpus.train_masked[ids, src]
    sel = flips[:, None, None]
    unmasked = np.where(sel, np.flip(unmasked, axis=-1), unmasked)
    masked = np.where(sel, np.flip(masked, axis=-1), masked)
    batch = PairBatch(unmasked[:, None], masked[:, None],
                      ids.astype(np.int64), flips)
    if return_indices:
        return batch, (ids, idx, src)
    return batch


# -- disk format -------------------------------------------------------------

def _write_image(path: str, img: np.ndarray) -> None:
    np.ascontiguousarray(img, dtype="<f4").tofile(path)


def _read_image(path: str) -> np.ndarray:
    img = np.fromfile(path, dtype="<f4")
    if img.size != IMAGE_HW * IMAGE_HW:
        raise ValueError(f"{path} holds {img.size} floats, expected {IMAGE_HW * IMAGE_HW}")
    return img.reshape(IMAGE_HW, IMAGE_HW)


def _eval_rows(split_name: str, split: EvalSplit):
    for side_name, side in (("ref", split.references), ("probe", split.probes)):
        for k in range(len(side.images)):
            ident = int(side.identity_ids[k])
            m = "m" if side.masked[k] else "u"
            role = f"{side_name}{int(side.sessions[k])}"
            name = f"id{ident:04d}_{role}_{m}{k:04d}.f32"
            yield (f"images/{split_name}/{name}", ident, bool(side.masked[k]),
                   split_name, role, side.images[k])


def save_corpus(corpus: Corpus, outdir: str) -> str:
    """Write raw float32 image files plus a tab-separated manifest.

    Manifest columns: path, identity, mask flag (0/1), split, session role
    (train, ref1, probe2, probe3); header comments carry the dataset seed
    and samples-per-identity so the corpus can be reloaded self-contained.
    """
    rows = []
    for i, ident in enumerate(corpus.train_identity_ids):
        for s in range(corpus.samples_per_identity):
            for m, stack in (("u", corpus.train_unmasked), ("m", corpus.train_masked)):
                name = f"id{int(ident):04d}_train_{m}{s:04d}.f32"
                rows.append((f"images/train/{name}", int(ident), m == "m",
                             "train", "train", stack[i, s]))
    rows.extend(_eval_rows("val", corpus.val))
    rows.extend(_eval_rows("test", corpus.test))

    for split in ("train", "val", "test"):
        os.makedirs(os.path.join(outdir, "images", split), exist_ok=True)
    lo, hi = corpus.coverage_range
    lines = [MANIFEST_MAGIC,
             f"# dataset_seed = {corpus.dataset_seed}",
             f"# samples_per_identity = {corpus.samples_per_identity}",
             f"# coverage_range = {lo:.10g},{hi:.10g}"]
    for path, ident, masked, split, role, img in rows:
        _write_image(os.path.join(outdir, path), img)
        lines.append(f"{path}\t{ident}\t{int(masked)}\t{split}\t{role}")
    manifest_path = os.path.join(outdir, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")
    return manifest_path


def _side_from_rows(rows, outdir):
    images = np.stack([_read_image(os.path.join(outdir, r[0])) for r in rows]) \
        if rows else np.zeros((0, IMAGE_HW, IMAGE_HW), dtype=np.float32)
    return EvalSide(images.astype(np.float32),
                    np.array([r[1] for r in rows], dtype=np.int64),
                    np.array([r[2] for r in rows], dtype=bool),
                    np.array([int(r[4][-1]) for r in rows], dtype=np.int64))


def load_corpus(outdir: str) -> Corpus:
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
                if key == "coverage_range":
                    meta[key] = tuple(float(v) for v in value.split(","))
                else:
                    meta[key] = int(value)
            elif line and not line.startswith("#"):
                path, ident, masked, split, role = line.split("\t")
                rows.append((path, int(ident), masked == "1", split, role))

        for key in ("dataset_seed", "samples_per_identity"):
            if key not in meta:
                raise ValueError(f"{manifest_path} has no '# {key} = ' header line")
        samples = meta["samples_per_identity"]
        train_rows = [r for r in rows if r[3] == "train"]
        train_ids = sorted({r[1] for r in train_rows})
        id_index = {ident: i for i, ident in enumerate(train_ids)}
        unmasked = np.zeros((len(train_ids), samples, IMAGE_HW, IMAGE_HW), dtype=np.float32)
        masked_arr = np.zeros_like(unmasked)
        for path, ident, is_masked, _, _ in train_rows:
            index = int(path.rsplit(".", 1)[0][-4:])
            if not 0 <= index < samples:
                raise ValueError(f"{manifest_path}: train row {path} is sample {index}, "
                                 f"but samples_per_identity is {samples}")
            target = masked_arr if is_masked else unmasked
            target[id_index[ident], index] = _read_image(os.path.join(outdir, path))

        def eval_split(split_name):
            side_rows = [r for r in rows if r[3] == split_name]
            refs = [r for r in side_rows if r[4].startswith("ref")]
            probes = [r for r in side_rows if r[4].startswith("probe")]
            return EvalSplit(_side_from_rows(refs, outdir), _side_from_rows(probes, outdir))

        return Corpus(
            dataset_seed=meta["dataset_seed"],
            samples_per_identity=samples,
            train_identity_ids=np.array(train_ids, dtype=np.int64),
            train_unmasked=unmasked,
            train_masked=masked_arr,
            val=eval_split("val"),
            test=eval_split("test"),
            coverage_range=meta.get("coverage_range", COVERAGE_RANGE),
        )
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load corpus from {outdir}: {exc}") from None
