"""Parameter-count rules, full-scale totals, and the toy table."""

from focusface.model import FLAT_DIM, toy_scale_modules
from focusface.params import (
    ARCFACE,
    BACKBONE,
    FULL_NUM_CLASSES,
    MASK_CLASSIFIER,
    MASK_HEAD,
    RECOGNITION_HEAD,
    _bn,
    _conv,
    _fc,
    _prelu,
    full_backbone_layers,
    full_scale_modules,
    summarize,
)


# -- independent closed-form oracle, plain integer arithmetic ----------------

def _oracle_backbone_total():
    def stage(cin, cout, blocks):
        total = 0
        for b in range(blocks):
            i = cin if b == 0 else cout
            total += 2 * i + 9 * i * cout + 2 * cout + cout
            total += 9 * cout * cout + 2 * cout
            if b == 0:
                total += i * cout + 2 * cout
        return total

    stem = 3 * 64 * 9 + 2 * 64 + 64
    body = (stage(64, 64, 3) + stage(64, 128, 13)
            + stage(128, 256, 30) + stage(256, 512, 3))
    return stem + body + 2 * 512


# -- per-layer counting rules ------------------------------------------------

def test_recognition_head_count():
    assert _fc(25088, 512, bias=False) + _bn(512) == 12_846_080


def test_mask_head_count():
    assert _fc(25088, 32, bias=False) + _bn(32) == 802_880


def test_arcface_weight_count():
    assert full_scale_modules()[ARCFACE] == 512 * 85_742 == 43_899_904


def test_mask_classifier_count():
    assert _fc(32, 2, bias=True) == 66


def test_tiny_fc_with_bias():
    assert _fc(1, 1, bias=True) == 2


def test_conv_count_with_and_without_bias():
    assert _conv(3, 64) == 1728
    assert _conv(3, 64, bias=True) == 1792
    assert _conv(64, 128, k=1) == 8192


def test_batch_norm_count():
    assert _bn(64) == 128  # scale and shift per channel


def test_prelu_and_bias_counts():
    assert _prelu(64) == 64
    assert _fc(5, 7, bias=True) - _fc(5, 7, bias=False) == 7


# -- integer counts ----------------------------------------------------------

def test_all_counts_nonnegative_integers():
    counts = [*full_backbone_layers(), *full_scale_modules().values(),
              *toy_scale_modules().values()]
    assert all(type(n) is int and n >= 0 for n in counts)


# -- full-scale totals -------------------------------------------------------

def test_full_backbone_total():
    assert sum(full_backbone_layers()) == 52_309_568


def test_full_backbone_matches_closed_form_oracle():
    assert sum(full_backbone_layers()) == _oracle_backbone_total()


def test_full_scale_module_rows():
    counts = dict(summarize(full_scale_modules()).module_counts)
    assert counts[BACKBONE] == 52_309_568
    assert counts[RECOGNITION_HEAD] == 12_846_080
    assert counts[MASK_HEAD] == 802_880
    assert counts[ARCFACE] == 43_899_904
    assert counts[MASK_CLASSIFIER] == 66


def test_full_scale_totals():
    summary = summarize(full_scale_modules())
    assert summary.scratch_total == 109_858_498
    assert summary.frozen_trainable == 57_548_930
    assert summary.inference_total == 65_155_648


def test_frozen_reduction_ratio():
    summary = summarize(full_scale_modules())
    assert abs(100.0 * summary.reduction - 47.62) <= 0.1


def test_num_classes_consistent_with_arcface_total():
    assert 43_899_904 // 512 == FULL_NUM_CLASSES


# -- toy table, read off the live layout -------------------------------------

def test_toy_flat_dim():
    # 32 -> 16 -> 8 -> 4 with stride-2 3x3 convs, padding 1
    assert FLAT_DIM == 32 * 4 * 4


def test_toy_module_rows_have_expected_shapes():
    modules = toy_scale_modules()
    counts = dict(summarize(modules).module_counts)
    assert counts[RECOGNITION_HEAD] == 512 * 64 + 64
    assert counts[MASK_HEAD] == 512 * 8 + 8
    assert counts[ARCFACE] == 64 * 20
    assert counts[MASK_CLASSIFIER] == 8 * 2 + 2


def test_toy_backbone_count():
    # three conv+bias layers with one scalar slope each
    expected = (8 * 1 * 9 + 8 + 1) + (16 * 8 * 9 + 16 + 1) + (32 * 16 * 9 + 32 + 1)
    counts = dict(summarize(toy_scale_modules()).module_counts)
    assert counts[BACKBONE] == expected


def test_summary_totals_are_consistent():
    for modules in (full_scale_modules(), toy_scale_modules()):
        s = summarize(modules)
        counts = dict(s.module_counts)
        assert s.scratch_total == sum(counts.values())
        assert s.frozen_trainable == s.scratch_total - counts[BACKBONE]
        assert s.inference_total == counts[BACKBONE] + counts[RECOGNITION_HEAD]
