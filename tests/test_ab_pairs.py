import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

LOWER = {"name": "op_p50_s", "better": "lower"}


def test_a_gain_needs_nine_pairs_in_ten_and_a_gap_wider_than_the_parent_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    change = [0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90, 0.90]
    assert "won 10/10" in ab_pairs.summary(LOWER, parent, change)
    assert ab_pairs.summary(LOWER, parent, change).endswith("(beats it): gain holds")
    # two pairs lost: 8 of 10 is short of nine tenths
    lost = change[:8] + [1.05, 1.05]
    assert "won 8/10" in ab_pairs.summary(LOWER, parent, lost)
    assert ab_pairs.summary(LOWER, parent, lost).endswith("no gain shown")
    # every pair won, by less than the parent's interquartile range
    close = [p - 0.001 for p in parent]
    assert "won 10/10" in ab_pairs.summary(LOWER, parent, close)
    assert ab_pairs.summary(LOWER, parent, close).endswith("(does not beat it): no gain shown")


def test_ties_count_for_neither_side_and_higher_can_be_better():
    higher = {"name": "accuracy_digits", "better": "higher"}
    assert "won 0/3" in ab_pairs.summary(higher, [2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    assert "won 3/3" in ab_pairs.summary(higher, [2.0, 2.0, 2.0], [2.5, 2.5, 2.5])
    assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
