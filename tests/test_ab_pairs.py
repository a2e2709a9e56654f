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


def test_a_change_is_worse_when_its_median_trails_by_more_than_the_parent_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    slower = [p + 0.10 for p in parent]
    assert "won 0/10" in ab_pairs.summary(LOWER, parent, slower)
    assert ab_pairs.summary(LOWER, parent, slower).endswith("(does not beat it): worse")
    # trailing by less than the interquartile range is no gain, not worse
    near = [p + 0.001 for p in parent]
    assert ab_pairs.summary(LOWER, parent, near).endswith("(does not beat it): no gain shown")
    # a higher-is-better metric is worse when it falls, and a flat parent has no spread to hide in
    higher = {"name": "accuracy_digits", "better": "higher"}
    assert ab_pairs.summary(higher, [2.0, 2.0, 2.0], [1.9, 1.9, 1.9]).endswith("worse")
    assert ab_pairs.summary(higher, [2.0, 2.0, 2.0], [2.0, 2.0, 2.0]).endswith("no gain shown")


def test_workloads_run_in_turn_with_one_summary_block_each(tmp_path, monkeypatch, capsys):
    for side in ("p", "c"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    metrics = [{"name": "op_p50_s", "better": "lower", "bound": 0.25}]
    (tmp_path / "p" / "BENCHMARK.json").write_text(ab_pairs.json.dumps({"end_to_end": metrics}))
    runs = []

    def fake_run(checkout, workload, args):
        runs.append((checkout.name, workload))
        value = 1.0 if checkout.name == "p" else 0.9
        return {"failed": 0, "metrics": {"op_p50_s": {"value": value}}}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    argv = [str(tmp_path / "p"), str(tmp_path / "c"), "--workload", "a", "--workload", "b"]
    argv += ["--seed", "1", "--pairs", "2"]
    assert ab_pairs.main(argv) == 0
    assert runs == [("p", "a"), ("c", "a"), ("c", "a"), ("p", "a"), ("p", "b"), ("c", "b"), ("c", "b"), ("p", "b")]
    out = capsys.readouterr().out.splitlines()
    blocks = [line for line in out if "pairs of" in line]
    assert [b.split()[0] for b in blocks] == ["a", "b"]
    assert sum(line.strip().startswith("op_p50_s") and line.endswith("gain holds") for line in out) == 2
    assert sum(line.strip().startswith("op_p50_s") and line.endswith("within bound") for line in out) == 2


def test_the_bound_verdict_reads_the_median_change_against_the_benchmark_bound():
    bounded = {**LOWER, "bound": 0.25}
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    slower = [1.10 * p for p in parent]
    line = ab_pairs.bound_summary(bounded, parent, slower)
    assert "median change +10.00% against bound 25%" in line and line.endswith(": within bound")
    # 30% slower is past the bound, though the parent's spread is far narrower
    assert ab_pairs.bound_summary(bounded, parent, [1.30 * p for p in parent]).endswith(": beyond bound")
    # a gain is within bound, and a higher-is-better metric is beyond it when it falls by more than its bound
    assert ab_pairs.bound_summary(bounded, parent, [0.5 * p for p in parent]).endswith(": within bound")
    higher = {"name": "accuracy_digits", "better": "higher", "bound": 0.1}
    assert ab_pairs.bound_summary(higher, [2.0, 2.0, 2.0], [1.95, 1.95, 1.95]).endswith(": within bound")
    assert ab_pairs.bound_summary(higher, [2.0, 2.0, 2.0], [1.7, 1.7, 1.7]).endswith(": beyond bound")


def test_the_bound_verdict_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    bounded = {**LOWER, "bound": 0.25}
    wide = [0.6, 0.8, 1.0, 1.2, 1.4]  # interquartile range 0.4 of a median of 1.0
    line = ab_pairs.bound_summary(bounded, wide, [1.05 * p for p in wide])
    assert "(parent IQR 40.00% of its median)" in line and line.endswith(": unresolved")
    # unless every run of the change reads better than every run of the parent
    assert ab_pairs.bound_summary(bounded, wide, [0.5, 0.5, 0.5, 0.5, 0.5]).endswith(": within bound")
