import numpy as np
import pytest

from dataclasses import replace
from pathlib import Path

from starmem import (
    EmptyWindowError,
    Event,
    EventScript,
    MemoryConfig,
    StarMemory,
    WindowSpec,
    apply_window,
    evaluate_compression,
    generate_stream,
    snapshot,
    write_frame,
)
from starmem.fileio import load_event_script

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def constant_script(levels, durations, std=0.0, fps=1.0, side=8, dim=2, seed=0):
    n = side * side * dim
    events = []
    t = 0.0
    for level, dur in zip(levels, durations):
        events.append(Event(start_s=t, end_s=t + dur, mean=np.full(n, level), std=std))
        t += dur
    return EventScript(events=tuple(events), fps=fps, side=side, dim=dim, seed=seed)


def run_script(script, config=None):
    source = generate_stream(script)
    cfg = config or MemoryConfig(
        p_spa=4, p_tem=2, p_abs=1, n_buff=300, n_spa=1,
        n_tem=25, n_abs=25, n_ret=3, dim=script.dim,
    )
    mem = StarMemory.new(cfg)
    for f in source:
        mem = write_frame(mem, f)
    return snapshot(mem), source.labels


class TestScript:
    def test_rejects_zero_duration_event(self):
        with pytest.raises(ValueError):
            Event(start_s=0.0, end_s=0.0, mean=np.zeros(4), std=0.0)

    def test_rejects_gapped_events(self):
        ev1 = Event(0.0, 1.0, np.zeros(4), 0.0)
        ev2 = Event(2.0, 3.0, np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            EventScript(events=(ev1, ev2), fps=1.0, side=2, dim=1, seed=0)

    def test_separation_ratio(self):
        s = constant_script([0.0, 10.0], [5, 5], std=0.5, side=2, dim=1)
        # means differ by 10 per channel over 4 channels -> distance 20
        assert s.separation_ratio == pytest.approx(np.sqrt(4 * 100) / 0.5)


class TestGenerate:
    def test_std0_frames_equal_event_means(self):
        s = constant_script([1.0, -2.0], [3, 2])
        frames = list(generate_stream(s))
        assert len(frames) == 5
        assert np.all(frames[0].values == 1.0)
        assert np.all(frames[4].values == -2.0)

    def test_same_seed_bit_identical(self):
        s = constant_script([0.0, 5.0], [4, 4], std=1.0, seed=42)
        a = [f.values for f in generate_stream(s)]
        b = [f.values for f in generate_stream(s)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_label_counts(self):
        s = constant_script([0.0, 1.0, 2.0], [50, 30, 20])
        src = generate_stream(s)
        assert len(list(src)) == 100
        counts = np.bincount(src.labels)
        assert counts.tolist() == [50, 30, 20]

    def test_script_labels_match_generated_stream(self):
        scripts = [load_event_script(CONFIGS_DIR / "three_events.json")]
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            scripts.append(constant_script(
                rng.normal(size=n), rng.uniform(0.3, 7.0, size=n),
                std=float(rng.uniform(0, 2)), fps=float(rng.uniform(0.5, 4.0)),
                side=2, dim=1, seed=int(rng.integers(100)),
            ))
        for s in scripts:
            np.testing.assert_array_equal(s.labels(), generate_stream(s).labels)

    def test_timestamps_follow_fps(self):
        s = constant_script([0.0], [2], fps=4.0)
        frames = list(generate_stream(s))
        assert len(frames) == 8
        assert frames[3].timestamp_s == pytest.approx(0.75)


class TestWindow:
    def test_global_is_identity(self):
        s = constant_script([0.0], [10])
        src = generate_stream(s)
        assert apply_window(src, WindowSpec(mode="global")) is src

    def test_breakpoint_window_31_frames(self):
        s = constant_script([0.0], [200])
        out = apply_window(
            generate_stream(s), WindowSpec(mode="breakpoint", breakpoint_s=100.0)
        )
        frames = list(out)
        assert len(frames) == 31
        assert frames[0].timestamp_s == 85.0
        assert frames[-1].timestamp_s == 115.0

    def test_boundary_clipping(self):
        s = constant_script([0.0], [200])
        out = apply_window(
            generate_stream(s), WindowSpec(mode="breakpoint", breakpoint_s=5.0)
        )
        frames = list(out)
        assert len(frames) == 21
        assert frames[0].timestamp_s == 0.0
        assert frames[-1].timestamp_s == 20.0

    def test_no_frames_outside_window(self):
        s = constant_script([0.0], [100], fps=3.0)
        w = WindowSpec(mode="breakpoint", breakpoint_s=40.0, half_width_s=7.0)
        for f in apply_window(generate_stream(s), w):
            assert 33.0 <= f.timestamp_s <= 47.0

    def test_empty_window_rejected(self):
        s = constant_script([0.0], [10])
        with pytest.raises(EmptyWindowError):
            apply_window(
                generate_stream(s),
                WindowSpec(mode="breakpoint", breakpoint_s=500.0, half_width_s=2.0),
            )

    def test_breakpoint_requires_position(self):
        with pytest.raises(ValueError):
            WindowSpec(mode="breakpoint")


class TestEvaluate:
    def test_single_event_collapse_case(self):
        s = constant_script([3.0], [30])
        snap, labels = run_script(s)
        report = evaluate_compression(snap, s, labels)
        assert report.event_coverage == 1.0
        assert report.weight_l1_error == pytest.approx(0.0, abs=1e-12)
        assert report.retrieval_purity == 1.0

    def test_std0_multi_event_exact_recovery(self):
        s = constant_script([0.0, 10.0, -5.0], [50, 30, 20])
        snap, labels = run_script(s)
        report = evaluate_compression(snap, s, labels)
        assert report.event_coverage == 1.0
        assert report.weight_l1_error == pytest.approx(0.0, abs=1e-12)
        assert report.retrieval_purity == 1.0

    def test_std0_distinct_centroids_equal_event_means(self):
        s = constant_script([0.0, 10.0, -5.0], [50, 30, 20])
        cfg = MemoryConfig(
            p_spa=4, p_tem=2, p_abs=1, n_buff=300, n_spa=1,
            n_tem=25, n_abs=25, n_ret=3, dim=s.dim,
        )
        source = generate_stream(s)
        mem = StarMemory.new(cfg)
        for f in source:
            mem = write_frame(mem, f)
        distinct = np.unique(mem.temporal.vectors, axis=0)
        assert len(distinct) == 3
        # aggregate cluster weight per distinct centroid == event frame count
        sums = {}
        for v, w in zip(mem.temporal.vectors, mem.temporal.weights):
            sums[v.tobytes()] = sums.get(v.tobytes(), 0.0) + w
        assert sorted(sums.values(), reverse=True) == [50.0, 30.0, 20.0]
        # centroids equal the pooled event means exactly
        levels = sorted(np.unique(mem.temporal.vectors[:, 0]))
        assert levels == [-5.0, 0.0, 10.0]

    def test_swapped_weights_score_their_gap(self):
        # 70 and 30 frames, with the store's weights scaled to 30 and 70: the
        # nearest-event match scores |0.3 - 0.7| + |0.7 - 0.3|.
        s = constant_script([0.0, 10.0], [70, 30])
        snap, labels = run_script(s)
        w = snap.temporal_weights
        first = snap.temporal.reshape(len(w), -1)[:, 0] == 0.0
        assert w[first].sum() == 70 and w[~first].sum() == 30
        swapped = replace(snap, temporal_weights=np.where(first, w * 30 / 70, w * 70 / 30))
        report = evaluate_compression(swapped, s, labels)
        assert report.weight_l1_error == pytest.approx(0.8, abs=1e-12)
        assert report.event_coverage == report.retrieval_purity == 1.0

    def test_random_labels_score_lower(self):
        s = constant_script([0.0, 10.0, -5.0], [50, 30, 20])
        snap, labels = run_script(s)
        true_report = evaluate_compression(snap, s, labels)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(labels)
        rand_report = evaluate_compression(snap, s, shuffled)
        assert rand_report.retrieval_purity < true_report.retrieval_purity

    def test_label_length_mismatch_rejected(self):
        s = constant_script([0.0], [30])
        snap, labels = run_script(s)
        with pytest.raises(ValueError):
            evaluate_compression(snap, s, labels[:-1])

    def test_noisy_separated_events_covered(self):
        s = constant_script([0.0, 100.0, 200.0], [40, 30, 20], std=1.0, seed=3)
        assert s.separation_ratio >= 20
        snap, labels = run_script(s)
        report = evaluate_compression(snap, s, labels)
        assert report.event_coverage == 1.0
        assert report.retrieval_purity == 1.0
