import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from chinf import (
    AnomalySpec,
    MtsSeries,
    SyntheticConfig,
    gen_synthetic,
    inject_anomalies,
    load_csv,
    save_csv,
)


class TestSyntheticConfig:
    def test_default_frequencies_are_distinct(self):
        cfg = SyntheticConfig(clusters=8)
        freqs = cfg.frequencies()
        assert len(freqs) == 8
        assert len(set(freqs)) == 8

    def test_frequencies_extend_past_the_base_pool(self):
        freqs = SyntheticConfig(clusters=10).frequencies()
        assert len(freqs) == 10
        assert freqs[9] > freqs[8] > freqs[7]

    def test_explicit_frequencies_must_match_clusters(self):
        with pytest.raises(ValueError, match="need 3 base frequencies, got 2"):
            SyntheticConfig(clusters=3, base_frequencies=(1.0, 2.0))

    @pytest.mark.parametrize("field", ["clusters", "channels_per_cluster", "length", "seed"])
    def test_integer_fields_must_be_integral(self, field):
        assert type(getattr(SyntheticConfig(**{field: 3.0}), field)) is int
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match=f"{field} must be an integer, got {bad!r}"):
                SyntheticConfig(**{field: bad})

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise_std"):
            SyntheticConfig(noise_std=-0.1)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"phase_jitter": "x"}, "phase_jitter must be a JSON number, got 'x'"),
            ({"phase_jitter": float("inf")}, "phase_jitter must be finite and non-negative"),
            ({"noise_std": float("nan")}, "noise_std must be finite and non-negative, got nan"),
            ({"noise_std": True}, "noise_std must be a JSON number, got True"),
            ({"clusters": 1, "base_frequencies": (float("nan"),)},
             "base frequency must be finite and non-negative, got nan"),
            ({"clusters": 1, "base_frequencies": (-3.0,)},
             "base frequency must be finite and non-negative, got -3.0"),
            ({"clusters": 1, "base_frequencies": ("3",)},
             "base frequency must be a JSON number, got '3'"),
            ({"clusters": 1, "base_frequencies": 3.0},
             "base_frequencies must be a sequence, got 3.0"),
        ],
        ids=["jitter_str", "jitter_inf", "noise_nan", "noise_bool", "freq_nan", "freq_negative",
             "freq_str", "freq_scalar"],
    )
    def test_rejects_bad_float_field(self, kw, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            SyntheticConfig(**kw)

    def test_float_fields_become_floats(self):
        cfg = SyntheticConfig(clusters=1, base_frequencies=[np.int64(3)], phase_jitter=0,
                              noise_std=np.float32(0.5))
        assert cfg.base_frequencies == (3.0,)
        assert all(type(v) is float for v in (*cfg.base_frequencies, cfg.phase_jitter,
                                               cfg.noise_std))


class TestGenSynthetic:
    def test_shape_and_names(self):
        series = gen_synthetic(SyntheticConfig(clusters=4, channels_per_cluster=8, length=50))
        assert series.values.shape == (50, 32)
        assert series.channel_names[0] == "c0_0"
        assert series.channel_names[31] == "c3_7"
        assert not series.timestep_labels.any()

    def test_deterministic(self):
        cfg = SyntheticConfig(clusters=2, channels_per_cluster=3, length=64, seed=9)
        a = gen_synthetic(cfg)
        b = gen_synthetic(cfg)
        assert np.array_equal(a.values, b.values)
        c = gen_synthetic(SyntheticConfig(2, 3, 64, seed=10))
        assert not np.array_equal(a.values, c.values)

    def test_no_jitter_no_noise_makes_cluster_channels_identical(self):
        cfg = SyntheticConfig(
            clusters=2, channels_per_cluster=3, length=80, phase_jitter=0.0, noise_std=0.0
        )
        series = gen_synthetic(cfg)
        assert np.array_equal(series.values[:, 0], series.values[:, 1])
        assert np.array_equal(series.values[:, 0], series.values[:, 2])
        assert not np.array_equal(series.values[:, 0], series.values[:, 3])

    def test_clusters_use_their_own_frequency(self):
        cfg = SyntheticConfig(
            clusters=2,
            channels_per_cluster=1,
            length=400,
            base_frequencies=(2.0, 9.0),
            phase_jitter=0.0,
            noise_std=0.0,
        )
        series = gen_synthetic(cfg)
        spectrum = np.abs(np.fft.rfft(series.values, axis=0))
        assert np.argmax(spectrum[:, 0]) == 2
        assert np.argmax(spectrum[:, 1]) == 9


def flat_series(t=40, n=3):
    return MtsSeries(np.zeros((t, n)), tuple(f"ch{i}" for i in range(n)))


class TestAnomalySpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown anomaly kind 'step'"):
            AnomalySpec("step", (0,), ((1, 2),))

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match=r"interval \[5, 5\) is empty"):
            AnomalySpec("spike", (0,), ((5, 5),))

    def test_rejects_overlapping_intervals(self):
        with pytest.raises(ValueError, match="overlap"):
            AnomalySpec("spike", (0,), ((2, 8), (5, 9)))

    @pytest.mark.parametrize(
        "channels, intervals, message",
        [
            ((1.5,), ((0, 2),), "target channel must be an integer, got 1.5"),
            ((True,), ((0, 2),), "target channel must be an integer, got True"),
            (("1",), ((0, 2),), "target channel must be an integer, got '1'"),
            ((0,), ((1.5, 9),), "interval bound must be an integer, got 1.5"),
            ((0,), ((1, float("inf")),), "interval bound must be an integer, got inf"),
            ((0,), ((1, float("nan")),), "interval bound must be an integer, got nan"),
        ],
        ids=["channel_half", "channel_bool", "channel_str", "bound_half", "bound_inf", "bound_nan"],
    )
    def test_rejects_non_integral_channel_or_bound(self, channels, intervals, message):
        with pytest.raises(ValueError, match=message):
            AnomalySpec("spike", channels, intervals)

    def test_integral_floats_and_numpy_ints_become_ints(self):
        spec = AnomalySpec("spike", (np.int64(1), 2.0), ((np.int32(3), 9.0),))
        assert spec.target_channels == (1, 2)
        assert spec.intervals == ((3, 9),)
        assert all(type(v) is int for v in spec.target_channels + spec.intervals[0])

    def test_rejects_duplicate_channels(self):
        with pytest.raises(ValueError, match="unique"):
            AnomalySpec("spike", (1, 1), ((0, 2),))

    @pytest.mark.parametrize(
        "channels, intervals, magnitude, message",
        [
            ((0,), ((0, 2),), "x", "magnitude must be a JSON number, got 'x'"),
            ((0,), ((0, 2),), float("nan"), "magnitude must be finite and non-negative, got nan"),
            ((0,), ((0, 2),), 10**400, "magnitude must be finite and non-negative, got 1000"),
            (0, ((0, 2),), 1.0, "anomaly target channels must be a sequence, got 0"),
            ((0,), None, 1.0, "anomaly intervals must be a sequence, got None"),
            ((0,), (5,), 1.0, "anomaly interval must be a sequence, got 5"),
            ((0,), ((0, 2, 4),), 1.0,
             "anomaly interval must be a (start, end) pair, got (0, 2, 4)"),
        ],
        ids=["magnitude_str", "magnitude_nan", "magnitude_past_float_range", "channels_scalar",
             "intervals_none", "interval_scalar", "interval_triple"],
    )
    def test_rejects_malformed_field(self, channels, intervals, magnitude, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            AnomalySpec("spike", channels, intervals, magnitude)


class TestInjectAnomalies:
    def test_spike_moves_values_by_magnitude(self):
        spec = AnomalySpec("spike", (1,), ((10, 15),), magnitude=2.5)
        out = inject_anomalies(flat_series(), spec, seed=3)
        assert np.array_equal(np.abs(out.values[10:15, 1]), np.full(5, 2.5))
        assert not out.values[:10].any()
        assert not out.values[:, [0, 2]].any()

    def test_labels_mark_intervals_only(self):
        spec = AnomalySpec("spike", (0,), ((3, 6), (20, 22)), magnitude=1.0)
        out = inject_anomalies(flat_series(), spec, seed=0)
        expected = np.zeros(40, dtype=int)
        expected[3:6] = 1
        expected[20:22] = 1
        assert np.array_equal(out.timestep_labels, expected)

    def test_zero_magnitude_keeps_values_but_sets_labels(self):
        series = gen_synthetic(SyntheticConfig(length=60, seed=1))
        spec = AnomalySpec("spike", (0,), ((5, 12),), magnitude=0.0)
        out = inject_anomalies(series, spec, seed=2)
        assert np.array_equal(out.values, series.values)
        assert out.timestep_labels[5:12].all()
        assert out.timestep_labels.sum() == 7

    def test_drift_ramps_linearly(self):
        spec = AnomalySpec("drift", (2,), ((0, 5),), magnitude=4.0)
        out = inject_anomalies(flat_series(), spec, seed=0)
        assert np.array_equal(out.values[0:5, 2], [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_correlation_break_roughly_preserves_moments(self):
        rng = np.random.default_rng(6)
        base = MtsSeries(
            np.column_stack([np.sin(np.arange(500.0) / 7.0)] * 2) + rng.normal(0, 0.01, (500, 2)),
            ("a", "b"),
        )
        spec = AnomalySpec("correlation_break", (1,), ((0, 500),))
        out = inject_anomalies(base, spec, seed=7)
        seg_in = base.values[:, 1]
        seg_out = out.values[:, 1]
        assert abs(seg_out.mean() - seg_in.mean()) < 0.1
        assert abs(seg_out.std() - seg_in.std()) < 0.1
        # the point of the break: correlation with the partner collapses
        assert abs(np.corrcoef(out.values[:, 0], seg_out)[0, 1]) < 0.2

    def test_composes_and_keeps_earlier_labels(self):
        series = flat_series()
        first = inject_anomalies(
            series, AnomalySpec("spike", (0,), ((2, 4),), magnitude=1.0), seed=0
        )
        second = inject_anomalies(
            first, AnomalySpec("drift", (1,), ((30, 35),), magnitude=1.0), seed=0
        )
        assert second.timestep_labels[2:4].all()
        assert second.timestep_labels[30:35].all()
        assert second.timestep_labels.sum() == 7

    def test_interval_past_series_end_rejected(self):
        spec = AnomalySpec("spike", (0,), ((30, 45),), magnitude=1.0)
        with pytest.raises(ValueError, match=r"\[30, 45\) exceeds series length 40"):
            inject_anomalies(flat_series(), spec)

    def test_channel_out_of_range_rejected(self):
        spec = AnomalySpec("spike", (3,), ((0, 2),), magnitude=1.0)
        with pytest.raises(ValueError, match="channel 3 out of range for 3"):
            inject_anomalies(flat_series(), spec)

    def test_injection_is_seed_deterministic(self):
        series = gen_synthetic(SyntheticConfig(length=60, seed=4))
        spec = AnomalySpec("spike", (1,), ((10, 20),), magnitude=0.5)
        a = inject_anomalies(series, spec, seed=5)
        b = inject_anomalies(series, spec, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_anomalous_fraction_is_controllable(self):
        t = 1000
        series = MtsSeries(np.zeros((t, 2)), ("a", "b"))
        k = 25
        spec = AnomalySpec(
            "spike", (0,), ((100, 100 + k), (600, 600 + k)), magnitude=1.0
        )
        out = inject_anomalies(series, spec)
        assert out.timestep_labels.sum() / t == 0.05


class TestCsv:
    def test_two_by_two_literal(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        series = load_csv(str(path))
        assert series.channel_names == ("a", "b")
        assert np.array_equal(series.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_headerless_gets_default_names(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("1,2\n3,4\n")
        series = load_csv(str(path))
        assert series.channel_names == ("c0", "c1")
        assert series.values.shape == (2, 2)

    @pytest.mark.parametrize(
        "text, names",
        [("1,2\n3,4\n5,6\n", ("c0", "c1")), ("a,b\n1,2\n3,4\n5,6\n", ("a", "b"))],
        ids=["headerless", "header"],
    )
    def test_byte_order_mark_is_dropped(self, tmp_path, text, names):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        (tmp_path / "bom.csv.labels").write_bytes(b"\xef\xbb\xbf0\n1\n0\n")
        series = load_csv(str(path))
        assert series.channel_names == names
        assert np.array_equal(series.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(series.timestep_labels, [0, 1, 0])

    @pytest.mark.parametrize("bad", ["csv", "labels"])
    def test_undecodable_file_named_in_the_error(self, tmp_path, bad):
        path = tmp_path / "s.csv"
        path.write_bytes(b"a,b\n1,2\n" + (b"3,\xff\n" if bad == "csv" else b"3,4\n"))
        (tmp_path / "s.csv.labels").write_bytes(b"0\n1\n" if bad == "csv" else b"0\n\xff\n")
        culprit = str(path) + (".labels" if bad == "labels" else "")
        with pytest.raises(ValueError, match=f"^{re.escape(culprit)}: 'utf-8' codec can't decode"):
            load_csv(str(path))

    def test_roundtrip_is_bit_exact(self, tmp_path):
        series = gen_synthetic(SyntheticConfig(clusters=2, channels_per_cluster=2, length=50, seed=2))
        spiked = inject_anomalies(
            series, AnomalySpec("spike", (1,), ((10, 14),), magnitude=0.7), seed=1
        )
        path = tmp_path / "series.csv"
        save_csv(spiked, str(path))
        back = load_csv(str(path))
        assert back.channel_names == spiked.channel_names
        assert np.array_equal(back.values, spiked.values)
        assert np.array_equal(back.timestep_labels, spiked.timestep_labels)

    def test_labels_file_is_optional(self, tmp_path):
        series = MtsSeries(np.ones((3, 2)), ("a", "b"))
        path = tmp_path / "plain.csv"
        save_csv(series, str(path))
        assert not (tmp_path / "plain.csv.labels").exists()
        assert load_csv(str(path)).timestep_labels is None

    def test_labels_directory_is_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        (tmp_path / "d.csv.labels").mkdir()
        assert load_csv(str(path)).timestep_labels is None

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="line 3: expected 2 values, got 1"):
            load_csv(str(path))

    def test_non_numeric_cell_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 3: 'oops' is not a number"):
            load_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(str(path))

    def test_bad_label_value_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("1,2\n3,4\n")
        (tmp_path / "l.csv.labels").write_text("0\n2\n")
        with pytest.raises(ValueError, match="label must be 0 or 1, got '2'"):
            load_csv(str(path))

    def test_label_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        (tmp_path / "m.csv.labels").write_text("0\n")
        with pytest.raises(ValueError, match="label count 1 does not match 2"):
            load_csv(str(path))

    def test_blank_and_whitespace_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\n \na,b\n1,2\n\n   \n\t\n3,4\n \n\n")
        series = load_csv(str(path))
        assert series.channel_names == ("a", "b")
        assert np.array_equal(series.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "dos.csv"
        path.write_bytes(b"a,b\r\n1,2\r\n3,4\r\n")
        series = load_csv(str(path))
        assert series.channel_names == ("a", "b")
        assert np.array_equal(series.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_cells_float_accepts_are_parsed(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_text("a,b\n 1_0 , 2\n-0.5,+3e2 \n")
        assert np.array_equal(load_csv(str(path)).values, [[10.0, 2.0], [-0.5, 300.0]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("v\n1\n# x\n2\n", "line 3: '# x' is not a number"),
            ("a,b\n1,2\n# x\n3,4\n", "line 3: expected 2 values, got 1"),
        ],
        ids=["one_column", "two_columns"],
    )
    def test_comment_line_rejected_with_its_line_number(self, tmp_path, text, message):
        path = tmp_path / "hash.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2,3\n4,5,6\n", "line 2: expected 2 values, got 3"),
            ("a,b,c\n1,2\n3,4\n", "line 2: expected 3 values, got 2"),
        ],
        ids=["wider", "narrower"],
    )
    def test_every_row_off_width_names_the_first(self, tmp_path, text, message):
        path = tmp_path / "width.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n3,\n", "line 3: '' is not a number"),
            ("a,b,c\n1,,3\n", "line 2: '' is not a number"),
            ("a,b\n1,2,\n3,4,\n", "line 2: expected 2 values, got 3"),
        ],
        ids=["empty_last_cell", "empty_middle_cell", "trailing_comma"],
    )
    def test_empty_cell_and_trailing_comma_rejected(self, tmp_path, text, message):
        path = tmp_path / "holes.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(str(path))

    def test_labels_with_crlf_and_blank_lines(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        (tmp_path / "l.csv.labels").write_bytes(b"0\r\n\r\n1\r\n  \r\n0\r\n")
        assert load_csv(str(path)).timestep_labels.tolist() == [0, 1, 0]

    def test_bad_label_names_its_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("1,2\n3,4\n")
        (tmp_path / "l.csv.labels").write_text("0\n\n1 0\n")
        with pytest.raises(ValueError, match="line 3: label must be 0 or 1, got '1 0'"):
            load_csv(str(path))

    @pytest.mark.parametrize("text", ["", "\n\n", "a,b\n", "a,b\n\n  \n"])
    def test_no_data_rows_raises_without_a_warning(self, tmp_path, text):
        path = tmp_path / "nothing.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no data rows"):
                load_csv(str(path))
        assert caught == []

    def test_extreme_floats_round_trip_bitwise(self, tmp_path):
        cells = [
            -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 0.30000000000000004,
            1.2345678901234567, -9.8765432109876543e-300, 123456789012345.67,
        ]
        series = MtsSeries(np.array(cells).reshape(6, 2), ("a", "b"))
        path = tmp_path / "extreme.csv"
        save_csv(series, str(path))
        back = load_csv(str(path))
        assert np.array_equal(back.values.view(np.int64), series.values.view(np.int64))


def float_reference(text):
    """A saved CSV's data block parsed cell by cell with float()."""
    rows = [line for line in text.split("\n")[1:] if line]
    return np.array([[float(cell) for cell in row.split(",")] for row in rows])


@settings(max_examples=60, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 6)),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
            st.floats(min_value=-1e-307, max_value=1e-307, allow_subnormal=True),
        ),
    ),
    with_labels=st.booleans(),
)
def test_save_then_load_matches_float_reference_bitwise(values, with_labels):
    t, n = values.shape
    labels = (np.arange(t) % 3 == 0).astype(np.int64) if with_labels else None
    series = MtsSeries(values, tuple(f"ch{j}" for j in range(n)), labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        save_csv(series, path)
        with open(path, encoding="utf-8") as f:
            reference = float_reference(f.read())
        back = load_csv(path)
    assert back.channel_names == series.channel_names
    assert np.array_equal(back.values.view(np.int64), reference.view(np.int64))
    assert np.array_equal(back.values.view(np.int64), values.view(np.int64))
    if with_labels:
        assert np.array_equal(back.timestep_labels, labels)
    else:
        assert back.timestep_labels is None
