"""Generators, CSV ingestion, splits, distribution shift."""

import math
import re

import numpy as np
import pytest

from sqopt import (
    SyntheticSpec,
    downsample_majority,
    generate_quadratic,
    load_csv,
    split_indices,
)


class TestSyntheticGenerator:
    def test_noiseless_exact(self):
        spec = SyntheticSpec(n=50, w_bar=(1.0, -2.0, 1.0), sigma=0.0, seed=3)
        dataset, groups = generate_quadratic(spec)
        x = dataset.features[:, 0]
        np.testing.assert_allclose(dataset.targets, 1 - 2 * x + x**2, atol=1e-12)
        assert groups is None
        assert x.min() >= -1.0 and x.max() <= 3.0

    def test_deterministic(self):
        spec = SyntheticSpec(n=100, w_bar=(0.0, 1.0, 0.0), sigma=1.0, seed=11)
        a, _ = generate_quadratic(spec)
        b, _ = generate_quadratic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_mixture_row_count_and_groups(self):
        spec = SyntheticSpec(n=500, w_bar=(0.0, 0.0, 1.0), sigma=0.5,
                             mixture=(0.2, (5.0, 0.0, -1.0)), seed=4)
        dataset, groups = generate_quadratic(spec)
        counts = np.bincount(groups.assignment)
        assert counts.size == 5
        assert counts[4] == round(0.2 * 500)
        assert counts[:4].sum() == 400
        assert groups.n_groups == 5
        # alternate rows actually follow the alternate trend
        alt = groups.assignment == 4
        x = dataset.features[alt, 0]
        residual_alt = dataset.targets[alt] - (5.0 - x**2)
        assert np.abs(residual_alt).max() < 5 * 0.5 + 1.0

    def test_noise_moments(self):
        spec = SyntheticSpec(n=100_000, w_bar=(0.0, 0.0, 0.0), sigma=2.0, seed=12)
        dataset, _ = generate_quadratic(spec)
        noise = dataset.targets
        n = noise.size
        assert abs(noise.mean()) <= 5 * 2.0 / np.sqrt(n)
        assert abs(noise.var() - 4.0) <= 5 * 4.0 * np.sqrt(2.0 / n)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            SyntheticSpec(n=0, w_bar=(0, 0, 0))
        with pytest.raises(ValueError, match="fraction"):
            SyntheticSpec(n=5, w_bar=(0, 0, 0), mixture=(1.5, (0, 0, 0)))
        for n in (2.5, 5.0, True, np.float64(5.0)):
            with pytest.raises(ValueError, match="n must be an integer"):
                SyntheticSpec(n=n, w_bar=(0, 0, 0))
        for sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
                SyntheticSpec(n=5, w_bar=(0, 0, 0), sigma=sigma)
        # a vector of another length, or one with a NaN, is named before any draw
        for coeffs in ((1, 2), (1, 2, 3, 4), (0, math.nan, 0), (0, 0, math.inf)):
            with pytest.raises(ValueError, match="w_bar must be three finite numbers"):
                SyntheticSpec(n=5, w_bar=coeffs)
            with pytest.raises(ValueError, match="mixture coefficients must be three finite numbers"):
                SyntheticSpec(n=5, w_bar=(0, 0, 0), mixture=(0.5, coeffs))
        for seed in (-1, 1.5, 2.0, True, None):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                SyntheticSpec(n=5, w_bar=(0, 0, 0), seed=seed)
        # a mixture of another shape is named before its fraction and coefficients are read
        for mixture in ((0.5,), (0.5, (1, 2, 3), 7), 0.5):
            with pytest.raises(ValueError, match=r"mixture must be a \(fraction, coefficients\) pair"):
                SyntheticSpec(n=5, w_bar=(0, 0, 0), mixture=mixture)


class TestSplits:
    def test_partition(self):
        train, test = split_indices(103, 0.8, 0)
        assert train.size + test.size == 103
        assert np.intersect1d(train, test).size == 0
        assert train.size == round(0.8 * 103)

    def test_deterministic(self):
        a = split_indices(50, 0.8, 5)
        b = split_indices(50, 0.8, 5)
        assert np.array_equal(a[0], b[0])
        c = split_indices(50, 0.8, 6)
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5])
    def test_fraction_outside_open_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"train_fraction must be in \(0, 1\)"):
            split_indices(10, fraction, 0)

    @pytest.mark.parametrize("n", [0, 1, 5.5, 10.0, True])
    def test_fewer_than_two_rows_rejected(self, n):
        with pytest.raises(ValueError, match="need at least two rows to split: n must be an integer"):
            split_indices(n, 0.5, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            split_indices(10, 0.8, seed)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_numeric_regression(self, tmp_path):
        path = write(tmp_path, "a.csv", "x1,x2,y\n1,2,3\n4,5,6\n")
        ds = load_csv(path)
        assert ds.features.shape == (2, 2)
        np.testing.assert_allclose(ds.targets, [3.0, 6.0])

    def test_categorical_one_hot(self, tmp_path):
        path = write(tmp_path, "b.csv", "color,size,y\nred,1,0.5\nblue,2,1.5\ngreen,3,2.5\n")
        ds = load_csv(path)
        # 3 levels one-hot (lexicographic: blue, green, red) then the numeric column
        assert ds.features.shape == (3, 4)
        np.testing.assert_allclose(ds.features[0], [0, 0, 1, 1])
        np.testing.assert_allclose(ds.features[1], [1, 0, 0, 2])
        np.testing.assert_allclose(ds.features[2], [0, 1, 0, 3])

    def test_abalone_style_schema(self, tmp_path):
        header = "Sex,Length,Diameter,Height,Whole,Shucked,Viscera,Shell,Rings"
        rows = ["M,0.455,0.365,0.095,0.514,0.2245,0.101,0.15,15",
                "F,0.53,0.42,0.135,0.677,0.2565,0.1415,0.21,9",
                "I,0.44,0.365,0.125,0.516,0.2155,0.114,0.155,10"]
        path = write(tmp_path, "abalone.csv", header + "\n" + "\n".join(rows) + "\n")
        ds = load_csv(path, task="regression")
        # one-hot Sex (F, I, M) + 7 numeric columns
        assert ds.features.shape == (3, 10)
        np.testing.assert_allclose(ds.targets, [15.0, 9.0, 10.0])
        np.testing.assert_allclose(ds.features[:, :3], np.eye(3)[[2, 0, 1]])

    @pytest.mark.parametrize("column,row,cell", [
        (["1.0", "2.0", "np.float64(3.0)", "4.0"], 4, "np.float64(3.0)"),
        (["1", "", "3"], 3, ""),
        (["red", "7", "blue"], 2, "red"),
    ])
    def test_column_mixing_numbers_and_text_rejected(self, tmp_path, column, row, cell):
        # one stray cell would otherwise turn a numeric column into one indicator per value
        text = "size,x,y\n" + "".join(f"{k},{c},{k}\n" for k, c in enumerate(column))
        path = write(tmp_path, "mixed.csv", text)
        with pytest.raises(ValueError, match=rf"column 'x' mixes numbers with text: row {row} holds '{re.escape(cell)}'"):
            load_csv(path)

    def test_classification_label_mapping(self, tmp_path):
        path = write(tmp_path, "c.csv", "x,y\n1,yes\n2,no\n3,yes\n")
        ds = load_csv(path, task="classification")
        # lexicographic: 'no' -> -1, 'yes' -> +1
        np.testing.assert_allclose(ds.targets, [1.0, -1.0, 1.0])

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged row 3"):
            load_csv(path)

    def test_too_many_classes_rejected(self, tmp_path):
        path = write(tmp_path, "e.csv", "x,y\n1,a\n2,b\n3,c\n")
        with pytest.raises(ValueError, match="exactly 2 classes"):
            load_csv(path, task="classification")

    def test_unparseable_regression_label(self, tmp_path):
        path = write(tmp_path, "f.csv", "x,y\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="unparseable numeric label"):
            load_csv(path)

    def test_unknown_task(self, tmp_path):
        path = write(tmp_path, "g.csv", "x,y\n1,2\n")
        with pytest.raises(ValueError, match="unknown task"):
            load_csv(path, task="ranking")

    @pytest.mark.parametrize("text,message", [
        ("x,y\n", "need a header row and at least one data row"),
        ("y\n1\n2\n", "need at least one feature column and a label column"),
    ])
    def test_header_only_or_label_only_rejected(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=message):
            load_csv(write(tmp_path, "h.csv", text))

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_csv("/nonexistent/file.csv")


class TestDownsampleMajority:
    def _binary(self, n_pos, n_neg, seed=0):
        from sqopt import Dataset
        rng = np.random.default_rng(seed)
        y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
        return Dataset(rng.normal(0, 1, (y.size, 2)), y)

    def test_balanced_keeps_minority_plus_slice(self):
        ds = self._binary(100, 100)
        out = downsample_majority(ds, 0.1, seed=0)
        assert out.n_rows == 110
        assert int((out.targets == -1).sum()) == 100  # minority intact (tie: +1 is majority)
        assert int((out.targets == 1).sum()) == 10

    def test_ratio_one_with_majority_not_larger_unchanged(self):
        ds = self._binary(50, 50)
        out = downsample_majority(ds, 1.0, seed=0)
        assert out.n_rows == 100
        assert np.array_equal(out.targets, ds.targets)

    def test_ratio_one_still_caps_larger_majority(self):
        ds = self._binary(40, 60)
        out = downsample_majority(ds, 1.0, seed=0)
        assert int((out.targets == -1).sum()) == 40
        assert int((out.targets == 1).sum()) == 40

    def test_counts(self):
        ds = self._binary(300, 70)
        out = downsample_majority(ds, 0.1, seed=1)
        assert int((out.targets == 1).sum()) == 7
        assert int((out.targets == -1).sum()) == 70

    def test_deterministic(self):
        ds = self._binary(200, 50)
        a = downsample_majority(ds, 0.1, seed=4)
        b = downsample_majority(ds, 0.1, seed=4)
        assert np.array_equal(a.features, b.features)

    def test_single_class_rejected(self):
        from sqopt import Dataset
        ds = Dataset(np.zeros((5, 1)), np.ones(5))
        with pytest.raises(ValueError, match="two classes"):
            downsample_majority(ds, 0.1)

    def test_ratio_validation(self):
        ds = self._binary(10, 10)
        with pytest.raises(ValueError, match="ratio"):
            downsample_majority(ds, 0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_validation(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            downsample_majority(self._binary(10, 10), 0.5, seed=seed)
