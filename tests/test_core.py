import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wolearn.core import (
    Dataset,
    InterventionPlan,
    ParameterError,
    always_treat,
    feature_matrix,
    never_treat,
    split_dataset,
)


def _toy_dataset(n=3, T=5, d_x=1, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, T, d_x)),
        rng.integers(0, 2, size=(n, T)),
        rng.normal(size=(n, T)),
    )


class TestInterventionPlan:
    def test_always_never_complement(self):
        a = always_treat(2, 3)
        assert a.values == (1, 1, 1, 1)
        assert a.horizon == 3 and a.end == 5
        assert never_treat(2, 3) == InterventionPlan(2, (0, 0, 0, 0))

    def test_validation(self):
        with pytest.raises(ParameterError):
            InterventionPlan(0, ())
        with pytest.raises(ParameterError):
            InterventionPlan(0, (0, 2))
        with pytest.raises(ParameterError, match="plan start=-1 must be at least 0"):
            InterventionPlan(-1, (1, 1))
        # int() would truncate these to a valid plan
        with pytest.raises(ParameterError, match="plan value"):
            InterventionPlan(0, (0.5, 1))
        with pytest.raises(ParameterError, match="plan start"):
            InterventionPlan(1.5, (1, 1))

    def test_value_and_propensity(self):
        plan = InterventionPlan(2, (1, 0, 1))
        p1 = np.array([0.2, 0.7])
        assert [plan.value(j) for j in (2, 3, 4)] == [1, 0, 1]
        for j in (1, 5):
            with pytest.raises(ParameterError, match="outside plan range"):
                plan.value(j)
            with pytest.raises(ParameterError, match="outside plan range"):
                plan.propensity(j, p1)
        assert plan.propensity(2, p1) is p1
        np.testing.assert_array_equal(plan.propensity(3, p1), 1.0 - p1)


class TestFeatures:
    def test_feature_dim_full_history(self):
        # T=5, d_x=1: 5 steps x (X, lagged Y, lagged A) + anchor index = 16
        data = _toy_dataset(T=5, d_x=1)
        values = feature_matrix(data, anchor=4, window="full")
        assert values.shape == (3, 16)

    def test_feature_placement(self):
        data = _toy_dataset(n=2, T=4, d_x=2, seed=1)
        values = feature_matrix(data, anchor=2, window=2)
        # steps s = 1, 2 oldest first; per step (X_s, Y_{s-1}, A_{s-1})
        i = 0
        expect = np.column_stack(
            [
                data.x[:, 1, 0], data.x[:, 1, 1], data.y[:, 0], data.a[:, 0],
                data.x[:, 2, 0], data.x[:, 2, 1], data.y[:, 1], data.a[:, 1],
                np.full(2, 2.0),
            ]
        )
        np.testing.assert_allclose(values, expect)

    def test_presample_slots_masked(self):
        data = _toy_dataset(n=2, T=3, d_x=1, seed=2)
        values = feature_matrix(data, anchor=0, window=2)
        # step s=-1 fully absent; s=0 lags absent; anchor index present
        assert (values[:, :3] == 0).all() and (values[:, 4:6] == 0).all()
        np.testing.assert_allclose(values[:, 3], data.x[:, 0, 0])

    def test_anchor_and_window_bounds(self):
        data = _toy_dataset()
        with pytest.raises(IndexError):
            feature_matrix(data, 5)
        with pytest.raises(ParameterError):
            feature_matrix(data, 2, window=0)
        with pytest.raises(ParameterError):
            feature_matrix(data, 2, window=6)


class TestDataset:
    def test_jsonl_roundtrip(self, tmp_path):
        data = _toy_dataset(n=4, T=3, d_x=2, seed=4)
        data.meta["generator"] = "toy"
        path = tmp_path / "panel.jsonl"
        data.to_jsonl(path)
        back = Dataset.from_jsonl(path)
        np.testing.assert_allclose(back.x, data.x)
        np.testing.assert_array_equal(back.a, data.a)
        np.testing.assert_allclose(back.y, data.y)
        np.testing.assert_array_equal(back.ids, data.ids)
        assert back.meta["generator"] == "toy"
        with open(path) as f:
            header = json.loads(f.readline())
        assert header["n"] == 4 and header["T"] == 3 and header["d_x"] == 2

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            Dataset(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), T=st.integers(1, 4), d_x=st.integers(1, 3),
           entry=st.sampled_from([("x", np.nan), ("y", np.nan), ("x", np.inf), ("x", -np.inf),
                                  ("y", np.inf), ("y", -np.inf), ("a", np.nan), ("a", 2),
                                  ("a", 0.5), ("a", -1)]),
           seed=st.integers(0, 50))
    def test_bad_entries_rejected(self, n, T, d_x, entry, seed):
        # One bad entry anywhere: NaN or +-inf covariates or outcomes, or a
        # treatment outside {0, 1} (0.5 must not be truncated to 0 by the int
        # cast).
        field, bad = entry
        arrays = {"x": np.zeros((n, T, d_x)), "a": np.zeros((n, T)), "y": np.zeros((n, T))}
        Dataset(**arrays)  # the clean panel is accepted
        target = arrays[field].reshape(-1)
        target[np.random.default_rng(seed).integers(target.size)] = bad
        with pytest.raises(ParameterError):
            Dataset(**arrays)

    @pytest.mark.parametrize("ids, match", [
        ([[0, 1], [2, 3], [4, 5]], "shape"),
        ([[0, 1], 1, 2], "shape"),  # ragged
        ([0.5, 1.5, 2.5], "integers"),  # used to be truncated to (0, 1, 2)
        ([0, 1, np.nan], "integers"),
        ([True, False, True], "integers"),
        (["a", "b", "c"], "integers"),
        ([4, 7, 4], "distinct"),  # used to fail in prepare_cell as overlapping splits
    ])
    def test_bad_ids_rejected(self, tmp_path, ids, match):
        data = _toy_dataset(n=3)
        with pytest.raises(ParameterError, match=f"ids must .*{match}"):
            Dataset(data.x, data.a, data.y, ids=ids)
        # the same ids read from a file, one per row
        path = tmp_path / "panel.jsonl"
        data.to_jsonl(path)
        header, *lines = path.read_text().splitlines()
        rows = [{**json.loads(line), "id": unit_id} for line, unit_id in zip(lines, ids)]
        path.write_text("\n".join([header, *map(json.dumps, rows)]) + "\n")
        with pytest.raises(ParameterError, match=f"ids must .*{match}"):
            Dataset.from_jsonl(path)

    def test_ids_of_another_length_rejected(self):
        # split_dataset used to fail with a bare IndexError
        data = _toy_dataset(n=5)
        with pytest.raises(ParameterError, match=r"ids must have shape \(5,\)"):
            Dataset(data.x, data.a, data.y, ids=[1, 2])

    def test_integral_float_ids_become_ints(self):
        data = _toy_dataset(n=3)
        back = Dataset(data.x, data.a, data.y, ids=[7.0, 3.0, 5.0])
        assert back.ids.dtype == np.int64 and back.ids.tolist() == [7, 3, 5]

    def test_jsonl_validates(self, tmp_path):
        data = _toy_dataset(n=2, T=3, d_x=1, seed=4)
        path = tmp_path / "panel.jsonl"
        data.to_jsonl(path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["a"][0] = 2
        path.write_text("\n".join([lines[0], json.dumps(row), *lines[2:]]) + "\n")
        with pytest.raises(ParameterError, match="binary"):
            Dataset.from_jsonl(path)
        # json reads the token Infinity as a float; the panel must refuse it
        row = json.loads(lines[1])
        row["y"][1] = float("inf")
        path.write_text("\n".join([lines[0], json.dumps(row), *lines[2:]]) + "\n")
        assert "Infinity" in path.read_text()
        with pytest.raises(ParameterError, match="infinite"):
            Dataset.from_jsonl(path)


    @pytest.mark.parametrize("fault, line, match", [
        # each used to raise a bare KeyError, numpy's ragged-array ValueError
        # or a JSONDecodeError, or, for the header's n, load silently
        (lambda h, rows: (h, [{k: v for k, v in rows[0].items() if k != "id"}, *rows[1:]]),
         2, "field 'id' is missing"),
        (lambda h, rows: (h, [rows[0], {**rows[1], "y": rows[1]["y"][:-1]}, rows[2]]),
         3, r"field 'y' .*shape \(3,\)"),
        (lambda h, rows: (h, [rows[0], rows[1], {**rows[2], "x": [[0.0], [1.0, 2.0], [3.0]]}]),
         4, r"field 'x' .*shape \(3, 1\)"),
        (lambda h, rows: (h, [{**rows[0], "a": ["1", "0", "1"]}, *rows[1:]]), 2, "field 'a'"),
        (lambda h, rows: ("", rows), 1, "not valid JSON"),
        (lambda h, rows: (h, [rows[0], "{bad", rows[2]]), 3, "not valid JSON"),
        (lambda h, rows: (h, [rows[0], [1, 2], rows[2]]), 3, "not a JSON object"),
        (lambda h, rows: ({**h, "n": 7}, rows), 1, "'n' is 7, but 3 rows follow"),
        (lambda h, rows: ({**h, "T": 4}, rows), 2, r"field 'x' .*shape \(4, 1\)"),
        (lambda h, rows: ({**h, "d_x": 2}, rows), 2, r"field 'x' .*shape \(3, 2\)"),
        (lambda h, rows: ({k: v for k, v in h.items() if k != "T"}, rows), 1, "'T'"),
    ], ids=["no id", "short y", "ragged x", "string a", "empty header", "malformed row",
            "row not an object", "header n", "header T", "header d_x", "header without T"])
    def test_malformed_jsonl_rejected_by_file_line_and_field(self, tmp_path, fault, line,
                                                             match):
        path = tmp_path / "panel.jsonl"
        data = _toy_dataset(n=3, T=3, d_x=1, seed=2)
        data.to_jsonl(path)
        back = Dataset.from_jsonl(path)  # the clean round trip still loads
        np.testing.assert_array_equal(back.x, data.x)
        header, *rows = map(json.loads, path.read_text().splitlines())
        header, rows = fault(header, rows)
        path.write_text("\n".join(v if isinstance(v, str) else json.dumps(v)
                                  for v in (header, *rows)) + "\n")
        with pytest.raises(ParameterError, match=f"panel.jsonl, line {line}: .*{match}"):
            Dataset.from_jsonl(path)


class TestSplit:
    def test_split_sizes_and_disjointness(self):
        data = _toy_dataset(n=101, seed=5)
        nuis, stage2 = split_dataset(data, 0.5, seed=0)
        assert (nuis.n, stage2.n) == (51, 50)  # stage-2 gets floor(lam * n)
        assert not set(nuis.ids.tolist()) & set(stage2.ids.tolist())

    def test_split_deterministic(self):
        data = _toy_dataset(n=20, seed=6)
        a1, b1 = split_dataset(data, 0.5, seed=7)
        a2, b2 = split_dataset(data, 0.5, seed=7)
        np.testing.assert_array_equal(a1.ids, a2.ids)
        np.testing.assert_array_equal(b1.ids, b2.ids)
        a3, _ = split_dataset(data, 0.5, seed=8)
        assert not np.array_equal(a1.ids, a3.ids)

    def test_invalid_lambda(self):
        data = _toy_dataset()
        for lam in (0.0, 1.0, -0.2):
            with pytest.raises(ParameterError):
                split_dataset(data, lam, seed=0)
        # "0.5" and None used to raise a bare TypeError
        for lam in ("0.5", None):
            with pytest.raises(ParameterError, match="lambda"):
                split_dataset(data, lam, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 60), lam=st.floats(0.01, 0.99), seed=st.integers(0, 10))
    @example(n=3, lam=0.3, seed=0)  # floor(0.9) = 0 stage-2 units
    @example(n=1, lam=0.5, seed=0)
    def test_split_never_returns_an_empty_side(self, n, lam, seed):
        data = _toy_dataset(n=n, seed=9)
        if not 0 < int(np.floor(lam * n)) < n:
            with pytest.raises(ParameterError, match="empty"):
                split_dataset(data, lam, seed=seed)
        else:
            nuis, stage2 = split_dataset(data, lam, seed=seed)
            assert nuis.n > 0 and stage2.n > 0

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 60), lam=st.floats(0.05, 0.95), seed=st.integers(0, 10))
    def test_split_partitions_exactly(self, n, lam, seed):
        assume(0 < int(np.floor(lam * n)) < n)  # empty sides are rejected
        data = _toy_dataset(n=n, seed=9)
        nuis, stage2 = split_dataset(data, lam, seed=seed)
        assert stage2.n == int(np.floor(lam * n))
        assert sorted(nuis.ids.tolist() + stage2.ids.tolist()) == list(range(n))
