import numpy as np
import pytest

from shadowipw.data import (DataError, Dataset, RoleMap, load_csv,
                            subset_observed, write_csv)
from shadowipw.simulate import default_config, generate

from conftest import toy_dataset

ROLES = RoleMap("A", "Y", "R", "I", ("W1", "W2"))


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_response_derived_from_missing_outcome(self, tmp_path):
        path = write(tmp_path, "A,Y,I,W1,W2\n1,1,0.5,0.1,0.2\n0,,1.5,0.3,0.4\n"
                               "1,0,-0.5,0.5,0.6\n0,1,0.7,0.8,0.9\n")
        ds = load_csv(path, ROLES)
        assert np.array_equal(ds.column("R"), [1.0, 0.0, 1.0, 1.0])
        assert np.isnan(ds.column("Y")[1])

    def test_missing_treatment_column_rejected(self, tmp_path):
        path = write(tmp_path, "Y,I,W1,W2\n1,0.5,0.1,0.2\n")
        with pytest.raises(DataError, match="'A' not found"):
            load_csv(path, ROLES)

    def test_malformed_number_rejected(self, tmp_path):
        path = write(tmp_path, "A,Y,R,I,W1,W2\n1,1,1,abc,0.1,0.2\n")
        with pytest.raises(DataError, match="malformed number 'abc'"):
            load_csv(path, ROLES)

    def test_consistency_violation_rejected(self, tmp_path):
        # outcome present while response = 0
        path = write(tmp_path, "A,Y,R,I,W1,W2\n1,1,0,0.5,0.1,0.2\n"
                               "0,1,1,0.3,0.2,0.1\n")
        with pytest.raises(DataError, match="consistency"):
            load_csv(path, ROLES)

    def test_na_token_accepted(self, tmp_path):
        path = write(tmp_path, "A,Y,I,W1,W2\n1,NA,0.5,0.1,0.2\n0,1,0.1,0.2,0.3\n")
        ds = load_csv(path, ROLES)
        assert np.isnan(ds.column("Y")[0])
        assert ds.column("R")[0] == 0.0

    def test_missing_in_covariate_rejected(self, tmp_path):
        path = write(tmp_path, "A,Y,I,W1,W2\n1,1,0.5,,0.2\n")
        with pytest.raises(DataError, match="'W1' contains missing"):
            load_csv(path, ROLES)

    def test_round_trip_identity(self, tmp_path):
        ds = generate(default_config(n=300, seed=3))
        out = tmp_path / "sim.csv"
        write_csv(ds, out)
        back = load_csv(out, ds.roles)
        for name in back.names:
            assert np.array_equal(back.column(name), ds.column(name),
                                  equal_nan=True), name
        # oracle columns went to the sibling file, not the main one
        assert "Y_complete" not in back.names
        assert (tmp_path / "sim.oracle.csv").exists()

    def test_round_trip_twice_is_byte_identical(self, tmp_path):
        ds = generate(default_config(n=200, seed=4))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(ds, first)
        write_csv(load_csv(first, ds.roles), second)
        assert first.read_bytes() == second.read_bytes()


def toy_columns(**replacements):
    ds = toy_dataset()
    cols = {n: ds.column(n) for n in ds.names}
    cols.update(replacements)
    return cols


class TestDatasetValidation:
    def test_binary_column_validated_eagerly(self):
        for role in ("A", "R"):
            # fully observed, so that only the 2.0 breaks a rule
            replacements = {"Y": [1.0, 0.0, 0.0, 1.0], "R": [1.0] * 4}
            replacements[role] = [1.0, 2.0, 1.0, 1.0]
            with pytest.raises(DataError, match=f"binary column '{role}'"):
                Dataset(toy_columns(**replacements), ROLES)

    def test_only_optional_columns_may_be_missing(self):
        for name in ("W1", "I", "R"):
            cols = toy_columns(**{name: [1.0, np.nan, 0.0, 1.0]})
            with pytest.raises(DataError, match=f"column '{name}' contains "
                                                "missing values; only the "
                                                "outcome column 'Y' may"):
                Dataset(cols, ROLES)

    def test_oracle_columns_may_not_be_missing(self):
        cols = toy_columns(Y_complete=[1.0, np.nan, 0.0, 1.0])
        with pytest.raises(DataError, match="'Y_complete' contains missing"):
            Dataset(cols, ROLES, oracle=("Y_complete",))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DataError, match="rows"):
            Dataset(toy_columns(W1=[1.0, 2.0]), ROLES)

    def test_role_column_must_exist(self):
        cols = toy_columns()
        del cols["W2"]
        with pytest.raises(DataError, match="unknown column 'W2'"):
            Dataset(cols, ROLES)

    def test_other_columns_may_hold_any_number(self):
        ds = Dataset(toy_columns(X=[0.5, 2.0, -3.0, 1.0]), ROLES)
        assert ds.column("X")[1] == 2.0

    def test_columns_are_immutable(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            ds.column("A")[0] = 0.0

    def test_roles_must_reference_distinct_columns(self):
        with pytest.raises(DataError, match="distinct"):
            RoleMap("A", "A", "R", "I", ("W1",))

    def test_oracle_columns_cannot_take_roles(self):
        ds = generate(default_config(n=50, seed=1))
        bad = RoleMap("A", "Y", "R", "I", ("W1", "Y_complete"))
        with pytest.raises(DataError, match="oracle-only"):
            Dataset({n: ds.column(n) for n in ds.names}, bad,
                    ds.oracle_names)


class TestSubsetObserved:
    def test_identity_when_fully_observed(self):
        ds = toy_dataset(y=(1.0, 0.0, 0.0, 1.0))
        sub = subset_observed(ds)
        assert sub.n_rows == ds.n_rows
        assert np.array_equal(sub.column("Y"), ds.column("Y"))

    def test_keeps_responding_rows(self):
        ds = toy_dataset(y=(1.0, np.nan, 0.0, np.nan))
        sub = subset_observed(ds)
        assert sub.n_rows == 2
        assert np.array_equal(sub.column("W1"), ds.column("W1")[[0, 2]])

    def test_idempotent(self):
        ds = toy_dataset()
        once = subset_observed(ds)
        twice = subset_observed(once)
        assert once.equals(twice)

    def test_empty_result_permitted_but_flagged(self):
        ds = toy_dataset(y=(np.nan, np.nan, np.nan, np.nan))
        with pytest.warns(UserWarning, match="no rows"):
            assert subset_observed(ds).n_rows == 0

    def test_dgp_retains_roughly_sixty_percent(self):
        ds = generate(default_config(n=10000, seed=2))
        frac = subset_observed(ds).n_rows / ds.n_rows
        assert abs(frac - 0.60) < 0.05
