import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shadowipw import data
from shadowipw.data import (DataError, Dataset, RoleMap, load_csv,
                            subset_observed, write_csv)
from shadowipw.simulate import default_config, generate

from oracles import same_columns, toy_dataset

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

    def test_infinite_cell_rejected(self, tmp_path):
        # NumPy's parser reads inf; the dataset refuses it
        path = write(tmp_path, "A,Y,I,W1,W2\n1,1,0.5,0.1,0.2\n"
                               "0,,1.5,0.3,-inf\n")
        with pytest.raises(DataError, match="column 'W2' holds -inf at row "
                                            "1; only finite numbers"):
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


ROWS = "1,1,0.5,0.1,0.2\n0,,1.5,0.3,0.4\n"
ROWS_LOADED = {"A": [1.0, 0.0], "Y": [1.0, np.nan], "I": [0.5, 1.5],
               "W1": [0.1, 0.3], "W2": [0.2, 0.4], "R": [1.0, 0.0]}


class TestLoadCsvContract:
    """What the loader accepts and how it refuses, cell by cell."""

    @pytest.mark.parametrize("body", [
        ("A,Y,I,W1,W2\n" + ROWS).replace("\n", "\r\n").encode(),
        ("A,Y,I,W1,W2\n" + ROWS).rstrip("\n").encode(),
        b'"A","Y",I,W1,"W2"\n"1","1",0.5,"0.1",0.2\n0,"",1.5,0.3,"0.4"\n',
        b"A,Y,I,W1,W2\n 1,1 ,\t0.5,  0.1 ,0.2\n0,,1.5,0.3,0.4\n",
    ], ids=["crlf", "no-final-newline", "quoted", "space-padded"])
    def test_accepted_layouts(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_bytes(body)
        ds = load_csv(path, ROLES)
        assert ds.names == tuple(ROWS_LOADED)
        for name, values in ROWS_LOADED.items():
            assert np.array_equal(ds.column(name), values, equal_nan=True)

    @pytest.mark.parametrize("text, message", [
        ("A,Y,I,W1,W2\n1,1,0.5,#0.5,0.2\n",
         r"malformed number '#0\.5' in column 'W1', row 0"),
        ("A,Y,I,W1,W2\n" + ROWS[:16] + "\n" + ROWS[16:],
         r"row 1 of .*data\.csv has 0 fields, expected 5"),
        ("A,Y,I,W1,W2\n" + ROWS + "\n",
         r"row 2 of .*data\.csv has 0 fields, expected 5"),
        ("A,Y,I,W1,W2\n1,1,0.5,NA,0.2\n",
         "column 'W1' contains missing values; only the outcome column 'Y' "
         "may"),
        ("A,Y,I,W1,W2\n1,x,0.5,0.1,0.2\n",
         r"malformed number 'x' in column 'Y', row 0"),
        ("A,Y,I,W1,W2\n" + ROWS + "1,1,0.5,0.1\n",
         r"row 2 of .*data\.csv has 4 fields, expected 5"),
        ("A,Y,I,W1,W2\n1,1,0.5,0.1,0.2,9\n",
         r"row 0 of .*data\.csv has 6 fields, expected 5"),
        # every row is read before a missing cell is judged, and the first
        # column in header order is named
        ("A,Y,I,W1,W2\n1,1,0.5,0.1,NA\n1,1,0.5,,0.2\n1,1,0.5,0.1,oops\n",
         r"malformed number 'oops' in column 'W2', row 2"),
        ("A,Y,I,W1,W2\n1,1,0.5,0.1,NA\n1,1,0.5,nan,0.2\n",
         "column 'W1' contains missing values"),
    ], ids=["comment-char", "blank-line", "blank-last-line", "na-covariate",
            "malformed-outcome", "short-row", "long-row",
            "malformed-before-missing", "missing-in-header-order"])
    def test_refused_with_first_fault(self, tmp_path, text, message):
        with pytest.raises(DataError, match=message):
            load_csv(write(tmp_path, text), ROLES)

    @pytest.mark.parametrize("text", ["A,Y,I,W1,W2\n", "A,Y,I,W1,W2"])
    def test_header_only_gives_empty_dataset(self, tmp_path, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(write(tmp_path, text), ROLES)
        assert ds.n_rows == 0
        assert ds.names == tuple(ROWS_LOADED)

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfA,Y,I,W1,W2\n" + ROWS.encode())
        ds = load_csv(path, ROLES)
        assert ds.names == tuple(ROWS_LOADED)
        assert np.array_equal(ds.column("A"), ROWS_LOADED["A"])

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "2\u0665"])
    @pytest.mark.parametrize("column", ["Y", "W2"])
    def test_numpy_number_syntax_in_every_column(self, tmp_path, cell,
                                                  column):
        # float() takes digit-group underscores and non-ASCII digits; the
        # loader parses with NumPy, which does not
        cells = dict(zip("A Y I W1 W2".split(), "1 1 0.5 0.1 0.2".split()))
        cells[column] = cell
        path = tmp_path / "data.csv"
        path.write_text("A,Y,I,W1,W2\n" + ",".join(cells.values()) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"malformed number '{cell}' in "
                                            f"column '{column}', row 0"):
            load_csv(path, ROLES)

    def test_loads_where_loadtxt_defaults_to_bytes(self, tmp_path,
                                                   monkeypatch):
        # NumPy before 2.0 defaults loadtxt's encoding to 'bytes', which
        # hands converters bytes; the loader must ask for str itself
        loadtxt = np.loadtxt

        def numpy1_loadtxt(*args, **kwargs):
            kwargs.setdefault("encoding", "bytes")
            return loadtxt(*args, **kwargs)
        monkeypatch.setattr(data.np, "loadtxt", numpy1_loadtxt)
        ds = load_csv(write(tmp_path, "A,Y,I,W1,W2\n" + ROWS
                            + "1,NA,0.5,0.1,0.2\n"), ROLES)
        assert np.array_equal(ds.column("Y"), [*ROWS_LOADED["Y"], np.nan],
                              equal_nan=True)

    def test_refusal_without_a_cell_fault_quotes_numpy(self, tmp_path,
                                                        monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("the parser's own reason")
        monkeypatch.setattr(data.np, "loadtxt", refuse)
        with pytest.raises(DataError, match="cannot parse .*data\\.csv: "
                                            "the parser's own reason"):
            load_csv(write(tmp_path, "A,Y,I,W1,W2\n" + ROWS), ROLES)


def format_cell(value: float) -> str:
    """The writer's rule, one cell at a time."""
    value = float(value)
    if math.isnan(value):
        return ""
    if (math.isfinite(value) and value == int(value) and abs(value) < 1e15
            and repr(value) != "-0.0"):
        return str(int(value))
    return repr(value)


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e15 - 1,
         -(1e15 - 1), 1e15, -1e15, 1e15 + 2, 999999999999999.9, 1e16, 2.0**53,
         2.0**63, -2.0**63, 1e300, math.inf, -math.inf, math.nan, 0.1, -7.0]


class TestWriteCsv:
    @given(hnp.arrays(np.float64, st.integers(0, 60), elements=st.one_of(
        st.floats(allow_subnormal=True), st.sampled_from(EDGES),
        st.integers(-2**62, 2**62).map(float))))
    @settings(max_examples=300, deadline=None)
    def test_cells_follow_the_per_cell_rule(self, values):
        assert data._format_column(values) == [format_cell(v) for v in values]

    def test_round_trip_is_bit_exact_at_scale(self, tmp_path):
        # every kind of value a column can hold; a dataset refuses +-inf
        rng = np.random.default_rng(8)
        n = 100_000
        y = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        y[rng.uniform(size=n) < 0.4] = np.nan
        columns = {
            "A": rng.integers(0, 2, n).astype(float), "Y": y,
            "R": (~np.isnan(y)).astype(float),
            "I": rng.choice([e for e in EDGES if math.isfinite(e)], n),
            "W1": rng.integers(-10**16, 10**16, n).astype(float),
            "W2": rng.normal(size=n) * 1e-310,
        }
        ds = Dataset(columns, ROLES)
        path = tmp_path / "big.csv"
        write_csv(ds, path)
        back = load_csv(path, ROLES)
        assert back.names == ds.names
        for name in ds.names:
            assert back.column(name).tobytes() == ds.column(name).tobytes(), \
                name


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

    @pytest.mark.parametrize("name", ["W1", "A", "Y", "Y_complete"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_cells_rejected(self, name, value):
        cols = toy_columns(Y_complete=[1.0, 0.0, 0.0, 1.0])
        cols[name] = np.array(cols[name], dtype=float)
        cols[name][2] = value
        with pytest.raises(DataError, match=f"column '{name}' holds "
                                            f"{value:g} at row 2; only "
                                            "finite numbers are allowed"):
            Dataset(cols, ROLES, oracle=("Y_complete",))

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

    def test_columns_are_copied_from_the_caller(self):
        cols = toy_columns()
        ds = Dataset(cols, ROLES)
        for name in ds.names:
            assert not np.shares_memory(ds.column(name), cols[name])

    def test_taken_columns_are_owned_and_immutable(self):
        ds = generate(default_config(n=200, seed=2))
        for sub in (ds.take(np.flatnonzero(ds.column("R"))),
                    ds.take(ds.column("R") == 1.0), subset_observed(ds)):
            for name in ds.names:
                col = sub.column(name)
                assert not np.shares_memory(col, ds.column(name))
                assert not col.flags.writeable
                with pytest.raises(ValueError):
                    col[0] = 0.0

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
        assert same_columns(once, twice)

    def test_equals_the_mask_subset_oracle_columns_included(self):
        ds = generate(default_config(n=2000, seed=4))
        sub = subset_observed(ds)
        want = ds.take(ds.column("R") == 1.0)
        assert sub.names == want.names
        assert sub.oracle_names == want.oracle_names == ds.oracle_names
        assert sub.roles == want.roles
        for name in ds.names:
            assert sub.column(name).tobytes() == want.column(name).tobytes()
        assert same_columns(subset_observed(sub), sub)

    def test_empty_result_permitted_but_flagged(self):
        ds = toy_dataset(y=(np.nan, np.nan, np.nan, np.nan))
        with pytest.warns(UserWarning, match="no rows"):
            assert subset_observed(ds).n_rows == 0

    def test_dgp_retains_roughly_sixty_percent(self):
        ds = generate(default_config(n=10000, seed=2))
        frac = subset_observed(ds).n_rows / ds.n_rows
        assert abs(frac - 0.60) < 0.05


class TestCheckAdjustment:
    ROLES = RoleMap("A", "Y", "R", "I", ("W1", "W2", "W3"))

    @pytest.mark.parametrize("Z, witness, message", [
        (("A",), None, "adjustment column 'A' is not a covariate"),
        (["W1", "Y"], None, "adjustment column 'Y' is not a covariate"),
        (("W2", "W1", "W2"), None,
         "adjustment column 'W2' appears more than once"),
        (("W1",), "W1", "witness 'W1' may not appear in the adjustment set"),
        (("W1",), "I", "witness 'I' is not a covariate"),
    ])
    def test_refused(self, Z, witness, message):
        with pytest.raises(DataError) as raised:
            self.ROLES.check_adjustment(Z, witness)
        assert str(raised.value) == message

    @pytest.mark.parametrize("Z, witness", [
        ((), None), (("W3", "W1"), None), (["W2"], "W1"), ((), "W3")])
    def test_accepted(self, Z, witness):
        self.ROLES.check_adjustment(Z, witness)
