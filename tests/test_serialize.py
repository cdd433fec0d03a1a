import json

import numpy as np
import pytest

from twistbench import default_model, geometry_report, random_trig_graph
from twistbench.serialize import (
    geometry_report_table,
    read_field_binary,
    read_field_csv,
    write_field_binary,
    write_field_csv,
    write_gnuplot_data,
    write_json,
    write_jsonl,
    write_table_csv,
)

from conftest import random_trig_field, unit_torus


def test_field_csv_round_trip(tmp_path):
    grid = unit_torus(2, 16)
    field = random_trig_field(grid, seed=1)
    path = tmp_path / "field.csv"
    write_field_csv(grid, field, path)
    back = read_field_csv(grid, path)
    assert np.array_equal(back, field)


def test_field_binary_round_trip(tmp_path):
    grid = unit_torus(3, 8)
    field = random_trig_field(grid, seed=2)
    path = tmp_path / "field.bin"
    write_field_binary(grid, field, path)
    back = read_field_binary(grid, path)
    assert np.array_equal(back, field)
    assert path.stat().st_size == grid.n_nodes * 8


def test_writers_are_deterministic(tmp_path):
    grid = unit_torus(1, 32)
    field = random_trig_field(grid, seed=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_field_csv(grid, field, a)
    write_field_csv(grid, field, b)
    assert a.read_bytes() == b.read_bytes()

    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"z": 1.0 / 3.0, "a": [1, 2, 3]}
    write_json(payload, ja)
    write_json(payload, jb)
    assert ja.read_bytes() == jb.read_bytes()


def test_jsonl_order_preserved(tmp_path):
    path = tmp_path / "log.jsonl"
    entries = [{"iter": 0, "residual_inf": 1.0}, {"iter": 1, "residual_inf": 0.5}]
    write_jsonl(entries, path)
    lines = path.read_text().strip().splitlines()
    assert [json.loads(line)["iter"] for line in lines] == [0, 1]


def test_gnuplot_data_has_comment_header(tmp_path):
    path = tmp_path / "cols.dat"
    write_gnuplot_data({"x": [0.0, 1.0], "y": [2.0, 3.0]}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# x y"
    assert len(lines) == 3


def test_geometry_report_table_columns():
    model = default_model(2, resolution=16, twist="separable_gauss")
    report = geometry_report(random_trig_graph(model, seed=4, amplitude=0.05))
    table = geometry_report_table(report)
    n = model.fiber.n_nodes
    expected = {"i1", "i2", "x1", "x2", "u", "margin", "rho", "cosh_theta",
                "mean_curvature", "laplacian_tau", "obstruction_norm"}
    assert expected == set(table)
    assert all(np.asarray(col).size == n for col in table.values())


def reference_table_csv(columns, path):
    """The cell-by-cell writer: each cell an int or ``%.17g`` by its own dtype."""
    arrays = [np.asarray(col).ravel() for col in columns.values()]
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*arrays):
            cells = [str(int(v)) if np.issubdtype(np.asarray(v).dtype, np.integer) else "%.17g" % v
                     for v in row]
            fh.write(",".join(cells) + "\n")


class TestOneCsvWriter:
    @pytest.mark.parametrize("dim, m", [(1, 9), (2, 8), (3, 8)])
    def test_field_csv_is_the_node_table(self, tmp_path, dim, m):
        grid = unit_torus(dim, m, curved=True)
        field = random_trig_field(grid, seed=dim)
        write_field_csv(grid, field, tmp_path / "field.csv", name="u")
        idx, xyz = grid.node_indices(), grid.node_coordinates()
        columns = {f"i{k + 1}": idx[:, k] for k in range(dim)}
        columns.update({f"x{k + 1}": xyz[:, k] for k in range(dim)})
        columns["u"] = field
        reference_table_csv(columns, tmp_path / "reference.csv")
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        lines = (tmp_path / "field.csv").read_text().splitlines()
        assert lines[0] == ",".join([f"i{k + 1}" for k in range(dim)]
                                    + [f"x{k + 1}" for k in range(dim)] + ["u"])
        assert len(lines) == grid.n_nodes + 1

    @pytest.mark.parametrize("name", ["i1", "x2"])
    def test_field_name_may_not_be_a_node_column(self, tmp_path, name):
        grid = unit_torus(2, 8)
        with pytest.raises(ValueError, match=f"^field name '{name}' is taken by a node column$"):
            write_field_csv(grid, np.zeros(grid.shape), tmp_path / "field.csv", name=name)
        assert not (tmp_path / "field.csv").exists()

    def test_table_csv_formats_each_column_by_its_dtype(self, tmp_path):
        # 10,000 rows cross several write chunks; signed zeros, subnormals
        # and the int, bool, float32 and float64 dtypes keep their cells
        rng = np.random.default_rng(7)
        n = 10_000
        values = rng.standard_normal(n)
        values[:4] = (-0.0, 5e-324, 1e30, 1.0 / 3.0)
        columns = {
            "k": np.arange(n, dtype=np.int32),
            "big": np.arange(n, dtype=np.int64) * 2**49,  # past 17 digits
            "flag": values > 0.0,
            "single": values.astype(np.float32),
            "value": values,
        }
        write_table_csv(columns, tmp_path / "table.csv")
        reference_table_csv(columns, tmp_path / "reference.csv")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert (tmp_path / "table.csv").read_text().splitlines()[1] == "0,0,0,-0,-0"

    def test_gnuplot_rows_are_the_csv_rows(self, tmp_path):
        # the same cells as the CSV, integers past 17 digits included
        n = 5000
        values = np.random.default_rng(8).standard_normal(n)
        columns = {"k": np.arange(n), "big": np.arange(n) * 2**49, "value": values}
        write_table_csv(columns, tmp_path / "table.csv")
        write_gnuplot_data(columns, tmp_path / "table.dat")
        csv_lines = (tmp_path / "table.csv").read_text().splitlines()
        dat_lines = (tmp_path / "table.dat").read_text().splitlines()
        assert dat_lines[0] == "# k big value"
        assert dat_lines[1:] == [line.replace(",", " ") for line in csv_lines[1:]]
        assert dat_lines[-1].split()[1] == str((n - 1) * 2**49)

    @pytest.mark.parametrize("dim, m", [(1, 9), (2, 8), (3, 8)])
    def test_report_dat_rows_are_the_report_csv_rows(self, tmp_path, dim, m):
        model = default_model(dim, resolution=m, twist="separable_gauss")
        report = geometry_report(random_trig_graph(model, seed=dim, amplitude=0.05))
        table = geometry_report_table(report)
        write_table_csv(table, tmp_path / "report.csv")
        write_gnuplot_data(table, tmp_path / "report.dat")
        csv_rows = [line.split(",") for line in
                    (tmp_path / "report.csv").read_text().splitlines()[1:]]
        dat_rows = [line.split(" ") for line in
                    (tmp_path / "report.dat").read_text().splitlines()[1:]]
        assert dat_rows == csv_rows
        # the index columns i1.. print as integers
        assert [row[:dim] for row in dat_rows] == [
            [str(i) for i in index] for index in model.fiber.node_indices()]
