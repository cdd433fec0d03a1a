"""Field and report serialization: CSV, flat binary, JSON, gnuplot columns.

All writers are deterministic (sorted JSON keys, fixed float formatting) so
reruns with the same config and seed produce byte-identical outputs; wall
clock metadata lives in its own file.
"""

import json
import time

import numpy as np

__all__ = [
    "write_field_csv",
    "read_field_csv",
    "write_field_binary",
    "read_field_binary",
    "write_table_csv",
    "write_gnuplot_data",
    "write_json",
    "write_jsonl",
    "write_metadata",
    "geometry_report_table",
]

_FLOAT_FMT = "%.17g"
_ROWS = 4096  # rows formatted per write


def write_field_csv(grid, field, path, name="value"):
    """One row per node: index tuple, coordinates, value; row-major order."""
    field = grid.check_scalar(field, name)
    columns = _node_columns(grid)
    if name in columns:
        raise ValueError(f"field name {name!r} is taken by a node column")
    write_table_csv({**columns, name: field.ravel()}, path)


def read_field_csv(grid, path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    if data.shape[0] != grid.n_nodes:
        raise ValueError(f"{path} holds {data.shape[0]} rows, expected {grid.n_nodes}")
    return data[:, -1].reshape(grid.shape)


def write_field_binary(grid, field, path):
    """Row-major little-endian float64 dump of a scalar field."""
    field = grid.check_scalar(field)
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(field, dtype="<f8").tobytes())


def read_field_binary(grid, path):
    with open(path, "rb") as fh:
        raw = fh.read()
    values = np.frombuffer(raw, dtype="<f8")
    if values.size != grid.n_nodes:
        raise ValueError(f"{path} holds {values.size} values, expected {grid.n_nodes}")
    return values.reshape(grid.shape).copy()


def write_table_csv(columns, path):
    """Write named 1-D columns of equal length as CSV (``_write_rows``)."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        _write_rows(fh, columns, ",")


def write_gnuplot_data(columns, path):
    """Whitespace-separated columns (``_write_rows``) under a header naming them."""
    with open(path, "w") as fh:
        fh.write("# " + " ".join(columns) + "\n")
        _write_rows(fh, columns, " ")


def _write_rows(fh, columns, sep):
    """Write the rows of named 1-D columns of equal length, cells joined by
    ``sep``: integer columns as integers, every other column with ``%.17g``."""
    arrays = [np.asarray(column).ravel() for column in columns.values()]
    formats = ("%d" if np.issubdtype(a.dtype, np.integer) else _FLOAT_FMT for a in arrays)
    row = sep.join(formats) + "\n"
    # a chunk of rows at a time, each formatted by one % on Python scalars
    for start in range(0, len(arrays[0]) if arrays else 0, _ROWS):
        cells = zip(*(a[start:start + _ROWS].tolist() for a in arrays))
        fh.write("".join(row % cell for cell in cells))


def write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_jsonl(entries, path):
    with open(path, "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def write_metadata(path, **extra):
    """Timestamped run metadata, isolated so main outputs stay reproducible."""
    payload = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **extra}
    write_json(payload, path)


def geometry_report_table(report):
    """Columns for the per-node geometry CSV/gnuplot outputs."""
    columns = _node_columns(report.graph.grid)
    columns["u"] = report.graph.u.ravel()
    columns["margin"] = report.margin.ravel()
    columns["rho"] = report.rho.ravel()
    columns["cosh_theta"] = report.cosh_theta.ravel()
    columns["mean_curvature"] = report.mean_curvature.ravel()
    columns["laplacian_tau"] = report.laplacian_tau.ravel()
    columns["obstruction_norm"] = report.obstruction_norm.ravel()
    return columns


def _node_columns(grid):
    """The index columns i1.. and the coordinate columns x1.. of every node,
    row-major."""
    indices, coords = grid.node_indices(), grid.node_coordinates()
    columns = {f"i{k + 1}": indices[:, k] for k in range(grid.dim)}
    columns.update({f"x{k + 1}": coords[:, k] for k in range(grid.dim)})
    return columns
