"""Sweep record schema shared by the simulator, sweep harness and MNIST runs,
and the one CSV convention every command writes and reads."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

from .errors import SchemaMismatch


@dataclass(frozen=True)
class SweepRecord:
    """One (grid point, trial) row joining empirical and theoretical values.

    Error rows carry NaN in every empirical column; aggregation skips them.
    """

    grid_index: int
    trial_index: int
    c_target: float
    c_effective: float
    lam: float
    theta: float
    v_norm: float
    p: int
    n: int
    seed: int
    mu_emp: float
    sigma2_emp: float
    eta_emp_mc: float
    eta_emp_plugin: float
    mu_theory: float
    sigma2_theory: float
    eta_theory: float
    C_theory: float
    centering_mode: str
    wall_time_ms: float

    @property
    def is_error(self) -> bool:
        return math.isnan(self.mu_emp)

    def to_row(self) -> dict:
        """The persisted columns, keyed and ordered as FIELD_NAMES."""
        return {col: getattr(self, f.name) for col, f in _COLUMNS.items()}

    @classmethod
    def from_row(cls, values) -> "SweepRecord":
        """A record from persisted column strings in FIELD_NAMES order."""
        try:
            kwargs = {f.name: _PARSERS[f.type](v) for f, v in zip(_COLUMNS.values(), values)}
        except ValueError as exc:
            raise SchemaMismatch(f"unparsable sweep-record value: {exc}") from exc
        return cls(**kwargs, wall_time_ms=0.0)  # wall time is not persisted


# Persisted column -> field.  "lam" is serialized as "lambda".  wall_time_ms
# is an in-memory diagnostic only: persisted files must be byte-reproducible
# from the seeds, and wall-clock time is not.
_COLUMNS = {
    ("lambda" if f.name == "lam" else f.name): f
    for f in fields(SweepRecord)
    if f.name != "wall_time_ms"
}
FIELD_NAMES = list(_COLUMNS)

# field annotations are strings under `from __future__ import annotations`
_PARSERS = {"int": int, "float": float, "str": str}

_EMPIRICAL_FIELDS = ("mu_emp", "sigma2_emp", "eta_emp_mc", "eta_emp_plugin")


# --- CSV persistence: UTF-8, LF line ends, a header row, repr floats ---

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    """One CSV file whose columns are `header`, read from each row dict."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(row[name]) for name in header] for row in rows)


def read_csv(path, header) -> list[list[str]]:
    """The value rows of a CSV file written with exactly these columns, one value each."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != list(header):
            raise SchemaMismatch(f"unexpected header in {path}: {found}")
        rows = list(reader)
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise SchemaMismatch(f"line {line} of {path} has {len(row)} values, not {len(header)}")
    return rows
