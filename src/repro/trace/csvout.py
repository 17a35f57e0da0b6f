"""CSV export for time series and live trace streams."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterable, TextIO, Union

from repro.metrics.timeseries import TimeSeries
from repro.obs.records import TraceRecord


def write_timeseries(out: TextIO, series: TimeSeries,
                     value_label: str = "value") -> None:
    """Write one time series as ``time,<value_label>`` rows."""
    writer = csv.writer(out)
    writer.writerow(["time", value_label])
    for t, v in series:
        writer.writerow([f"{t:.6f}", repr(v)])


def write_multi_timeseries(out: TextIO, series_by_name: Dict[str, TimeSeries],
                           interval: float) -> None:
    """Write several series step-resampled onto a common time grid."""
    if not series_by_name:
        raise ValueError("need at least one series")
    if interval <= 0:
        raise ValueError("interval must be positive")
    t_start = min(s.times[0] for s in series_by_name.values() if not s.empty)
    t_end = max(s.times[-1] for s in series_by_name.values() if not s.empty)
    names = sorted(series_by_name)
    writer = csv.writer(out)
    writer.writerow(["time"] + names)
    t = t_start
    while t <= t_end:
        row = [f"{t:.6f}"]
        for name in names:
            value = series_by_name[name].value_at(t)
            row.append("" if value is None else repr(value))
        writer.writerow(row)
        t += interval


class CsvTraceSink:
    """A :class:`repro.obs.TraceSink` that writes records as CSV rows.

    Wire it into ``Observability`` and every emitted :class:`TraceRecord`
    becomes a ``time,flow,kind,<extra fields>`` row.  Extra fields not
    present on a record are written as empty cells.
    The provenance columns ``eid`` and ``peid`` may be requested in
    ``field_names``; they resolve from the record's provenance slots,
    not its fields mapping.
    """

    def __init__(self, out: Union[str, Path, TextIO],
                 field_names: Iterable[str] = ()) -> None:
        self.field_names = list(field_names)
        self._owns_stream = isinstance(out, (str, Path))
        self._stream: TextIO = (open(out, "w", newline="")
                                if self._owns_stream else out)
        self._writer = csv.writer(self._stream)
        self._writer.writerow(["time", "flow", "kind"] + self.field_names)
        self.rows = 0

    def emit(self, record: TraceRecord) -> None:
        row = [f"{record.time:.9f}", record.flow, record.kind]
        for name in self.field_names:
            if name == "eid":
                row.append(record.eid)
            elif name == "peid":
                row.append(record.parent_eid)
            else:
                row.append(record.fields.get(name, ""))
        self._writer.writerow(row)
        self.rows += 1

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()
        else:
            self._stream.flush()
