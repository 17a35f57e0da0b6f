"""CSV export for time series and live trace streams."""

from repro.trace.csvout import (
    CsvTraceSink,
    write_multi_timeseries,
    write_timeseries,
)

__all__ = [
    "CsvTraceSink",
    "write_multi_timeseries",
    "write_timeseries",
]
