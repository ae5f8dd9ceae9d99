import tracemalloc

import numpy as np
import pytest

import sboxkit as sk
from sboxkit import heatmap

import reference

# scoreboard lines recorded by the acceptance tests; replayed after capture
acceptance_log = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_log:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def traced_peak_mb():
    def peak(fn) -> float:
        """Peak of the memory traced while fn runs; tracemalloc sees numpy's buffers."""
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture(scope="session")
def csv_rows_match_savetxt():
    def check(path, values, directory) -> None:
        """The CSV at path holds one line per row of values, and its first rows,
        last rows and the rows across the first row-block boundary are the
        bytes `reference.savetxt_csv` writes for those rows alone."""
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == len(values)
        step = heatmap._CSV_BLOCK // values.shape[1]  # rows per block
        for rows in (slice(0, 2), slice(step - 1, step + 1), slice(-2, None)):
            reference.savetxt_csv(directory / "rows.csv", values[rows])
            assert b"".join(lines[rows]) == (directory / "rows.csv").read_bytes(), rows
    return check


@pytest.fixture(scope="session")
def aes():
    return sk.SBox(8, np.array(sk.AES_SBOX))


@pytest.fixture(scope="session")
def identity8():
    return sk.SBox(8, np.arange(256))


@pytest.fixture(scope="session")
def dillon():
    return sk.SBox(6, np.array(sk.DILLON_PERMUTATION))
