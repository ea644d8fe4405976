"""The documented code tables must match the code registries they describe.

``docs/robustness.md`` lists the health codes and the fault-injection
variables, ``docs/distributed.md`` the campaign error codes, and the
docstring of :mod:`repro.resilience.health` the health codes again.  Each is
checked against its registry here, so a code added, renamed or removed in
one place and not the other fails the tier-1 suite.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Set

from repro.campaign.errors import ERROR_CODES
from repro.resilience import faults, health
from repro.resilience.health import HEALTH_CODES

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _table_rows(path: Path, first_cell: str) -> List[List[str]]:
    """Cells of the markdown table rows whose first cell matches ``first_cell``."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if re.fullmatch(first_cell, cells[0]):
            rows.append(cells)
    return rows


def _env_variables() -> Set[str]:
    """The values of the ``faults.ENV_*`` constants."""
    return {value for name, value in vars(faults).items() if name.startswith("ENV_")}


def test_health_table_matches_health_codes():
    rows = _table_rows(DOCS / "robustness.md", r"`H_[A-Z_]+`")
    documented = {cells[0].strip("`"): cells[1] for cells in rows}
    assert len(rows) == len(documented), "a health code is documented twice"
    assert documented == HEALTH_CODES


def test_fault_table_names_every_environment_variable():
    rows = _table_rows(DOCS / "robustness.md", r"`REPRO_FAULT_[A-Z_]+=[^`]*`")
    first_column = [cells[0].strip("`").split("=")[0] for cells in rows]
    mentioned = set(re.findall(r"REPRO_FAULT_[A-Z_]+", " ".join(map(" ".join, rows))))
    variables = _env_variables()
    assert len(first_column) == len(set(first_column))
    assert mentioned == variables
    assert set(first_column) == variables - {faults.ENV_HANG_SECONDS}
    [hang_row] = [cells for cells in rows if faults.ENV_HANG_AT_EVAL in cells[0]]
    assert faults.ENV_HANG_SECONDS in hang_row[1]


def test_error_table_matches_error_codes():
    rows = _table_rows(DOCS / "distributed.md", r"`E_[A-Z_]+`")
    documented = {
        cells[0].strip("`"): (cells[1], {"yes": True, "no": False}[cells[2]])
        for cells in rows
    }
    assert len(rows) == len(documented), "an error code is documented twice"
    assert documented == ERROR_CODES


def test_health_module_docstring_lists_every_code():
    listed = re.findall(r"^(H_[A-Z_]+)\s", health.__doc__, flags=re.MULTILINE)
    assert sorted(listed) == sorted(HEALTH_CODES)
