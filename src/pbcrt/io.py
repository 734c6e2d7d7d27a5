"""CSV and JSON ingestion and emission for trials and scenario configs."""
from __future__ import annotations

import csv
import json
from importlib import resources

import numpy as np

from .simulate import SimScenario
from .trial import ObservedTrial, TrialValidationError

__all__ = [
    "parse_trial_csv",
    "emit_trial_csv",
    "load_scenario_json",
    "load_size_table",
]

_COLUMNS = ("cluster_id", "period", "sequence", "outcome")


def parse_trial_csv(path) -> ObservedTrial:
    """Read a long-form trial file; every row is one individual outcome.

    The header must name the columns cluster_id, period, sequence and
    outcome; other columns are ignored, and so are blank lines.  Each row
    is converted and checked as it is read, so that an error of one row
    carries its line number; fields missing from a short row are None, as
    `csv.DictReader` reads them.
    """
    columns = cids, pers, seqs, ys = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TrialValidationError(f"{path}: empty file")
        missing = [c for c in _COLUMNS if c not in header]
        if missing:
            raise TrialValidationError(
                f"{path}: missing column(s) {', '.join(missing)}")
        column = {name: i for i, name in enumerate(header)}
        cid, per, seq, out = (column[c] for c in _COLUMNS)
        for row in reader:
            if len(row) < len(header):
                if not row:
                    continue
                row += [None] * (len(header) - len(row))
            try:
                p, s, y = int(row[per]), int(row[seq]), float(row[out])
            except (TypeError, ValueError) as exc:
                raise TrialValidationError(f"{path}:{reader.line_num}: {exc}") from exc
            if p not in (0, 1) or s not in (0, 1) or row[cid] is None:
                raise TrialValidationError(f"{path}:{reader.line_num}: " + (
                    f"period must be 0 or 1, got {p}" if p not in (0, 1) else
                    f"sequence must be 0 or 1, got {s}" if s not in (0, 1) else
                    "no cluster_id"))
            cids.append(row[cid])
            pers.append(p)
            seqs.append(s)
            ys.append(y)
    if not ys:
        raise TrialValidationError(f"{path}: no data rows")
    try:
        return ObservedTrial(*map(np.array, columns))
    except TrialValidationError as exc:
        raise TrialValidationError(f"{path}: {exc}") from exc


def emit_trial_csv(trial: ObservedTrial, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_COLUMNS)
        for c, p, s, y in zip(trial.cluster_ids, trial.periods,
                              trial.sequences, trial.outcomes):
            w.writerow([c, int(p), int(s), repr(float(y))])


def load_scenario_json(path) -> SimScenario:
    """Build a SimScenario from a JSON config mirroring its fields
    (`SimScenario.from_dict`)."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return SimScenario.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise TrialValidationError(f"{path}: bad scenario config: {exc}") from exc


def load_size_table() -> list[tuple[str, int, int, int]]:
    """The bundled observed cluster-period size table.

    Returns (cluster_id, sequence, k0, k1) per cluster from the adolescent
    health trial whose cell sizes varied strongly between periods.
    """
    ref = resources.files("pbcrt") / "fixtures" / "jiah_cluster_period_sizes.csv"
    rows = []
    with ref.open(newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append((row["cluster_id"], int(row["sequence"]),
                         int(row["period0_size"]), int(row["period1_size"])))
    return rows
