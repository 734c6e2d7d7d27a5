"""CSV and JSON ingestion and emission for trials and scenario configs."""
from __future__ import annotations

import csv
import json
from importlib import resources

from .simulate import SimScenario
from .trial import ObservedTrial, TrialValidationError

__all__ = [
    "parse_trial_csv",
    "emit_trial_csv",
    "load_scenario_json",
    "load_size_table",
    "size_table_skeleton_trial",
]

_COLUMNS = ("cluster_id", "period", "sequence", "outcome")


def parse_trial_csv(path) -> ObservedTrial:
    """Read a long-form trial file; every row is one individual outcome.

    Header must be cluster_id,period,sequence,outcome.  Errors carry the
    offending line number.
    """
    cids, pers, seqs, ys = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise TrialValidationError(f"{path}: empty file")
        missing = [c for c in _COLUMNS if c not in reader.fieldnames]
        if missing:
            raise TrialValidationError(
                f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            line = reader.line_num
            try:
                per = int(row["period"])
                seq = int(row["sequence"])
                y = float(row["outcome"])
            except (TypeError, ValueError) as exc:
                raise TrialValidationError(f"{path}:{line}: {exc}") from exc
            if per not in (0, 1):
                raise TrialValidationError(
                    f"{path}:{line}: period must be 0 or 1, got {per}")
            if seq not in (0, 1):
                raise TrialValidationError(
                    f"{path}:{line}: sequence must be 0 or 1, got {seq}")
            cids.append(row["cluster_id"])
            pers.append(per)
            seqs.append(seq)
            ys.append(y)
    if not cids:
        raise TrialValidationError(f"{path}: no data rows")
    try:
        return ObservedTrial(cids, pers, seqs, ys)
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


def size_table_skeleton_trial(fill: float = 0.0) -> ObservedTrial:
    """Trial skeleton with the bundled sizes and a constant synthetic outcome."""
    cells = [(cid, seq, k0, k1, fill, fill)
             for cid, seq, k0, k1 in load_size_table()]
    return ObservedTrial.from_cell_means(cells)
