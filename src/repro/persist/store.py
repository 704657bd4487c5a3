"""The study store: datasets + manifest on disk."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.pipeline import AuditReport
from repro.runtime.atomicio import atomic_write_text
from repro.tabular import Table, read_csv, write_csv

__all__ = ["StudyManifest", "StudyStore"]

MANIFEST_NAME = "manifest.json"

# Dataset name → how to pull its table from a report.
_DATASETS = {
    "audit": lambda report: report.audit.table,
    "query_log": lambda report: report.collection.log.to_table(),
    "q3_query_log": lambda report: report.q3_collection.log.to_table(),
    "q3_blocks": lambda report: report.monopoly.to_table(),
    "caf_map": lambda report: report.world.caf_map.to_table(),
    "table1": lambda report: report.compliance.table1(),
}


@dataclass(frozen=True)
class StudyManifest:
    """Provenance and integrity record for a persisted study."""

    seed: int
    address_scale: float
    states: tuple[str, ...]
    headline: dict[str, float]
    checksums: dict[str, str]

    def to_json(self) -> str:
        """Serialize (stable key order)."""
        return json.dumps({
            "seed": self.seed,
            "address_scale": self.address_scale,
            "states": list(self.states),
            "headline": self.headline,
            "checksums": self.checksums,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StudyManifest":
        """Deserialize."""
        data = json.loads(text)
        return cls(
            seed=int(data["seed"]),
            address_scale=float(data["address_scale"]),
            states=tuple(data["states"]),
            headline={k: float(v) for k, v in data["headline"].items()},
            checksums=dict(data["checksums"]),
        )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class StudyStore:
    """Reads and writes one study directory."""

    def __init__(self, directory: str | Path):
        self._directory = Path(directory)

    @property
    def directory(self) -> Path:
        """The store's root directory."""
        return self._directory

    def dataset_path(self, name: str) -> Path:
        """Path of one dataset CSV."""
        if name not in _DATASETS:
            raise KeyError(
                f"unknown dataset {name!r}; datasets: {sorted(_DATASETS)}")
        return self._directory / f"{name}.csv"

    # ------------------------------------------------------------------
    def save(self, report: AuditReport) -> StudyManifest:
        """Write every dataset and the manifest; returns the manifest."""
        self._directory.mkdir(parents=True, exist_ok=True)
        checksums = {}
        for name, extract in _DATASETS.items():
            path = self.dataset_path(name)
            write_csv(extract(report), path)
            checksums[name] = _sha256(path)
        config = report.world.config
        manifest = StudyManifest(
            seed=config.seed,
            address_scale=config.address_scale,
            states=tuple(config.states),
            headline=report.headline(),
            checksums=checksums,
        )
        atomic_write_text(self._directory / MANIFEST_NAME,
                          manifest.to_json())
        return manifest

    def load_manifest(self) -> StudyManifest:
        """Read the manifest."""
        path = self._directory / MANIFEST_NAME
        if not path.exists():
            raise FileNotFoundError(f"no manifest at {path}")
        return StudyManifest.from_json(path.read_text(encoding="utf-8"))

    def verify(self) -> list[str]:
        """Return dataset names whose checksum no longer matches
        (empty list means the store is intact)."""
        manifest = self.load_manifest()
        corrupted = []
        for name, expected in manifest.checksums.items():
            path = self.dataset_path(name)
            if not path.exists() or _sha256(path) != expected:
                corrupted.append(name)
        return sorted(corrupted)

    def load(self, name: str) -> Table:
        """Load one dataset back as a table."""
        path = self.dataset_path(name)
        if not path.exists():
            raise FileNotFoundError(f"dataset {name!r} not saved at {path}")
        return read_csv(path)

    def dataset_names(self) -> list[str]:
        """All dataset names the store format defines."""
        return sorted(_DATASETS)
