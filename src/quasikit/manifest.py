"""Reproducible run manifests for CLI outputs.

Every output document embeds the manifest that produced it: the exact
command line, SHA-256 digests of all input files, the tool version, and the
sweep seed.  Identical manifests reproduce byte-identical outputs, which is
why the wall-clock duration lives in the log stream rather than in the
serialized manifest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import __version__


@dataclass
class RunManifest:
    command: list[str]
    inputs: dict[str, str] = field(default_factory=dict)
    seed: int | None = None

    def add_input(self, path: str, data: bytes) -> None:
        """Record the digest of ``data``, the bytes read from ``path``."""
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()

    def to_json(self) -> dict:
        return {
            "command": list(self.command),
            "inputs": dict(sorted(self.inputs.items())),
            "version": __version__,
            "seed": self.seed,
        }
