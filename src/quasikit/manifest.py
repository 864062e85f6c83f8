"""Reproducible run manifests for CLI outputs.

Every output document embeds the manifest that produced it: the exact
command line, SHA-256 digests of all input files, the tool version, and the
sweep seed.  Identical manifests reproduce byte-identical outputs, which is
why the wall-clock duration lives in the log stream rather than in the
serialized manifest.
"""

from __future__ import annotations

from . import __version__


class RunManifest:
    """The command line and sweep seed of one run, and the digest of each
    input file it read.  A plain class: ``dataclasses`` imports ``inspect``,
    which a command that builds no manifest (``--version``, ``--help``, a
    usage error) would load for nothing."""

    def __init__(self, command: list[str], seed: int | None = None):
        self.command = command
        self.inputs: dict[str, str] = {}
        self.seed = seed

    def add_input(self, path: str, data: bytes) -> None:
        """Record the digest of ``data``, the bytes read from ``path``.
        ``hashlib`` is imported here, so a command that reads no input
        file never loads it."""
        import hashlib

        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()

    def to_json(self) -> dict:
        return {
            "command": list(self.command),
            "inputs": dict(sorted(self.inputs.items())),
            "version": __version__,
            "seed": self.seed,
        }
