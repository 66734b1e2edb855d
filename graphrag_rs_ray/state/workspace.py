"""Workspace manager: named output directories with metadata.

Port of ``persistence/workspace.rs:74-260``: create/list/delete named
workspaces; saving records metadata (created_at, entity/triple counts);
loading returns the graph tables as lazy Datasets.  Storage is the
Parquet graph layout from ``pipelines/kg.write_graph`` (adjacency shards
+ manifests).
"""

from __future__ import annotations

import json
import os
import shutil
import time

from .manifests import read_manifest

METADATA_NAME = "workspace.json"


class WorkspaceManager:
    def __init__(self, base_dir: str):
        self.base_dir = base_dir
        os.makedirs(base_dir, exist_ok=True)

    def _path(self, name: str) -> str:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid workspace name: {name!r}")
        return os.path.join(self.base_dir, name)

    def save(self, name: str, kg_result, num_shards: int = 16) -> dict:
        """Materialize a KGResult into the workspace (overwrites)."""
        from ..pipelines.kg import write_graph

        path = self._path(name)
        if os.path.exists(path):
            shutil.rmtree(path)
        os.makedirs(path)
        manifest = write_graph(kg_result, path, num_shards=num_shards)
        meta = {
            "name": name,
            "created_at": time.time(),
            "n_entities": manifest["n_entities"],
            "n_triples": manifest["n_triples"],
            "num_shards": num_shards,
        }
        with open(os.path.join(path, METADATA_NAME), "w") as f:
            json.dump(meta, f, indent=1)
        return meta

    def load(self, name: str):
        """Returns (entities_ds, triples_ds, metadata)."""
        import ray.data as rd

        path = self._path(name)
        meta = self.metadata(name)
        if meta is None:
            raise FileNotFoundError(f"workspace not found: {name}")
        entities = rd.read_parquet(os.path.join(path, "entities"))
        triples = rd.read_parquet(os.path.join(path, "triples"))
        return entities, triples, meta

    def metadata(self, name: str) -> dict | None:
        p = os.path.join(self._path(name), METADATA_NAME)
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return json.load(f)

    def list(self) -> list[dict]:
        out = []
        for name in sorted(os.listdir(self.base_dir)):
            meta = self.metadata(name)
            if meta is not None:
                out.append(meta)
        return out

    def delete(self, name: str) -> bool:
        path = self._path(name)
        if os.path.exists(path):
            shutil.rmtree(path)
            return True
        return False

    def manifest(self, name: str) -> dict | None:
        return read_manifest(self._path(name))
