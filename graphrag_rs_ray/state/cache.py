"""LLM-response caching subsystem — port of
``graphrag-core/src/caching/`` (cache_key.rs, cache_config.rs, mod.rs,
stats.rs, persistent.rs, distributed.rs, client.rs, warming.rs).

Semantics pinned:

- Key generation (``cache_key.rs:55-380``): 4 strategies — Simple /
  WithParameters / Semantic (punctuation strip + quote/dash
  normalization) / ContentBased (semantic + stop-word removal with the
  keep-original-if-all-stopwords rule + contraction expansion,
  DEFAULT) — sha256 over components joined with '|', params serialized
  ``max_tokens:N;temp:X.XXX;top_p:X.XXX;stop:a,b``, 47-char+"..."
  display keys.
- ``CacheEntry`` (``mod.rs:107-150``): access_count starts at 1.
- ``CacheConfig`` (``cache_config.rs``): validation rules and the
  production / development / high_performance presets verbatim.
- Statistics (``stats.rs``): counter set, hit/miss rates, memory human
  formatting (1024 steps, ``{:.1} {unit}``), efficiency score =
  hit·0.4 + mem·0.3 + (1−err)·0.3 with the 1/(1+avg_bytes/1024) memory
  normalization; ``CacheHealth::evaluate`` thresholds (hit<0.5 warn /
  <0.2 crit, err>0.05/0.2, util>0.9/0.95, evict>0.3, the
  "performing well" and "operating optimally" recommendation rules).
- ``PersistentCache`` (``persistent.rs:84-380``): sha256-named files +
  metadata.json, zlib compression, TTL expiry on read, LRU/LFU/FIFO/TTL
  eviction sweeps; QUIRKS pinned: ``put`` over an existing key
  increments entry_count and adds the new size without subtracting the
  old (the reference never reconciles overwrites); TTL eviction frees
  only expired entries regardless of required space.
- ``L1Cache`` / ``DistributedCache`` (``distributed.rs``): expire-on-
  read, evict min-last-accessed when at capacity AND the key is new,
  L1→L2 read-through with L1 backfill.  The reference's L2 is Redis
  (feature-gated off by default); this port's L2 is a Ray actor KV —
  the repo's shared-mutable-index device — so the cluster-wide tier is
  actually exercised (documented swap).
- ``CachedLLMClient`` (``client.rs``): hit path re-inserts the accessed
  entry, miss path validates response size against max_entry_size
  (records an error and raises), entry size estimate = response bytes
  + metadata bytes + 100.
- ``CacheWarmer`` (``warming.rs``): the 50 predefined queries verbatim,
  synthetic base×topic variations capped at max_queries, frequency =
  predefined truncated to min(max_queries, 20), custom passthrough;
  error budget (continue_on_error / max_errors) and WarmingResults
  statistics.

Time is injected (``clock`` callables, monotonic seconds) so TTL and
LRU behavior is deterministic under test — same device as
``stages/rate_limit.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from dataclasses import dataclass, field


# ------------------------------------------------------------- keys --

_SEMANTIC_PUNCT = ".,!?;:"
_QUOTES = "“”\"'‘’"
_DASHES = "–—"
_KEY_STOP_WORDS = {"the", "a", "an", "and", "or", "but", "in", "on",
                   "at", "to", "for", "of", "with", "by"}


@dataclass
class CacheKey:
    key_hash: str
    display_key: str
    metadata: dict = field(default_factory=dict)


class CacheKeyGenerator:
    """``cache_key.rs:78-380``."""

    def __init__(self, strategy: str = "content_based",
                 normalize_whitespace: bool = True,
                 ignore_case: bool = False,
                 include_model_info: bool = True):
        assert strategy in ("simple", "with_parameters", "semantic",
                            "content_based")
        self.strategy = strategy
        self.normalize_whitespace = normalize_whitespace
        self.ignore_case = ignore_case
        self.include_model_info = include_model_info
        self.custom_normalizers: list = []

    def add_normalizer(self, fn):
        self.custom_normalizers.append(fn)
        return self

    def _normalize_ws(self, text: str) -> str:
        return " ".join(text.split()).strip()

    def _normalize(self, text: str) -> str:
        out = text
        if self.normalize_whitespace:
            out = self._normalize_ws(out)
        if self.ignore_case:
            out = out.lower()
        for fn in self.custom_normalizers:
            out = fn(out)
        return out

    def _semantic(self, text: str) -> str:
        out = "".join(c for c in text if c not in _SEMANTIC_PUNCT)
        out = "".join("'" if c in _QUOTES else c for c in out)
        out = "".join("-" if c in _DASHES else c for c in out)
        return self._normalize_ws(out)

    def _content(self, text: str) -> str:
        out = self._semantic(text)
        words = out.split()
        kept = [w for w in words if w.lower() not in _KEY_STOP_WORDS]
        if kept:
            out = " ".join(kept)
        out = out.replace("what's", "what is").replace("won't", "will not")
        out = out.replace("can't", "cannot").replace("don't", "do not")
        return out

    def _serialize_params(self, params: dict) -> str:
        parts = []
        if params.get("max_tokens") is not None:
            parts.append(f"max_tokens:{params['max_tokens']}")
        if params.get("temperature") is not None:
            parts.append(f"temp:{params['temperature']:.3f}")
        if params.get("top_p") is not None:
            parts.append(f"top_p:{params['top_p']:.3f}")
        if params.get("stop_sequences") is not None:
            parts.append("stop:" + ",".join(params["stop_sequences"]))
        return ";".join(parts)

    def generate_key(self, prompt: str, params: dict | None = None,
                     model_name: str | None = None) -> CacheKey:
        normalized = self._normalize(prompt)
        if self.strategy == "simple":
            components = [normalized]
        elif self.strategy == "with_parameters":
            components = [normalized]
            if params is not None:
                components.append(self._serialize_params(params))
        elif self.strategy == "semantic":
            components = [self._semantic(normalized)]
            if params is not None:
                components.append(self._serialize_params(params))
        else:
            components = [self._content(normalized)]
            if params is not None:
                components.append(self._serialize_params(params))
            if self.include_model_info and model_name is not None:
                components.append(model_name)
        key_hash = hashlib.sha256(
            "|".join(components).encode()).hexdigest()
        truncated = (prompt[:47] + "...") if len(prompt) > 50 else prompt
        display = [truncated]
        if params is not None and params.get("temperature") is not None:
            display.append(f"T:{params['temperature']:.1f}")
        if model_name is not None:
            display.append(f"M:{model_name}")
        key = CacheKey(key_hash, " | ".join(display))
        key.metadata["strategy"] = self.strategy
        key.metadata["prompt_length"] = str(len(prompt))
        if model_name is not None:
            key.metadata["model"] = model_name
        return key


# ----------------------------------------------------------- config --

@dataclass
class PersistenceConfig:
    enabled: bool = False
    directory: str | None = None
    save_interval_seconds: int = 300
    load_on_startup: bool = True


@dataclass
class CacheConfig:
    """``cache_config.rs:29-316``."""
    max_capacity: int = 10_000
    ttl_seconds: int = 3600
    eviction_policy: str = "lru"      # lru|lfu|fifo|ttl|adaptive
    enable_statistics: bool = True
    enable_warming: bool = False
    initial_capacity: int | None = None
    cleanup_interval_seconds: int = 300
    max_entry_size: int = 1024 * 1024
    enable_compression: bool = False
    compression_threshold: int = 1024 * 10
    persistence: PersistenceConfig = field(
        default_factory=PersistenceConfig)

    def validate(self):
        if self.max_capacity == 0:
            raise ValueError("max_capacity must be greater than 0")
        if self.ttl_seconds == 0:
            raise ValueError("ttl_seconds must be greater than 0")
        if self.cleanup_interval_seconds == 0:
            raise ValueError(
                "cleanup_interval_seconds must be greater than 0")
        if self.max_entry_size == 0:
            raise ValueError("max_entry_size must be greater than 0")
        if self.enable_compression and self.compression_threshold == 0:
            raise ValueError("compression_threshold must be greater "
                             "than 0 when compression is enabled")
        if self.persistence.enabled and self.persistence.directory is None:
            raise ValueError("persistence directory must be specified "
                             "when persistence is enabled")

    @staticmethod
    def production() -> "CacheConfig":
        return CacheConfig(
            max_capacity=100_000, ttl_seconds=7200,
            eviction_policy="adaptive", enable_statistics=True,
            enable_warming=True, initial_capacity=10_000,
            cleanup_interval_seconds=600,
            max_entry_size=5 * 1024 * 1024, enable_compression=True,
            compression_threshold=50 * 1024,
            persistence=PersistenceConfig(
                enabled=True, directory="./cache",
                save_interval_seconds=1800, load_on_startup=True))

    @staticmethod
    def development() -> "CacheConfig":
        return CacheConfig(
            max_capacity=1_000, ttl_seconds=1800, eviction_policy="lru",
            enable_statistics=True, enable_warming=False,
            initial_capacity=100, cleanup_interval_seconds=60,
            max_entry_size=1024 * 1024, enable_compression=False,
            compression_threshold=1024 * 10)

    @staticmethod
    def high_performance() -> "CacheConfig":
        return CacheConfig(
            max_capacity=50_000, ttl_seconds=14400,
            eviction_policy="lfu", enable_statistics=False,
            enable_warming=True, initial_capacity=25_000,
            cleanup_interval_seconds=1800,
            max_entry_size=10 * 1024 * 1024, enable_compression=True,
            compression_threshold=100 * 1024)


# ------------------------------------------------------- statistics --

def memory_usage_human(bytes_: int) -> str:
    """``stats.rs:139-151`` — 1024 steps, one decimal."""
    units = ["B", "KB", "MB", "GB"]
    size = float(bytes_)
    for i, unit in enumerate(units):
        if size < 1024.0 or i == len(units) - 1:
            return f"{size:.1f} {unit}"
        size /= 1024.0
    return f"{size:.1f} GB"


class CacheStatistics:
    """``stats.rs:9-224`` counters (time in injected seconds)."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self.reset()
        self.start_time = clock()

    def reset(self):
        self.total_requests = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.time_saved_s = 0.0
        self.insertions = 0
        self.evictions = 0
        self.updates = 0
        self.current_size = 0
        self.total_bytes = 0
        self.errors = 0

    def record_hit(self, time_saved: float):
        self.total_requests += 1
        self.cache_hits += 1
        self.time_saved_s += time_saved

    def record_miss(self):
        self.total_requests += 1
        self.cache_misses += 1

    def record_insertion(self, entry_size: int):
        self.insertions += 1
        self.current_size += 1
        self.total_bytes += entry_size

    def record_eviction(self, entry_size: int):
        self.evictions += 1
        self.current_size = max(0, self.current_size - 1)
        self.total_bytes = max(0, self.total_bytes - entry_size)

    def record_update(self, old_size: int, new_size: int):
        self.updates += 1
        self.total_bytes = max(0, self.total_bytes - old_size) + new_size

    def record_error(self):
        self.errors += 1

    def hit_rate(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self.cache_hits / self.total_requests

    def snapshot(self) -> dict:
        hits = self.cache_hits
        return {
            "total_requests": self.total_requests,
            "cache_hits": hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate(),
            "miss_rate": (self.cache_misses / self.total_requests
                          if self.total_requests else 0.0),
            "total_time_saved": self.time_saved_s,
            "avg_time_saved_per_hit": (self.time_saved_s / hits
                                       if hits else 0.0),
            "insertions": self.insertions,
            "evictions": self.evictions,
            "updates": self.updates,
            "current_size": self.current_size,
            "memory_usage_bytes": self.total_bytes,
            "memory_usage_human": memory_usage_human(self.total_bytes),
            "errors": self.errors,
            "uptime": self._clock() - self.start_time,
        }


def efficiency_score(metrics: dict) -> float:
    """``stats.rs:275-300``."""
    hit_score = metrics["hit_rate"]
    if metrics["current_size"] == 0:
        memory_score = 1.0
    else:
        avg = metrics["memory_usage_bytes"] / metrics["current_size"]
        memory_score = min(1.0 / (1.0 + avg / 1024.0), 1.0)
    if metrics["total_requests"] == 0:
        error_rate = 0.0
    else:
        error_rate = metrics["errors"] / metrics["total_requests"]
    error_score = max(1.0 - error_rate, 0.0)
    return hit_score * 0.4 + memory_score * 0.3 + error_score * 0.3


def cost_savings(metrics: dict, cost_per_call: float) -> float:
    return metrics["cache_hits"] * cost_per_call


def evaluate_health(metrics: dict, max_capacity: int) -> dict:
    """``stats.rs:355-458``."""
    alerts, recommendations = [], []
    status = "healthy"

    def bump(new):
        nonlocal status
        order = {"healthy": 0, "warning": 1, "critical": 2}
        if order[new] > order[status]:
            status = new

    if metrics["hit_rate"] < 0.5:
        level = "critical" if metrics["hit_rate"] < 0.2 else "warning"
        alerts.append({"level": level, "message": "Low cache hit rate",
                       "metric": "hit_rate", "threshold": 0.5,
                       "current_value": metrics["hit_rate"]})
        recommendations.append(
            "Consider adjusting cache key generation strategy or "
            "increasing cache size")
        bump(level)
    error_rate = (metrics["errors"] / metrics["total_requests"]
                  if metrics["total_requests"] else 0.0)
    if error_rate > 0.05:
        level = "critical" if error_rate > 0.2 else "warning"
        alerts.append({"level": level, "message": "High error rate",
                       "metric": "error_rate", "threshold": 0.05,
                       "current_value": error_rate})
        recommendations.append(
            "Investigate cache errors and consider reducing cache size "
            "or entry limits")
        bump(level)
    utilization = (metrics["current_size"] / max_capacity
                   if max_capacity else 0.0)
    if utilization > 0.9:
        level = "critical" if utilization > 0.95 else "warning"
        alerts.append({"level": level,
                       "message": "High cache utilization",
                       "metric": "utilization", "threshold": 0.9,
                       "current_value": utilization})
        recommendations.append(
            "Consider increasing cache capacity or reducing TTL")
        bump(level)
    if metrics["total_requests"] > 0:
        eviction_rate = metrics["evictions"] / metrics["total_requests"]
        if eviction_rate > 0.3:
            alerts.append({"level": "warning",
                           "message": "High eviction rate",
                           "metric": "eviction_rate", "threshold": 0.3,
                           "current_value": eviction_rate})
            recommendations.append(
                "Cache is evicting entries frequently; consider "
                "increasing capacity")
            bump("warning")
    if metrics["hit_rate"] > 0.8 and error_rate < 0.01:
        recommendations.append(
            "Cache is performing well! Consider increasing capacity "
            "for even better performance")
    if not alerts and not recommendations:
        recommendations.append("Cache is operating optimally")
    return {"status": status, "metrics": metrics, "alerts": alerts,
            "recommendations": recommendations}


# --------------------------------------------------- persistent cache --

class PersistentCache:
    """``persistent.rs:84-380`` — sha256-named files + metadata.json.
    Overwrite quirks pinned (see module docstring)."""

    def __init__(self, cache_dir: str, max_size_bytes: int = 10**8,
                 default_ttl: float = 3600.0,
                 eviction_policy: str = "lru",
                 enable_compression: bool = False,
                 clock=time.monotonic):
        self.cache_dir = cache_dir
        self.max_size_bytes = max_size_bytes
        self.default_ttl = default_ttl
        self.eviction_policy = eviction_policy
        self.enable_compression = enable_compression
        self._clock = clock
        os.makedirs(cache_dir, exist_ok=True)
        meta_path = os.path.join(cache_dir, "metadata.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                self.metadata = json.load(f)
        else:
            self.metadata = {"total_size": 0, "entry_count": 0,
                             "hit_count": 0, "miss_count": 0,
                             "entries": {}}

    def _hash_key(self, key: str) -> str:
        return hashlib.sha256(key.encode()).hexdigest()

    def _path(self, h: str) -> str:
        return os.path.join(self.cache_dir, f"{h}.cache")

    def _is_expired(self, entry: dict) -> bool:
        return self._clock() - entry["created_at"] > entry["ttl"]

    def _save_metadata(self):
        with open(os.path.join(self.cache_dir, "metadata.json"),
                  "w") as f:
            json.dump(self.metadata, f)

    def get(self, key: str):
        h = self._hash_key(key)
        path = self._path(h)
        if not os.path.exists(path):
            self.metadata["miss_count"] += 1
            return None
        entry = self.metadata["entries"].get(h)
        if entry is None:
            self.metadata["miss_count"] += 1
            return None
        if self._is_expired(entry):
            self._remove_entry(h)
            self.metadata["miss_count"] += 1
            return None
        entry["last_accessed"] = self._clock()
        entry["access_count"] += 1
        self.metadata["hit_count"] += 1
        with open(path, "rb") as f:
            data = f.read()
        if self.enable_compression:
            data = zlib.decompress(data)
        return json.loads(data)

    def put(self, key: str, value, ttl: float | None = None):
        h = self._hash_key(key)
        data = json.dumps(value).encode()
        if self.enable_compression:
            data = zlib.compress(data)
        if self.metadata["total_size"] + len(data) > self.max_size_bytes:
            self._evict_entries(len(data))
        with open(self._path(h), "wb") as f:
            f.write(data)
        now = self._clock()
        self.metadata["entries"][h] = {
            "key": key, "size": len(data), "created_at": now,
            "last_accessed": now, "access_count": 0,
            "ttl": ttl if ttl is not None else self.default_ttl}
        # reference quirk: overwrites still add size + bump entry_count
        self.metadata["total_size"] += len(data)
        self.metadata["entry_count"] += 1
        self._save_metadata()

    def remove(self, key: str) -> bool:
        return self._remove_entry(self._hash_key(key))

    def clear(self):
        for h in list(self.metadata["entries"]):
            self._remove_entry(h)

    def _remove_entry(self, h: str) -> bool:
        entry = self.metadata["entries"].pop(h, None)
        if entry is None:
            return False
        path = self._path(h)
        if os.path.exists(path):
            os.remove(path)
        self.metadata["total_size"] -= entry["size"]
        self.metadata["entry_count"] -= 1
        self._save_metadata()
        return True

    def _evict_entries(self, required_space: int):
        to_evict, freed = [], 0
        entries = self.metadata["entries"]
        if self.eviction_policy in ("lru", "lfu", "fifo"):
            sort_key = {"lru": "last_accessed", "lfu": "access_count",
                        "fifo": "created_at"}[self.eviction_policy]
            for h, e in sorted(entries.items(),
                               key=lambda kv: kv[1][sort_key]):
                if freed >= required_space:
                    break
                to_evict.append(h)
                freed += e["size"]
        else:                   # ttl: expired entries only
            for h, e in entries.items():
                if self._is_expired(e):
                    to_evict.append(h)
                    freed += e["size"]
        for h in to_evict:
            self._remove_entry(h)

    def cleanup(self) -> int:
        removed = 0
        for h in [h for h, e in self.metadata["entries"].items()
                  if self._is_expired(e)]:
            if self._remove_entry(h):
                removed += 1
        self._save_metadata()
        return removed

    def stats(self) -> dict:
        m = self.metadata
        total = m["hit_count"] + m["miss_count"]
        return {"total_size": m["total_size"],
                "entry_count": m["entry_count"],
                "hit_count": m["hit_count"],
                "miss_count": m["miss_count"],
                "hit_rate": (m["hit_count"] / total) if total else 0.0}


class EmbeddingCache:
    """``persistent.rs:383-404`` — 24h TTL, compression on."""

    def __init__(self, cache_dir: str, clock=time.monotonic):
        self.cache = PersistentCache(
            cache_dir, max_size_bytes=500 * 1024 * 1024,
            default_ttl=24 * 3600.0, eviction_policy="lru",
            enable_compression=True, clock=clock)

    def get_embedding(self, text: str):
        return self.cache.get(f"emb:{text}")

    def put_embedding(self, text: str, embedding: list[float]):
        self.cache.put(f"emb:{text}", embedding)


class QueryCache:
    """``persistent.rs:407-427``."""

    def __init__(self, cache_dir: str, clock=time.monotonic):
        self.cache = PersistentCache(
            cache_dir, max_size_bytes=100 * 1024 * 1024,
            default_ttl=3600.0, eviction_policy="lru",
            enable_compression=False, clock=clock)

    def get_result(self, query: str):
        return self.cache.get(f"q:{query}")

    def put_result(self, query: str, result: str):
        self.cache.put(f"q:{query}", result)


# ------------------------------------------------ distributed cache --

class L1Cache:
    """``distributed.rs:66-146`` — expire-on-read, evict
    min-last-accessed when at capacity and the key is new."""

    def __init__(self, max_size: int, default_ttl: float | None = None,
                 clock=time.monotonic):
        self.max_size = max_size
        self.default_ttl = default_ttl
        self._clock = clock
        self._cache: dict = {}

    def get(self, key):
        entry = self._cache.get(key)
        if entry is None:
            return None
        if (self.default_ttl is not None
                and self._clock() - entry["created_at"] > entry["ttl"]):
            del self._cache[key]
            return None
        entry["access_count"] += 1
        entry["last_accessed"] = self._clock()
        return entry["value"]

    def put(self, key, value):
        if len(self._cache) >= self.max_size and key not in self._cache:
            oldest = min(self._cache,
                         key=lambda k: self._cache[k]["last_accessed"])
            del self._cache[oldest]
        now = self._clock()
        self._cache[key] = {"value": value, "created_at": now,
                            "last_accessed": now, "access_count": 0,
                            "ttl": self.default_ttl}

    def invalidate(self, key):
        self._cache.pop(key, None)

    def clear(self):
        self._cache.clear()

    def size(self) -> int:
        return len(self._cache)

    def stats(self) -> dict:
        return {"size": len(self._cache), "capacity": self.max_size,
                "total_accesses": sum(e["access_count"]
                                      for e in self._cache.values())}


class _L2KV:
    """In-process L2 key-value tier (what the Redis tier stores)."""

    def __init__(self):
        self._d: dict[str, bytes] = {}

    def get(self, key: str):
        return self._d.get(key)

    def put(self, key: str, value: bytes):
        self._d[key] = value

    def invalidate(self, key: str):
        self._d.pop(key, None)

    def clear(self):
        self._d.clear()


def make_l2_actor():
    """Cluster-wide L2 tier as a Ray actor (the repo's shared-mutable
    device; replaces the reference's feature-gated Redis tier)."""
    import ray

    @ray.remote(num_cpus=0)
    class L2Actor:
        def __init__(self):
            self._kv = _L2KV()

        def get(self, key):
            return self._kv.get(key)

        def put(self, key, value):
            self._kv.put(key, value)

        def invalidate(self, key):
            self._kv.invalidate(key)

        def clear(self):
            self._kv.clear()

    return L2Actor.remote()


class _ActorL2:
    def __init__(self, actor):
        self._actor = actor

    def get(self, key):
        import ray
        return ray.get(self._actor.get.remote(key))

    def put(self, key, value):
        import ray
        ray.get(self._actor.put.remote(key, value))

    def invalidate(self, key):
        import ray
        ray.get(self._actor.invalidate.remote(key))

    def clear(self):
        import ray
        ray.get(self._actor.clear.remote())


class DistributedCache:
    """``distributed.rs:244-371`` — L1 read-through to L2 with L1
    backfill; values JSON-serialized on the L2 wire."""

    def __init__(self, l1_size: int, l1_ttl: float | None = None,
                 l2=None, clock=time.monotonic):
        self.l1 = L1Cache(l1_size, l1_ttl, clock=clock)
        self.l2 = l2            # _L2KV, _ActorL2, or None
        self._stats = {"l1_hits": 0, "l1_misses": 0, "l2_hits": 0,
                       "l2_misses": 0}

    def get(self, key):
        value = self.l1.get(key)
        if value is not None:
            self._stats["l1_hits"] += 1
            return value
        self._stats["l1_misses"] += 1
        if self.l2 is not None:
            raw = self.l2.get(str(key))
            if raw is not None:
                value = json.loads(raw)
                self._stats["l2_hits"] += 1
                self.l1.put(key, value)
                return value
            self._stats["l2_misses"] += 1
        return None

    def put(self, key, value):
        self.l1.put(key, value)
        if self.l2 is not None:
            self.l2.put(str(key), json.dumps(value).encode())

    def invalidate(self, key):
        self.l1.invalidate(key)
        if self.l2 is not None:
            self.l2.invalidate(str(key))

    def clear(self):
        self.l1.clear()
        if self.l2 is not None:
            self.l2.clear()

    def stats(self) -> dict:
        s = dict(self._stats)
        l1 = self.l1.stats()
        s["l1_size"] = l1["size"]
        s["l1_capacity"] = l1["capacity"]
        total = s["l1_hits"] + s["l2_hits"]
        reqs = s["l1_hits"] + s["l1_misses"]
        s["hit_rate"] = (total / reqs) if reqs else 0.0
        s["l1_hit_rate"] = (s["l1_hits"] / reqs) if reqs else 0.0
        return s


# -------------------------------------------------------- LLM client --

class _TTLCache:
    """moka-shaped map: time_to_live + time_to_idle expiry, capacity
    eviction by least-recently-used (``client.rs:62-84``)."""

    def __init__(self, max_capacity: int, ttl: float, tti: float,
                 clock=time.monotonic):
        self.max_capacity = max_capacity
        self.ttl = ttl
        self.tti = tti
        self._clock = clock
        self._d: dict = {}

    def _alive(self, rec) -> bool:
        now = self._clock()
        return (now - rec["inserted"] <= self.ttl
                and now - rec["touched"] <= self.tti)

    def get(self, key):
        rec = self._d.get(key)
        if rec is None:
            return None
        if not self._alive(rec):
            del self._d[key]
            return None
        rec["touched"] = self._clock()
        return rec["value"]

    def insert(self, key, value):
        if key not in self._d and len(self._d) >= self.max_capacity:
            oldest = min(self._d, key=lambda k: self._d[k]["touched"])
            del self._d[oldest]
        now = self._clock()
        prev = self._d.get(key)
        self._d[key] = {"value": value,
                        "inserted": prev["inserted"] if prev else now,
                        "touched": now}
        if prev is None:
            self._d[key]["inserted"] = now

    def invalidate(self, key):
        self._d.pop(key, None)

    def clear(self):
        self._d.clear()

    def __len__(self):
        return len(self._d)

    def items(self):
        return [(k, r["value"]) for k, r in self._d.items()]


class CachedLLMClient:
    """``client.rs:16-320`` over any object with a
    ``generate_response(prompt) -> str`` method (duck-typed)."""

    def __init__(self, inner, config: CacheConfig | None = None,
                 warming_config: "WarmingConfig | None" = None,
                 model_name: str = "MockLLM", clock=time.monotonic):
        self.config = config if config is not None else CacheConfig()
        self.config.validate()
        self.inner = inner
        self.model_name = model_name
        self._clock = clock
        self.cache = _TTLCache(self.config.max_capacity,
                               float(self.config.ttl_seconds),
                               float(self.config.cleanup_interval_seconds),
                               clock=clock)
        self.key_generator = CacheKeyGenerator()
        self.stats = CacheStatistics(clock=clock)
        self.warming_config = warming_config

    def _generate_cache_key(self, prompt: str,
                            params: dict | None = None) -> CacheKey:
        return self.key_generator.generate_key(prompt, params,
                                               self.model_name)

    @staticmethod
    def _estimate_entry_size(entry: dict) -> int:
        return (len(entry["response"])
                + sum(len(k) + len(v)
                      for k, v in entry["metadata"].items())
                + 100)

    def complete(self, prompt: str, params: dict | None = None) -> str:
        key = self._generate_cache_key(prompt, params)
        start = self._clock()
        entry = self.cache.get(key.key_hash)
        if entry is not None:
            entry["access_count"] += 1
            entry["last_accessed"] = self._clock()
            self.cache.insert(key.key_hash, entry)
            self.stats.record_hit(self._clock() - start)
            return entry["response"]
        self.stats.record_miss()
        response = self.inner.generate_response(prompt)
        if len(response) > self.config.max_entry_size:
            self.stats.record_error()
            raise ValueError(
                f"Response size ({len(response)} bytes) exceeds maximum "
                f"cache entry size ({self.config.max_entry_size} bytes)")
        entry = {"response": response, "created_at": self._clock(),
                 "access_count": 1, "last_accessed": self._clock(),
                 "metadata": {}}
        self.cache.insert(key.key_hash, entry)
        self.stats.record_insertion(self._estimate_entry_size(entry))
        return response

    def is_cached(self, prompt: str, params: dict | None = None) -> bool:
        key = self._generate_cache_key(prompt, params)
        return self.cache.get(key.key_hash) is not None

    def cache_statistics(self) -> dict:
        return self.stats.snapshot()

    def cache_health(self) -> dict:
        return evaluate_health(self.stats.snapshot(),
                               self.config.max_capacity)

    def clear_cache(self):
        self.cache.clear()

    def invalidate(self, prompt: str, params: dict | None = None):
        key = self._generate_cache_key(prompt, params)
        self.cache.invalidate(key.key_hash)

    def cache_utilization(self) -> float:
        if self.config.max_capacity == 0:
            return 0.0
        return len(self.cache) / self.config.max_capacity

    def export_cache(self) -> list:
        return self.cache.items()

    def warm_cache(self) -> "dict":
        if self.warming_config is None:
            raise ValueError("no warming configuration")
        return CacheWarmer(self.warming_config).warm_cache(self)


# ------------------------------------------------------------ warming --

_PREDEFINED_WARMING_QUERIES = [
    "What is artificial intelligence?", "Explain machine learning",
    "What are neural networks?", "Define deep learning",
    "What is natural language processing?", "Explain computer vision",
    "What is reinforcement learning?", "Define data science",
    "What is big data?", "Explain cloud computing",
    "What is blockchain?", "Define cybersecurity",
    "What is the Internet of Things?", "Explain quantum computing",
    "What is edge computing?", "Define DevOps",
    "What is microservices architecture?", "Explain containerization",
    "What is Kubernetes?", "Define API", "What is REST?",
    "Explain GraphQL", "What is a database?", "Define SQL",
    "What is NoSQL?", "Explain version control", "What is Git?",
    "Define continuous integration",
    "What is test-driven development?", "Explain agile methodology",
    "What is software architecture?", "Define design patterns",
    "What is functional programming?",
    "Explain object-oriented programming", "What is a compiler?",
    "Define algorithm", "What is data structure?",
    "Explain time complexity", "What is space complexity?",
    "Define recursion", "What is sorting?",
    "Explain searching algorithms", "What is a hash table?",
    "Define binary tree", "What is a graph?",
    "Explain dynamic programming", "What is greedy algorithm?",
    "Define divide and conquer", "What is backtracking?",
    "Explain memoization",
]

_SYNTH_BASES = ["What is", "Explain", "Define", "How does", "Why is",
                "When should", "Where is", "Who invented"]
_SYNTH_TOPICS = ["artificial intelligence", "machine learning",
                 "deep learning", "neural networks", "blockchain",
                 "cloud computing", "quantum computing", "data science",
                 "software engineering", "cybersecurity"]


@dataclass
class WarmingConfig:
    """``warming.rs:24-64``."""
    strategy: str = "predefined"    # predefined|log_based|synthetic|
    #                                 frequency|custom
    max_queries: int = 50
    delay_between_requests: float = 0.1
    background_warming: bool = True
    custom_queries: list = field(default_factory=list)
    continue_on_error: bool = True
    max_errors: int = 5

    def validate(self):
        if self.max_queries == 0:
            raise ValueError("max_queries must be greater than 0")
        if self.strategy == "custom" and not self.custom_queries:
            raise ValueError(
                "custom_queries required for Custom strategy")


class CacheWarmer:
    """``warming.rs:176-450``."""

    def __init__(self, config: WarmingConfig, sleep=lambda s: None):
        config.validate()
        self.config = config
        self._sleep = sleep     # injected; default no-op for tests

    def generate_warming_queries(self) -> list[str]:
        s = self.config.strategy
        if s in ("predefined", "log_based"):
            return list(_PREDEFINED_WARMING_QUERIES)
        if s == "synthetic":
            out = []
            for base in _SYNTH_BASES:
                for topic in _SYNTH_TOPICS:
                    out.append(f"{base} {topic}?")
                    if len(out) >= self.config.max_queries:
                        break
                if len(out) >= self.config.max_queries:
                    break
            return out
        if s == "frequency":
            return _PREDEFINED_WARMING_QUERIES[
                :min(self.config.max_queries, 20)]
        return list(self.config.custom_queries)

    def warm_cache(self, client: CachedLLMClient) -> dict:
        queries = self.generate_warming_queries()
        results = {"successful_queries": 0, "failed_queries": 0,
                   "cache_hits": 0, "cache_misses": 0,
                   "total_time": 0.0, "cache_hit_rate": 0.0,
                   "avg_time_per_query": 0.0}
        error_count = 0
        for i, query in enumerate(queries):
            if i >= self.config.max_queries:
                break
            was_cached = client.is_cached(query)
            try:
                client.complete(query)
                results["successful_queries"] += 1
                if was_cached:
                    results["cache_hits"] += 1
                else:
                    results["cache_misses"] += 1
            except Exception:
                results["failed_queries"] += 1
                error_count += 1
                if (not self.config.continue_on_error
                        or error_count >= self.config.max_errors):
                    raise RuntimeError(
                        f"Too many errors during warming: {error_count}")
            if (i < len(queries) - 1
                    and self.config.delay_between_requests > 0):
                self._sleep(self.config.delay_between_requests)
        total = results["successful_queries"]
        if total > 0:
            results["cache_hit_rate"] = results["cache_hits"] / total
            results["avg_time_per_query"] = results["total_time"] / total
        return results


__all__ = ["CacheKey", "CacheKeyGenerator", "PersistenceConfig",
           "CacheConfig", "CacheStatistics", "memory_usage_human",
           "efficiency_score", "cost_savings", "evaluate_health",
           "PersistentCache", "EmbeddingCache", "QueryCache",
           "L1Cache", "_L2KV", "make_l2_actor", "_ActorL2",
           "DistributedCache", "CachedLLMClient", "WarmingConfig",
           "CacheWarmer", "_PREDEFINED_WARMING_QUERIES"]
