"""Host and process probes: CPU calibration, peak RSS from ``/proc``,
bytes on disk, and the single-thread kernel replay."""

from __future__ import annotations

import os
import time

DRIFT_LIMIT = 0.15


def calib_ms(reps: int = 3) -> float:
    """Median time of a fixed pure-Python loop: the host-speed yardstick.
    A run whose before/after probes differ by more than ``DRIFT_LIMIT``
    ran on a host whose speed changed under it."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += (i * i) % 7
        times.append((time.perf_counter() - t0) * 1e3)
    times.sort()
    return times[len(times) // 2]


# ---- memory ----------------------------------------------------------------

def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants() -> list[int]:
    kids = _children()
    out, todo = [], list(kids.get(os.getpid(), []))
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, []))
        out.append(pid)
    return out


def ray_workers() -> list[int]:
    """Ray worker processes started by this process (descendants whose
    title starts with ``ray::``)."""
    out = []
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    out.append(pid)
        except OSError:
            pass
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU time consumed so far by ``pids``."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / tick


def reset_peaks(pids: list[int]) -> None:
    """Reset the kernel's peak-RSS mark (VmHWM) of each process."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(pid: int) -> float:
    return _status_kb(pid, "VmHWM:") / 1024.0


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; reaps it if it is our exited child."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    if state in ("Z", "X"):
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
        return False
    return True


def wait_gone(pids: list[int], timeout: float = 15.0) -> None:
    """Wait for processes to exit; kill those still alive at the deadline."""
    import signal
    deadline = time.time() + timeout
    alive = list(pids)
    while alive and time.time() < deadline:
        alive = [p for p in alive if _alive(p)]
        if alive:
            time.sleep(0.05)
    for p in alive:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass


def dir_bytes(path: str) -> tuple[int, int]:
    """(bytes, files) under ``path``."""
    total = files = 0
    for root, _dirs, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(root, n))
            files += 1
    return total, files


# ---- kernel replay ---------------------------------------------------------

def kernel_replay(pages, cfg) -> dict[str, float]:
    """Single-thread, no-Ray cost of each extraction kernel over ``pages``
    (an Arrow pages table): html automaton and chunker per page; pattern
    NER, relation emission and the stage's row assembly per chunk."""
    import pyarrow as pa

    from graphrag_rs_ray.functions.chunking import chunk_text
    from graphrag_rs_ray.functions.html import extract_page_text
    from graphrag_rs_ray.stages import kg_extract

    pc = time.perf_counter
    html_s = chunk_s = 0.0
    ids, texts = [], []
    for url, html, text in zip(pages.column("url").to_pylist(),
                               pages.column("html").to_pylist(),
                               pages.column("text").to_pylist()):
        t0 = pc()
        doc = extract_page_text(html, text)
        t1 = pc()
        pieces = chunk_text(doc, cfg.chunk_size, cfg.chunk_overlap,
                            cfg.min_chunk_size) if doc else []
        chunk_s += pc() - t1
        html_s += t1 - t0
        for i, (content, _s, _e) in enumerate(pieces):
            ids.append(f"{url}_{i}")
            texts.append(content)

    stage = kg_extract.ExtractKG(cfg)
    timers = {"ner": 0.0, "rel": 0.0}
    extract = stage.extractor.extract

    def timed_extract(text):
        t0 = pc()
        out = extract(text)
        timers["ner"] += pc() - t0
        return out

    def timed_rel(entities, text):
        t0 = pc()
        out = orig_rel(entities, text)
        timers["rel"] += pc() - t0
        return out

    orig_rel = kg_extract.relationship_columns
    stage.extractor.extract = timed_extract
    kg_extract.relationship_columns = timed_rel
    try:
        t0 = pc()
        for k in range(0, len(ids), cfg.batch_size):
            stage(pa.table({"chunk_id": ids[k:k + cfg.batch_size],
                            "doc_id": ids[k:k + cfg.batch_size],
                            "text": texts[k:k + cfg.batch_size]}))
        total = pc() - t0
    finally:
        kg_extract.relationship_columns = orig_rel
    n_pages, n_chunks = max(1, pages.num_rows), max(1, len(ids))
    return {
        "html_ms_per_page": html_s * 1e3 / n_pages,
        "chunk_ms_per_page": chunk_s * 1e3 / n_pages,
        "ner_ms_per_chunk": timers["ner"] * 1e3 / n_chunks,
        "rel_ms_per_chunk": timers["rel"] * 1e3 / n_chunks,
        "emit_ms_per_chunk": (total - timers["ner"] - timers["rel"])
        * 1e3 / n_chunks,
        "chunks_per_page": len(ids) / n_pages,
    }


def add_shard_us_per_row(subjects: list[str], num_shards: int) -> float:
    """Replay of write_graph's per-row shard hash over ``subjects``."""
    from graphrag_rs_ray.pipelines.kg import hash_subj
    if not subjects:
        return 0.0
    t0 = time.perf_counter()
    for s in subjects:
        hash_subj(s, num_shards)
    return (time.perf_counter() - t0) * 1e6 / len(subjects)
