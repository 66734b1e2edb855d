"""Driver-style sweep: run every oracle_sql() query side-by-side vs DuckDB
at sf0.01 (exactly what the round driver does) and report failures.
Run: python scripts/driver_sim.py [query ...]
     python scripts/driver_sim.py --sample N --seed R   # rotate a random
          N-query subset (like the round driver's 50-of-all sampling) so
          repeated CI-ish runs cover different slices; the chosen names
          are printed so any drift is attributable."""
import os, sys, json
import duckdb
import numpy as np
import ray
# Ray workers import the package from the driver's working directory at init.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT); os.chdir(ROOT)
ray.init(address="local", include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
ctx = DataContext.get_current(); ctx.enable_progress_bars = False; ctx.op_resource_reservation_enabled = False
import __ray_entry__ as e

SF = "/root/testdata/sf0.01"
TABLES = ("events","documents","embeddings")

def norm(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object: df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)

q = e.queries(); o = e.oracle_sql()
fails = []
import ray.data as rd
argv = sys.argv[1:]
if argv and argv[0] == "--sample":
    import random
    n_sample = int(argv[1])
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    only = set(random.Random(seed).sample(sorted(o), min(n_sample, len(o))))
    print(f"sampled {len(only)} of {len(o)} (seed={seed}): "
          + " ".join(sorted(only)), flush=True)
else:
    only = set(argv)       # optional: sweep just the named queries
import time as _time
_t_all = _time.perf_counter()
for name in sorted(o):
    if only and name not in only:
        continue
    _t0 = _time.perf_counter()
    try:
        r = q[name](SF)
        rdf = norm(r.to_pandas() if isinstance(r, rd.Dataset) else
                   (r.to_pandas() if hasattr(r, "to_pandas") else r))
        con = duckdb.connect()
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
        odf = norm(con.execute(o[name]).df())
        con.close()
        ok = (list(rdf.columns) == list(odf.columns)) and (len(rdf) == len(odf))
        if ok:
            for c in rdf.columns:
                a, b = rdf[c], odf[c]
                if np.issubdtype(a.dtype, np.floating):
                    ok = ok and bool(np.allclose(a.to_numpy().astype(float), b.to_numpy().astype(float), atol=0, rtol=0, equal_nan=True))
                else:
                    ok = ok and bool(a.reset_index(drop=True).astype(str).equals(b.astype(str).reset_index(drop=True)))
        status = "OK" if ok else "MISMATCH"
    except Exception as ex:
        status = f"ERROR {type(ex).__name__}: {str(ex)[:120]}"
    if status != "OK":
        fails.append((name, status))
    print(f"{name}: {status} ({_time.perf_counter() - _t0:.1f}s)",
          flush=True)
print(json.dumps({"total": len(o), "failures": fails,
                  "total_sec": round(_time.perf_counter() - _t_all, 1)}))
ray.shutdown()
