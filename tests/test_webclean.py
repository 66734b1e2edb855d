"""Gates for the web-cleaning family: C4 line filters and PII redaction.

The sf corpora exercise only the no-match branches (no PII, no braces),
so the TRUE branches are gated here two ways:
planted-case kernel asserts, and a DuckDB replay of the REAL oracle SQL
over an in-memory `documents` table of planted texts (the same
side-by-side the driver runs, on adversarial rows)."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from graphrag_rs_ray.functions.webclean import c4_clean, c4_line_keep, pii_redact

GOOD_LINE = "This sentence has more than five words in it."


# ------------------------------------------------------------- kernels --

def test_c4_line_filter_rules():
    assert c4_line_keep(GOOD_LINE)
    assert c4_line_keep('He said "five words are here."')
    assert not c4_line_keep("No terminal punctuation here at all")
    assert not c4_line_keep("Too few words.")
    assert not c4_line_keep("Enable JavaScript to view this page.")
    assert not c4_line_keep("")


def test_c4_doc_gates():
    good = "\n".join([GOOD_LINE] * 3)
    assert c4_clean(good)["keep"]
    assert c4_clean(good)["cleaned"] == good
    assert not c4_clean(good + "\nvar x = {1};")["keep"]        # brace
    assert not c4_clean(good + "\nLorem Ipsum dolor sit.")["keep"]
    assert not c4_clean("\n".join([GOOD_LINE] * 2))["keep"]     # < 3 kept
    r = c4_clean("  " + GOOD_LINE + "  \nbad line\n" + GOOD_LINE)
    assert r["n_lines"] == 3 and r["n_kept_lines"] == 2
    assert r["cleaned"] == GOOD_LINE + "\n" + GOOD_LINE         # stripped


def test_pii_redaction_counts_and_order():
    r = pii_redact("mail a.b+c@ex.co.uk then 10.0.0.1 or +123-456-7890 x")
    assert (r["n_email"], r["n_ip"], r["n_phone"]) == (1, 1, 1)
    assert r["redacted"] == "mail <EMAIL> then <IP> or <PHONE> x"
    # email pass runs first: digits inside an address never look like PII
    r = pii_redact("123.456.7890@example.com")
    assert (r["n_email"], r["n_ip"], r["n_phone"]) == (1, 0, 0)
    # dotted phone without 4 octets is a phone, not an IP
    r = pii_redact("call 123.456.7890 now")
    assert (r["n_email"], r["n_ip"], r["n_phone"]) == (0, 0, 1)
    # documented false positive: a >4-octet run redacts its first 4
    assert pii_redact("1.2.3.4.5")["n_ip"] == 1
    assert pii_redact("")["redacted"] == ""


# ------------------------------------- oracle parity on planted texts --

PLANTED = [
    "Contact me at jane.doe@example.org or on 555-123-4567.\n"
    "Server 192.168.10.255 is fine.",
    "\n".join([GOOD_LINE] * 4) + "\nshort.\nEnable javascript now please ok.",
    "Shared duplicate line across docs.\n\nUnique one here.",
    "Shared duplicate line across docs.\nAnother unique line.\n"
    "Shared duplicate line across docs.",
    "var config = { lorem ipsum };\n" + GOOD_LINE,
    "",
]


def _planted_docs() -> pa.Table:
    return pa.table({
        "doc_id": pa.array(range(1, len(PLANTED) + 1), pa.int64()),
        "text": pa.array(PLANTED, pa.string()),
        "lang": pa.array(["en"] * len(PLANTED), pa.string()),
        "source": pa.array(["t"] * len(PLANTED), pa.string()),
        "n_chars": pa.array([len(t) for t in PLANTED], pa.int64()),
    })


def _oracle(name: str) -> pd.DataFrame:
    import __ray_entry__ as e
    con = duckdb.connect()
    con.register("documents", _planted_docs())
    out = con.execute(e.oracle_sql()[name]).df()
    con.close()
    return out


@pytest.mark.usefixtures("ray_session")
def test_oracle_parity_on_planted_docs():
    import ray.data as rd
    from graphrag_rs_ray.pipelines import training_data as td

    ds = rd.from_arrow(_planted_docs())

    def norm(df):
        df = df[sorted(df.columns)].copy()
        for c in df.columns:
            if df[c].dtype == object:
                df[c] = df[c].astype(str)
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    for name, fn in [("c4_clean", td.c4_clean), ("pii_redact", td.pii_redact)]:
        got = fn("/unused", docs_ds=ds)
        got = got.to_pandas() if not isinstance(got, pd.DataFrame) else got
        want = _oracle(name)
        pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)
    # the planted corpus actually exercises the true branches
    pii = _oracle("pii_redact").set_index("doc_id")
    assert pii.loc[1, "n_email"] == 1 and pii.loc[1, "n_ip"] == 1

