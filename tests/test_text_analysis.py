"""Text analysis kernels (``text/analysis.rs``) — section numbers,
roman numerals, statistics."""

import pytest

from graphrag_rs_ray.functions.text_analysis import (
    calculate_statistics,
    extract_section_number,
    parse_roman_numeral,
)


def test_parse_roman_numeral():
    assert parse_roman_numeral("IV") == 4
    assert parse_roman_numeral("IX") == 9
    assert parse_roman_numeral("MCMXCIV") == 1994
    # no validity checking — quirks preserved (analysis.rs:188-213)
    assert parse_roman_numeral("IIII") == 4
    assert parse_roman_numeral("IXX") == 19
    assert parse_roman_numeral("Q") is None
    assert parse_roman_numeral("") == 0


def test_extract_section_number_branches():
    # decimal dotted
    sn = extract_section_number("3.1.2 Overview")
    assert sn == {"raw": "3.1.2", "format": "decimal",
                  "components": [3, 1, 2]}
    # decimal with colon separator
    assert extract_section_number("7: Data")["components"] == [7]
    # chapter keyword + number (case-insensitive)
    sn = extract_section_number("chapter 12 Introduction")
    assert sn["format"] == "mixed" and sn["components"] == [12]
    assert sn["raw"] == "chapter 12"
    # keyword + roman
    sn = extract_section_number("Section IX Analysis")
    assert sn["components"] == [9] and sn["raw"] == "Section IX"
    # keyword + single letter that IS a roman char → roman wins
    # (alternation order quirk: 'C' parses as 100, not alpha 3)
    assert extract_section_number("Part C Extra")["components"] == [100]
    # keyword + non-roman letter → alpha ordinal
    assert extract_section_number("Appendix B Tables")["components"] == [2]
    # bare roman
    sn = extract_section_number("IV. Preface")
    assert sn["format"] == "roman" and sn["components"] == [4]
    # bare alpha (letters that are roman chars go roman first)
    assert extract_section_number("B. Appendix")["format"] == "alphabetic"
    assert extract_section_number("C. Appendix")["format"] == "roman"
    # none
    assert extract_section_number("No numbering here") is None


def test_calculate_statistics():
    s = calculate_statistics("One two three. Four five!\n\nSix seven?")
    assert s["word_count"] == 7
    assert s["sentence_count"] == 3
    assert s["paragraph_count"] == 2
    assert s["char_count"] == len("One two three. Four five!\n\nSix seven?")
    assert s["avg_sentence_length"] == pytest.approx(7 / 3)
    assert s["avg_word_length"] == pytest.approx(s["char_count"] / 7)
    # min-1 clamps
    empty = calculate_statistics("")
    assert empty["sentence_count"] == 1 and empty["paragraph_count"] == 1
    assert empty["avg_word_length"] == 0.0
