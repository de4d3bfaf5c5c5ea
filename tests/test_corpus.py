import io
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from softdedupe.corpus import (
    DEFAULT_STOP_WORDS,
    DataSet,
    LoadError,
    TokenizerConfig,
    build_lexicon,
    load_dataset,
    tokenize,
    tokenize_field,
)

from oracles import two_fold_tokenize

WORD = TokenizerConfig(mode="word")
TRIGRAM = TokenizerConfig(mode="ngram", ngram_size=3)


def make_dataset(column, name="f"):
    return DataSet(records=tuple((e,) for e in column), schema=(name,))


class TestLoadDataset:
    def test_small_csv(self):
        src = io.StringIO("a,b,c\n1,2,3\n4,5,6\n")
        ds = load_dataset(src)
        assert ds.n == 2 and ds.a == 3
        assert ds.schema == ("a", "b", "c")
        assert ds.records[0] == ("1", "2", "3")

    def test_no_header(self):
        ds = load_dataset(io.StringIO("1,2\n3,4\n"), header=False)
        assert ds.n == 2 and ds.schema == ("field_0", "field_1")

    def test_quoting(self):
        ds = load_dataset(io.StringIO('name,addr\n"Bistro, The",main st\n'))
        assert ds.records[0] == ("Bistro, The", "main st")

    def test_malformed_row_names_the_row(self):
        with pytest.raises(LoadError, match="row 1"):
            load_dataset(io.StringIO("a,b\n1,2\n3\n"))

    def test_reader_error_names_the_line(self):
        # the csv module's own error (csv.Error) is not a ValueError
        text = "a,b\n1,2\n" + "x" * 131_073 + ",3\n"
        with pytest.raises(LoadError, match=r"^line 3: field larger than field limit"):
            load_dataset(io.StringIO(text))

    @pytest.mark.parametrize("header", [True, False])
    def test_blank_lines_skipped(self, header):
        # a trailing blank line, as editors leave, and blank lines between
        # records; a record of empty entries is a line of delimiters, and stays
        rows = "Joe,Rome\n\nJoan,Rome\n,\n\n"
        ds = load_dataset(io.StringIO("name,city\n" * header + rows), header=header)
        assert ds.records == (("Joe", "Rome"), ("Joan", "Rome"), ("", ""))
        assert ds.schema == (("name", "city") if header else ("field_0", "field_1"))

    def test_empty_input(self):
        with pytest.raises(LoadError):
            load_dataset(io.StringIO(""))
        with pytest.raises(LoadError):
            load_dataset(io.StringIO("a,b\n"))

    @pytest.mark.parametrize("header", ["name,name,entity_id", "name, name ,entity_id"])
    def test_repeated_field_name_is_error(self, header):
        # select_fields would map both names to the first column
        with pytest.raises(ValueError, match="field name 'name' appears twice"):
            load_dataset(io.StringIO(f"{header}\nx,y,1\n"))
        with pytest.raises(ValueError, match="'name' appears twice"):
            DataSet(records=(("x", "y"),), schema=("name", "name"))


class TestTokenize:
    def test_word_mode(self):
        assert tokenize("Albert Einstein", WORD) == ["albert", "einstein"]

    def test_trigrams_match_worked_example(self):
        tokens = tokenize("Albert Einstein", TokenizerConfig(mode="ngram", case_fold=False))
        assert len(tokens) == 13
        assert sorted(tokens) == [
            " Ei", "Alb", "Ein", "ber", "ein", "ert", "ins", "lbe",
            "nst", "rt ", "ste", "t E", "tei",
        ]

    def test_stop_word_removed(self):
        assert tokenize("the", WORD) == []
        assert tokenize("THE Bistro", WORD) == ["bistro"]

    def test_short_entry_is_single_ngram(self):
        assert tokenize("ab", TRIGRAM) == ["ab"]
        assert tokenize("abc", TRIGRAM) == ["abc"]

    def test_whitespace_only_ngrams_dropped(self):
        assert "   " not in tokenize("a    b", TRIGRAM)

    def test_empty_entry(self):
        assert tokenize("", WORD) == []
        assert tokenize("", TRIGRAM) == []

    @given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=8), max_size=6))
    def test_word_tokenization_idempotent(self, words):
        once = tokenize(" ".join(words), WORD)
        assert tokenize(" ".join(once), WORD) == once

    @given(st.text(alphabet="abcdefg", min_size=3, max_size=40))
    def test_trigram_count(self, s):
        config = TokenizerConfig(mode="ngram", ngram_size=3, stop_words=frozenset())
        assert len(tokenize(s, config)) == len(s) - 2

    def test_folded_text_folds_to_itself(self):
        # casefold maps each character on its own, so when no character's
        # folding has a character that folds again, every part of a folded
        # entry is folded and its tokens need no second fold
        for char in map(chr, range(sys.maxunicode + 1)):
            folded = char.casefold()
            if folded != char:
                assert all(c.casefold() == c for c in folded), hex(ord(char))

    # folding changes length (ß, İ, ﬁ) or merges letters (Σ, σ, ς), and
    # stop words may be given unfolded (TokenizerConfig does not fold them)
    FOLD_TEXT = "aßSsİiıﬁfΣσς THE"

    @given(
        st.text(alphabet=FOLD_TEXT, max_size=12),
        st.sampled_from(["word", "ngram"]),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
        st.frozensets(st.text(alphabet=FOLD_TEXT, min_size=1, max_size=4), max_size=6),
    )
    @example("Straße the SS", "word", 3, True, frozenset({"ss", "the", "strasse"}))
    @example("İﬁΣ Σσς", "ngram", 2, True, frozenset({"i̇", "fi", "σσ", "ﬁ", "Σ"}))
    @example("İﬁΣ Σσς", "ngram", 1, False, frozenset({"σ", "ß", "ﬁ"}))
    def test_matches_folding_every_token_again(self, entry, mode, size, fold, stop):
        config = TokenizerConfig(mode=mode, ngram_size=size, case_fold=fold,
                                 stop_words=stop)
        assert tokenize(entry, config) == two_fold_tokenize(entry, config)


def field_tokens(column):
    return tokenize_field(make_dataset(column), 0, WORD)


class TestBuildLexicon:
    def test_union_of_tokens(self):
        assert build_lexicon(field_tokens(["a b", "a"])) == ("a", "b")

    def test_all_stop_words_is_error(self):
        # the field's token lists are all empty, so tokenize_field raises
        with pytest.raises(ValueError, match="field 0 has no features"):
            build_lexicon(field_tokens(["the", "or"]))

    def test_sorted_unique(self):
        lex = build_lexicon(field_tokens(["Joe Bruin", "Joe Bruin", "Joan Lurin"]))
        assert lex == ("bruin", "joan", "joe", "lurin")

    def test_order_independent_of_records(self):
        col = ["x y", "z", "y w"]
        assert build_lexicon(field_tokens(col)) == build_lexicon(field_tokens(col[::-1]))


class TestTokenizeField:
    def test_counts_multiplicity(self):
        assert field_tokens(["a b a", "a"]) == [["a", "b", "a"], ["a"]]

    def test_stop_word_entry_is_missing(self):
        assert field_tokens(["the", "word"]) == [[], ["word"]]

    def test_indices_are_valid(self):
        tokens = field_tokens(["alpha beta", "beta gamma", "gamma alpha"])
        lex = build_lexicon(tokens)
        assert all(t in lex for entry in tokens for t in entry)

    @given(st.lists(st.text(alphabet="ab ", max_size=8), min_size=1, max_size=6),
           st.sampled_from([WORD, TRIGRAM]))
    def test_tokenizes_each_entry(self, column, config):
        tokens = [tokenize(entry, config) for entry in column]
        if any(tokens):
            assert tokenize_field(make_dataset(column), 0, config) == tokens


def test_default_stop_words_match_shipped_list():
    assert DEFAULT_STOP_WORDS == {"and", "the", "or", "none", "na", ""}
