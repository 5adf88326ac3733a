import random

import pytest

import rstboost.treebank as treebank
from rstboost.errors import InvalidConfig, InvalidTree, MalformedSyntax
from rstboost.treebank import (
    MAX_SYNTH_EDUS,
    Document,
    Internal,
    Leaf,
    iter_internal,
    load_documents,
    load_treebank,
    postorder,
    parse_bracketed,
    save_treebank,
    serialize_bracketed,
    SynthSettings,
    synthesize_treebank,
    validate,
)

from conftest import reference_lex, validate_treebank

SHARED = ("attribution", "background", "cause", "contrast", "elaboration", "joint")
DOMAIN = ("condition", "evidence")


def synth_cfg(**kw):
    """Settings whose two domains, news and chat, both draw from ``DOMAIN``."""
    base = dict(
        edu_range=(2, 8),
        shared_vocab=50,
        domain_vocab=20,
        shared_relations=SHARED,
        domain_relations_a=DOMAIN,
        domain_relations_b=DOMAIN,
        p_domain=0.3,
    )
    base.update(kw)
    return SynthSettings(**base)


def synth(seed, n_docs=20, side="a", **kw):
    """``n_docs`` documents of ``synth_cfg(**kw)``'s domain ``side``."""
    return synthesize_treebank(synth_cfg(**kw), side, n_docs, "synth", seed)


class TestParseBracketed:
    def test_two_edu_tree(self):
        doc, tree = parse_bracketed('(NS elaboration (leaf "it rained") (leaf "so we left"))')
        assert doc.edus == (
            ("it", "rained"),
            ("so", "we", "left"),
        )
        assert tree == Internal("NS", "elaboration", Leaf(1), Leaf(2))

    def test_single_leaf(self):
        doc, tree = parse_bracketed('(leaf "hello world")')
        assert doc.n_edus == 1
        assert tree == Leaf(1)
        assert doc.edus[0] == ("hello", "world")

    def test_non_binary_node_rejected(self):
        with pytest.raises(InvalidTree):
            parse_bracketed('(NS elaboration (leaf "a"))')
        with pytest.raises(InvalidTree):
            parse_bracketed('(NS rel (leaf "a") (leaf "b") (leaf "c"))')

    def test_unknown_nuclearity_rejected(self):
        with pytest.raises(InvalidTree):
            parse_bracketed('(XX elaboration (leaf "a") (leaf "b"))')

    def test_unbalanced_parens(self):
        with pytest.raises(MalformedSyntax):
            parse_bracketed('(NS elaboration (leaf "a") (leaf "b")')
        with pytest.raises(MalformedSyntax):
            parse_bracketed('(leaf "a")) ')

    def test_bad_relation_label(self):
        with pytest.raises(MalformedSyntax):
            parse_bracketed('(NS Elab! (leaf "a") (leaf "b"))')

    def test_empty_leaf_text(self):
        with pytest.raises(InvalidTree):
            parse_bracketed('(leaf "   ")')

    def test_tokens_lowercased(self):
        doc, _ = parse_bracketed('(leaf "Hello WORLD")')
        assert doc.edus[0] == ("hello", "world")


class TestLex:
    # The characters the lexer treats specially (quote and backslash twice as likely),
    # whitespace that ``str.isspace`` holds beyond ASCII's, and plain characters.
    ALPHABET = '()""\\\\ \n\r\t\x1c\x85\xa0abNS'

    def outcome(self, lex, text):
        try:
            return lex(text)
        except MalformedSyntax as exc:
            return type(exc), str(exc)

    def test_same_tokens_or_error_as_the_character_loop(self):
        rng = random.Random("lex")
        for _ in range(20_000):
            text = "".join(rng.choices(self.ALPHABET, k=rng.randint(0, 16)))
            assert self.outcome(treebank._lex, text) == self.outcome(reference_lex, text), text

    @pytest.mark.parametrize("text,message", [
        ('(leaf "a', "unterminated string literal"),
        ('(leaf "a\\', "dangling escape at end of input"),
        ('(leaf "a\\n b', "unsupported escape \\n"),
        ('(leaf "a\\"', "unterminated string literal"),
    ])
    def test_bad_string_messages(self, text, message):
        """An unterminated string reports its first bad escape first."""
        with pytest.raises(MalformedSyntax) as exc:
            treebank._lex(text)
        assert str(exc.value) == message


class TestSerializeBracketed:
    def test_leaf_only(self):
        doc, tree = parse_bracketed('(leaf "hello world")')
        assert serialize_bracketed(doc, tree) == '(leaf "hello world")'

    def test_right_branching_nesting(self):
        text = '(NS rel (leaf "a") (NS rel (leaf "b") (leaf "c")))'
        doc, tree = parse_bracketed(text)
        assert serialize_bracketed(doc, tree) == text

    def test_quote_escaping_round_trip(self):
        doc = Document("d", (('say_"hi"', "x\\y"),))
        tree = Leaf(1)
        text = serialize_bracketed(doc, tree)
        doc2, tree2 = parse_bracketed(text, doc_id="d")
        assert doc2 == doc and tree2 == tree

    def test_round_trip_on_generated_treebank(self):
        tb = synth(5, n_docs=30)
        for doc, tree in tb.entries:
            text = serialize_bracketed(doc, tree)
            doc2, tree2 = parse_bracketed(text, doc_id=doc.doc_id)
            assert doc2 == doc
            assert tree2 == tree


class TestValidate:
    def test_valid_tree(self):
        doc, tree = parse_bracketed('(NS elaboration (leaf "a") (leaf "b"))')
        assert validate(doc, tree) == []

    def test_leaf_order_violation(self):
        doc = Document("d", tuple((f"t{i}",) for i in (1, 2, 3)))
        tree = Internal("NS", "rel", Leaf(1), Internal("NS", "rel", Leaf(3), Leaf(2)))
        problems = validate(doc, tree)
        assert len(problems) == 1
        assert "order" in problems[0]

    def test_coverage_violation(self):
        doc = Document("d", tuple((f"t{i}",) for i in (1, 2, 3)))
        tree = Internal("NS", "rel", Leaf(1), Leaf(5))
        problems = validate(doc, tree)
        assert len(problems) == 1
        assert "outside" in problems[0] and "root.right" in problems[0]

    def test_unknown_relation_against_inventory(self):
        doc, tree = parse_bracketed('(NS mystery (leaf "a") (leaf "b"))')
        assert validate(doc, tree, relation_inventory=("elaboration",)) != []
        assert validate(doc, tree, relation_inventory=("mystery",)) == []

    def test_bad_nuclearity_named_with_path(self):
        doc = Document("d", (("a",), ("b",)))
        tree = Internal("XY", "rel", Leaf(1), Leaf(2))
        problems = validate(doc, tree)
        assert any("root:" in p and "XY" in p for p in problems)


class TestFileIO:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tb"
        path.write_text("")
        tb = load_treebank(path)
        assert len(tb) == 0
        assert tb.name == "empty"

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.tb"
        path.write_text('#doc d1 news\n(NS elaboration (leaf "a") (leaf "b"))\n')
        tb = load_treebank(path)
        assert len(tb) == 1
        assert tb.domain_tag == "news"
        assert tb.relation_inventory == ("elaboration",)
        assert tb.entries[0][0].doc_id == "d1"

    def test_one_tokenization_per_leaf(self, tmp_path, monkeypatch):
        path = tmp_path / "small.tb"
        save_treebank(synth(3, n_docs=5), path)
        texts = []
        tokenize = treebank.tokenize_text
        monkeypatch.setattr(treebank, "tokenize_text",
                            lambda text: texts.append(text) or tokenize(text))
        tb = load_treebank(path)
        leaves = [node for _, tree in tb.entries for node in postorder(tree)
                  if isinstance(node, Leaf)]
        assert len(texts) == len(leaves) > 5

    def test_malformed_second_record_names_index(self, tmp_path):
        path = tmp_path / "bad.tb"
        path.write_text(
            '#doc d1 news\n(leaf "a")\n\n#doc d2 news\n(NS rel (leaf "b")\n'
        )
        with pytest.raises(MalformedSyntax, match="record 2"):
            load_treebank(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.tb"
        path.write_text('(leaf "a")\n')
        with pytest.raises(MalformedSyntax, match="record 1"):
            load_treebank(path)

    def test_declared_relations_union(self, tmp_path):
        path = tmp_path / "declared.tb"
        path.write_text(
            "#relations zebra apple\n\n"
            '#doc d1 news\n(NS elaboration (leaf "a") (leaf "b"))\n'
        )
        tb = load_treebank(path)
        assert tb.relation_inventory == ("apple", "elaboration", "zebra")

    @pytest.mark.parametrize("label", ["Bad,Label", "x)y", "élaboration"])
    def test_declared_relation_outside_grammar_rejected(self, tmp_path, label):
        """A ``#relations`` label must be one a record could use: ``[a-z_-]+``."""
        path = tmp_path / "declared.tb"
        path.write_text(
            f"#relations {label} elaboration\n\n"
            '#doc d1 news\n(NS elaboration (leaf "a") (leaf "b"))\n'
        )
        with pytest.raises(MalformedSyntax, match="#relations label"):
            load_treebank(path)

    @pytest.mark.parametrize("tag", ["ne,ws", 'news"', "news;x"])
    def test_domain_tag_outside_grammar_rejected(self, tmp_path, tag):
        """A domain tag is written unquoted into metric CSV cells, so it must match
        ``[\\w.-]+``, as a synth setting's must."""
        path = tmp_path / "bad.tb"
        path.write_text('#doc d1 news\n(leaf "a")\n\n'
                        f'#doc d2 {tag}\n(NS elaboration (leaf "a") (leaf "b"))\n')
        with pytest.raises(MalformedSyntax, match=r"record 2 \(d2\): domain tag"):
            load_treebank(path)

    @pytest.mark.parametrize("header", ["#relationsBad zebra", "#relations-x zebra",
                                        "#relations,zebra", "#relationszebra"])
    def test_relations_keyword_glued_to_text_rejected(self, tmp_path, header):
        """``#relations`` is a header only when whitespace or the end of the line follows."""
        path = tmp_path / "declared.tb"
        path.write_text(f"{header}\n\n"
                        '#doc d1 news\n(NS elaboration (leaf "a") (leaf "b"))\n')
        with pytest.raises(MalformedSyntax, match="#relations header"):
            load_treebank(path)

    @pytest.mark.parametrize("header,inventory", [
        ("#relations", ("elaboration",)),
        ("#relations\tzebra", ("elaboration", "zebra")),
        ("#relations  zebra  apple ", ("apple", "elaboration", "zebra")),
    ])
    def test_relations_keyword_ends_at_whitespace(self, tmp_path, header, inventory):
        path = tmp_path / "declared.tb"
        path.write_text(f"{header}\n\n"
                        '#doc d1 news\n(NS elaboration (leaf "a") (leaf "b"))\n')
        assert load_treebank(path).relation_inventory == inventory

    def test_save_load_round_trip(self, tmp_path):
        tb = synth(3, n_docs=12)
        path = tmp_path / "rt.tb"
        save_treebank(tb, path)
        tb2 = load_treebank(path)
        assert tb2.entries == tb.entries
        assert tb2.relation_inventory == tb.relation_inventory
        assert tb2.domain_tag == tb.domain_tag

    def test_mixed_domain_tags(self, tmp_path):
        path = tmp_path / "mix.tb"
        path.write_text(
            '#doc d1 news\n(leaf "a")\n\n#doc d2 chat\n(leaf "b")\n'
        )
        assert load_treebank(path).domain_tag == "mixed"

    def test_multiline_tree_record(self, tmp_path):
        path = tmp_path / "multi.tb"
        path.write_text(
            '#doc d1 news\n(NS elaboration\n  (leaf "a")\n  (leaf "b"))\n'
        )
        tb = load_treebank(path)
        assert len(tb) == 1


class TestLoadDocuments:
    """``parse``'s reader: the first non-blank line tells a treebank from raw EDUs."""

    RECORD = '#doc d1 news\n(NS elaboration (leaf "a b") (leaf "c"))\n'

    def test_treebank_text_gives_its_documents_and_domain_tag(self, tmp_path):
        tb = synth(3, n_docs=4)
        path = tmp_path / "four.tb"
        save_treebank(tb, path)
        docs, tag = load_documents(path, "\n \n" + path.read_text())
        assert docs == [doc for doc, _ in tb.entries]
        assert tag == tb.domain_tag == "news"

    def test_raw_text_gives_raw_documents(self):
        docs, tag = load_documents("raw.txt", "The cat\nsat down\n\n \t\nHello\n")
        assert docs == [Document("raw-0000", (("the", "cat"), ("sat", "down"))),
                        Document("raw-0001", (("hello",),))]
        assert tag == "raw"

    @pytest.mark.parametrize("rest,doc_ids,tag", [
        ("\n" + RECORD, ["d1"], "news"),
        ("", [], ""),
    ], ids=["then-a-record", "alone"])
    def test_relations_header_block_reads_as_a_treebank(self, rest, doc_ids, tag):
        docs, got_tag = load_documents("header.tb", "#relations zebra\n" + rest)
        assert [doc.doc_id for doc in docs] == doc_ids
        assert got_tag == tag

    def test_relations_keyword_glued_to_a_label_is_malformed(self):
        with pytest.raises(MalformedSyntax, match="#relations header"):
            load_documents("glued.tb", "#relationszebra\n\n" + self.RECORD)


class TestSynthesize:
    def test_deterministic(self):
        a = synth(7)
        b = synth(7)
        assert a == b

    def test_seed_changes_output(self):
        a = synth(7)
        b = synth(8)
        assert a != b

    def test_p_domain_zero_ignores_domain_tag(self):
        """At ``p_domain`` 0 no domain-specific rule fires, so the two sides draw the same
        documents from one seed: the probe's null, in which the two test sets differ only
        in their domain tag."""
        cfg = SynthSettings(p_domain=0.0)
        a, b = (synthesize_treebank(cfg, side, 30, "null", 7) for side in "ab")
        assert a.entries == b.entries
        assert (a.domain_tag, b.domain_tag) == ("news", "chat")
        used = {n.relation for _, tree in a.entries for n in iter_internal(tree)}
        assert used <= set(cfg.shared_relations)
        default = SynthSettings()
        assert (synthesize_treebank(default, "a", 30, "null", 7).entries
                != synthesize_treebank(default, "b", 30, "null", 7).entries)

    def test_generated_set_validates(self):
        # full-set validator sweep at the documented desk-scale size
        tb = synth(11, n_docs=100, edu_range=(2, 12))
        assert validate_treebank(tb) == []

    def test_internal_node_count_identity(self):
        tb = synth(2, n_docs=40)
        for doc, tree in tb.entries:
            n_internal = sum(1 for _ in iter_internal(tree))
            assert n_internal == doc.n_edus - 1

    def test_leaves_cover_document(self):
        tb = synth(9, n_docs=25)
        for doc, tree in tb.entries:
            ids = [n.edu_id for n in postorder(tree) if isinstance(n, Leaf)]
            assert ids == list(range(1, doc.n_edus + 1))

    def test_relations_drawn_from_inventory(self):
        tb = synth(13, n_docs=40, p_domain=0.5)
        used = {n.relation for _, t in tb.entries for n in iter_internal(t)}
        assert used <= set(tb.relation_inventory)
        assert tb.relation_inventory == tuple(sorted(set(SHARED) | set(DOMAIN)))

    def test_invalid_configs(self):
        for bad in (dict(shared_relations=()), dict(edu_range=(0, 4)), dict(edu_range=(5, 4)),
                    dict(p_domain=1.5), dict(p_domain=0.5, domain_relations_a=()),
                    dict(p_domain=0.5, domain_relations_b=()), dict(n_train=-1),
                    dict(n_test=-1), dict(domain_b="news"), dict(shared_vocab=0)):
            with pytest.raises(InvalidConfig):
                synth_cfg(**bad)

    def test_size_limit(self):
        """``n_train + 2 * n_test`` documents of up to ``edu_range[1]`` EDUs, checked
        when the settings are made."""
        at_limit = dict(n_train=MAX_SYNTH_EDUS // 10 - 2, n_test=1, edu_range=(1, 10))
        synth_cfg(**at_limit)
        with pytest.raises(InvalidConfig, match=f"the limit is {MAX_SYNTH_EDUS:,}"):
            synth_cfg(**{**at_limit, "n_test": 2})

    def test_single_edu_documents_allowed(self):
        tb = synth(6, n_docs=5, edu_range=(1, 1))
        for doc, tree in tb.entries:
            assert doc.n_edus == 1
            assert tree == Leaf(1)
