"""Label metrics: the trigram hash against published vectors, word-set IoU,
open-vocabulary ties, one embedding per label and entry, corpus aggregation
and the ``eval`` command."""

import json

import pytest

from regionrec import cli, metrics

PROVIDER = metrics.TrigramHashProvider()


@pytest.mark.parametrize("data, digest", [(b"a", 0xAF63DC4C8601EC8C), (b"foobar", 0x85944171F73967E8)])
def test_fnv1a64_published_vectors(data, digest):
    assert metrics._fnv1a64(data) == digest


def test_semantic_iou_splits_on_hyphen_and_underscore():
    assert metrics.semantic_iou("red-fox", "red_fox") == 100.0
    assert metrics.semantic_iou("red fox", "fox") == 50.0


def test_open_vocab_tie_goes_to_the_lowest_index():
    # "puppy" shares no trigram bucket with either entry, so both cosines are 0
    assert metrics.evaluate([("puppy", "dog")], PROVIDER, ["dog", "cat"]).mask_acc == 1.0
    assert metrics.evaluate([("puppy", "cat")], PROVIDER, ["dog", "cat"]).mask_acc == 0.0


def test_mask_acc_needs_a_vocabulary():
    assert metrics.evaluate([("cat", "cat")], PROVIDER).mask_acc is None
    assert metrics.evaluate([("cat", "cat")], PROVIDER, ["dog", "cat"]).mask_acc == 1.0


def test_mask_acc_compares_labels_as_the_similarity_does():
    # stripped and lowercased on both sides, as the similarity embeds them
    assert metrics.evaluate([("Cat", "Cat")], PROVIDER, ["cat", "dog"]).mask_acc == 1.0
    assert metrics.evaluate([("cat", " CAT ")], PROVIDER, ["Cat", "dog"]).mask_acc == 1.0


class CountingProvider(metrics.TrigramHashProvider):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return super().embed(text)


def test_evaluate_embeds_each_label_and_entry_once():
    provider = CountingProvider()
    pairs, vocabulary = [("cat", "cat"), ("puppy", "dog"), ("red fox", "fox")], ["dog", "cat", "fox", "bird"]
    metrics.evaluate(pairs, provider, vocabulary)
    assert provider.calls == len(vocabulary) + 2 * len(pairs)


def test_eval_with_vocab_file_end_to_end(tmp_path, capsys):
    preds = [{"image_id": "img", "mask_index": 0, "pred": "cat", "gold": "cat"},
             {"image_id": "img", "mask_index": 1, "pred": "puppy", "gold": "dog"}]
    (tmp_path / "pred.jsonl").write_text("".join(json.dumps(p) + "\n" for p in preds))
    (tmp_path / "vocab.txt").write_text("cat\n\ndog\n")
    assert cli.main(["eval", "--pred", str(tmp_path / "pred.jsonl"), "--vocab-file", str(tmp_path / "vocab.txt")]) == 0
    report = json.loads(capsys.readouterr().out)
    # "puppy" shares no trigram with "dog", so it matches "cat" and misses
    assert report == {"mask_acc": 0.5, "n": 2, "semantic_iou": 50.0, "semantic_similarity": 50.0}
