"""Pinned stdout of fixed CLI invocations.

Each invocation runs in process through ``cli.main``; the sha256 of its
stdout must equal the recorded digest.  The first four are the perfbench
workloads.  A refactor that changes any output byte fails here, so a
change that is meant to alter output must re-record the digests and say
why.

The invocations run with the expanded tensor product and ``mu``
(``TensorElement.__mul__`` and ``.mu``) raising: every command, in both
rings and with both search strategies, multiplies only streamed summands.
"""

import contextlib
import hashlib
import io

import pytest

from conftc.algebra import TensorElement
from conftc.cli import main

GOLDEN = [
    ("certify --genus 2 --points 5 --stages 3",
     "c08dc563bbb6fa16fc6c390d561c9cf300d79efa0cfe9b25decf9c258e7e75d5"),
    ("certify --genus 2 --points 5 --stages 3 --ring E",
     "44ed3318532db307fa362959e4b5b78f131af93ac48eeb77dbe92d3944352bb6"),
    ("table --genus 2,3,4 --points 1,2,3 --stages 2,3,4,5,6,7,8,9,10",
     "b001f768def95acb298a2173b52952360326deadabdfbcae3bc311415639040f"),
    ("lemmas --genus 2,3 --points 3,4",
     "36743d7c7f2fa16ab2bd7c8c1abd930cc42b553e3891cd8ec0a0c25f7c7d8d1d"),
    ("certify --genus 1,2,3 --points 1,2,3 --stages 2,3,4",
     "ee79697604b97ad6cf0dcc81cf58a349276464a32b286499d26a1a51893b27c3"),
    ("basis --genus 2,3 --points 2,3",
     "8d7a78fe2a627ffd7f5352e1ebfbe83ab9aca5fe6756529a5b34f011f1bfe83b"),
    ("search-zcl --genus 1,2 --points 1,2 --stages 2,3",
     "406c65530622b1c0d62cab5fa362603d93e678f9ed28d3713a61a23d6ac65a35"),
    ("search-zcl --genus 1,2 --points 1,2 --stages 2,3 --ring E",
     "6781d244a15f6d7efeac87af717baf35213bba632448f90c81581406d7a29ad6"),
    ("rp3 --stages 2,3,4,5",
     "a19cb8dc23c163901eb651d14bff8fd50fd80507ab06b166d1b09fd5bf5ea101"),
    ("search-zcl --genus 1,2 --points 1,2 --stages 2,3 --strategy GREEDY",
     "12fbdee6fafeae780e234e1f00b80cc4b68761924fc91bc0f0517805e2c5f0e4"),
    ("search-zcl --genus 1 --points 1 --stages 2,3,4 --strategy EXHAUSTIVE_TINY",
     "eb98e8d9ec754696551b4f9c2a5ce054c24709a3376e3d50cf168f8121b936ea"),
    ("search-zcl --genus 2 --points 3 --stages 3",
     "9c40a42c1a3d72cb43368f3b8bd07ad6d01ae678033966af64290219dbcc4096"),
    ("certify --genus 2 --points 7 --stages 2",
     "a5b5a0f3c3143f596501fc20ec9a5ffa3c6cfa18936e5c8a1bddce765f0f0678"),
    ("certify --genus 1 --points 7 --stages 3",
     "f67d0819d9e147f0735aea5b29e720ce12c8b5bfeb4064de0088b29cf27e40d3"),
    ("lemmas --genus 2,3,4 --points 2,3,4,5",
     "660af77421dbbcb2e030f9f670e40c22dd5efa158a7fdc569a12f9dcd96e1de4"),
    ("basis --genus 1 --points 2,3",
     "3c4e8b4a45cdb654c0532f84761bb90e2ca9b2b3e248e33f2a81c60721b2b213"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_stdout_matches_the_recorded_digest(monkeypatch, argv, digest):
    def refuse(*args):
        raise AssertionError("an expanded tensor product was formed")

    monkeypatch.setattr(TensorElement, "__mul__", refuse)
    monkeypatch.setattr(TensorElement, "mu", refuse)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
