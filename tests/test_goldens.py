"""Golden outputs: every file the CLI writes at 10^5 terms, pinned by sha256.

The hashes were recorded from the per-line formatter and the two separate
atomic writers that the block formatter and the shared writer replaced, so
a change in any output byte, text or checkpoint, fails here.  The four
checkpoints are pinned in format version 2; V1_GOLDEN keeps their
version-1 hashes, which the version-1 image of each must still match.
`verify` writes no file; the acceptance tests cover it.
"""

import hashlib
from pathlib import Path

import pytest

from test_checkpoint import v1_image

from qseq import checkpoint
from qseq.cli import EXIT_DEATH, EXIT_OK, main
from qseq.diagnostics import SERIES_CODES

H = "100000"
TRACE = "trace_s1-1_alternating_w4.qtr"

RUNS = [
    (["compute", "--horizon", H, "--export"], EXIT_OK),
    (["compute", "--horizon", H, "--width", "8"], EXIT_OK),
    (["compute", "--horizon", H, "--perturbation", "none", "--export"], EXIT_OK),
    (["compute", "--seed", "1,2,1", "--horizon", "100", "--export"], EXIT_DEATH),
    *((["diagnose", "--horizon", H, "--series", code, "--trace", TRACE], EXIT_OK)
      for code in SERIES_CODES),
    (["selfsim", "--horizon", H, "--levels", "0..5", "--trace", TRACE], EXIT_OK),
    (["freq", "--horizon", H, "--kmax", "14", "--trace", TRACE], EXIT_OK),
    (["seeds", "--horizon", H], EXIT_OK),
]

GOLDEN = {
    "freq_F_s1-1_alternating_w4_n100000_k14.dat":
        "21fe1906320a9be484306b99a9f760efbd67e57c5e725de8e315265ac8c676b3",
    "freq_report_s1-1_alternating_w4_n100000.txt":
        "e9aa2dafef2d54ab4678ede13dd50f5015bcdac7f9c4522f5fba980a5f691b91",
    "seeds_len3_max3_h100000.txt":
        "a08e34bcb95376d690ed7b9713ea11c9c253255995fdac552f15d33d245e4351",
    "selfsim_k0_s1-1_alternating_w4_n100000.dat":
        "5317af50bef8c3a0fefbdb7c1e7edd8f99e700d2c0e03ffa113872605fe6d4f9",
    "selfsim_k1_s1-1_alternating_w4_n100000.dat":
        "a93f4292c9d78a638b91cf776feabfbc9df029c22cf28d76ce2190536fafba48",
    "selfsim_k2_s1-1_alternating_w4_n100000.dat":
        "349fbd66738331fb9eb213c623c8af38591e6885e124b0d60b47449c6fc80cb1",
    "selfsim_k3_s1-1_alternating_w4_n100000.dat":
        "b4772e7d2a63d7ab07cc186f684c58011be0328813f502e5317990a3026849b9",
    "selfsim_k4_s1-1_alternating_w4_n100000.dat":
        "defa1d710c4935534d8b87f174d59c89e457249b3b8e8c3d2b4609bb2b6b74fe",
    "selfsim_k5_s1-1_alternating_w4_n100000.dat":
        "580f2eeb2d6a3cb073207f875c5f1b8d66f806538c0f46f0aeecb2c6ece925ac",
    "series_A_s1-1_alternating_w4_n100000.dat":
        "0e72aee681a121064e21d0d3902808036bae1be2f0964f3b9a12c2152b1ab74a",
    "series_B_s1-1_alternating_w4_n100000.dat":
        "69482fadd9ffa8bb284269c139cec63425ef6b68901f0372c388e25f4a86e517",
    "series_D_s1-1_alternating_w4_n100000.dat":
        "0e1544aa885f72aba582a13ca8c5868b69692d3f8cd35f1adedc0cdc44034ba0",
    "series_E_s1-1_alternating_w4_n100000.dat":
        "43fdfc62f632b51a68d41fba02a700a83093c1e55ff67ef8e7f493d1523be85e",
    "series_G_s1-1_alternating_w4_n100000.dat":
        "067cc12af54e434e6d9820094de5f9919510286a1023bb2fdf60540ce394d6d2",
    "series_R_s1-1_alternating_w4_n100000.dat":
        "eaffec7fb3ff21e64f3ed569536375c0217c3a6111d1b0096b67125fe139b3e9",
    "series_Reven_s1-1_alternating_w4_n100000.dat":
        "106adecd326d6b6c8344ea730b1aea90f1ed8163de5ca6569f45db81207f5718",
    "series_Rodd_s1-1_alternating_w4_n100000.dat":
        "8e2032fd09887905a74944f427492c8f05a6debecb2a386e049a2620c5ced86a",
    "series_S_s1-1_alternating_w4_n100000.dat":
        "e2d5dd522749c69e478f72dcc866c7bd1c5288a877e4f069cbf87b71c4997b32",
    "series_a_s1-1_alternating_w4_n100000.dat":
        "6ef14e441808eb739e784d5ffd6958b9bbea379d40c1ee545be26c5d6f75dafd",
    "series_b_s1-1_alternating_w4_n100000.dat":
        "fe8b0081d87a10a6923fbecc7651493dd4b38530aad6d94f6d767ea0949a2fa2",
    "series_d_s1-1_alternating_w4_n100000.dat":
        "1c97aacc2ab3c4c791ce458525243957baf3c73024aff92d1aec97e41a61e61a",
    "series_s_s1-1_alternating_w4_n100000.dat":
        "e6e6b8121a5765324cf4da5cd942642ddb4457a0dffe3b7691862f74976592f1",
    "series_t1_s1-1_alternating_w4_n100000.dat":
        "f71bd274ff51fc5c6bf3d4d954a7c22c35ead5f415590902ef137798915ddb67",
    "series_t2_s1-1_alternating_w4_n100000.dat":
        "3a0602e6ef65ef009b605222b06cf87c745c243acfe05a30a89afa1c252fba48",
    "trace_s1-1_alternating_w4.qtr":
        "e37b896f294d0b4194df5188232c6199fd6e176debc956dedd694e8cb9526774",
    "trace_s1-1_alternating_w8.qtr":
        "f4dcb70fb925136e6f795c5a5f754b93a1f0e98654b1dd52007fe16c02462cc2",
    "trace_s1-1_none_w4.qtr":
        "a340d07f7bb8f64c372a9d010fe255a20bce0970bf527a70c1f70d3747a8b87b",
    "trace_s1-2-1_alternating_w4.qtr":
        "fe6075a9013c4039d38870d701da0d1f975143d73ca97df1cc464bf5e16f2e7d",
    "values_s1-1_alternating_w4_n100000.dat":
        "7be8aca2a1237096ed67235ae3e76c789e1774809dc63966dfd26ae646c6dd0c",
    "values_s1-1_none_w4_n100000.dat":
        "19e46a5e5efd4112619e2854cd589561dc296eb67ca6bdc440cee0c059ef2f73",
    "values_s1-2-1_alternating_w4_n100.dat":
        "990b464fd845b4c85cf8d6dcef6f67f7025c52e37e50b7c45b11ad217a9e490f",
}

V1_GOLDEN = {
    "trace_s1-1_alternating_w4.qtr":
        "4ac5671412c8e78df4e4b1d5ea36717461ecc393727228b38f1bdb9bfc076851",
    "trace_s1-1_alternating_w8.qtr":
        "8b317db263a77c0599867f25d22b6c038f1501eab4df4551f03cc4d7989f1122",
    "trace_s1-1_none_w4.qtr":
        "bdefc67a32e6656091bf2e68167279f38983d649d4e853c475ec8f475cee4e78",
    "trace_s1-2-1_alternating_w4.qtr":
        "c38a4ea7ffb9e07ac180b589900c63a6a15f58a42bbbc5572c34047729013396",
}


def produce(out_dir: Path) -> dict[str, str]:
    """Run every verb into out_dir; sha256 of each file written, by name."""
    for argv, code in RUNS:
        argv = [a if a != TRACE else str(out_dir / TRACE) for a in argv]
        assert main(["--data-dir", str(out_dir), *argv]) == code, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("goldens")


@pytest.fixture(scope="module")
def produced(out_dir):
    return produce(out_dir)


def test_every_output_file_is_pinned(produced):
    assert sorted(produced) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(produced, name):
    assert produced.get(name) == GOLDEN[name]


def test_each_kernel_writes_the_same_files(tmp_path, monkeypatch, kernel):
    """The C kernel and its pure-Python twin write every file byte for byte
    the same, each reporting the chunks of a run into a checkpoint at
    CHUNK = 41 slots.  The text files are the golden ones.  Each checkpoint
    holds the golden header and values, its version-1 image pinned, and is
    the file that a save of its trace from memory writes under that CHUNK.
    Seed (1,2,1) dies at step 41, one slot short of its first chunk's end."""
    monkeypatch.setattr(checkpoint, "CHUNK", 41)
    produced = produce(tmp_path)
    assert sorted(produced) == sorted(GOLDEN)
    assert {name: produced[name] for name in GOLDEN if name not in V1_GOLDEN} == \
        {name: GOLDEN[name] for name in GOLDEN if name not in V1_GOLDEN}
    for name in V1_GOLDEN:
        raw = (tmp_path / name).read_bytes()
        assert hashlib.sha256(v1_image(raw)).hexdigest() == V1_GOLDEN[name]
        checkpoint.save(checkpoint.load(tmp_path / name), tmp_path / "one-pass.qtr")
        assert raw == (tmp_path / "one-pass.qtr").read_bytes(), name


@pytest.mark.parametrize("name", sorted(V1_GOLDEN))
def test_a_checkpoint_as_version_1_keeps_its_old_hash_and_loads(produced, out_dir, tmp_path,
                                                                name):
    """Version 1, the chunk table dropped and the trailer the crc32 of all
    before it: the old golden bytes, which load to the same trace, and
    which compute reuses without rewriting them."""
    image = v1_image((out_dir / name).read_bytes())
    assert hashlib.sha256(image).hexdigest() == V1_GOLDEN[name]
    path = tmp_path / name
    path.write_bytes(image)
    loaded = checkpoint.load(path)
    assert loaded == checkpoint.load(out_dir / name)
    cfg = loaded.config
    argv = ["compute", "--seed", ",".join(map(str, cfg.seed.values)), "--horizon",
            str(cfg.horizon), "--perturbation", cfg.perturbation.value, "--width",
            str(cfg.width), "--trace", str(path)]
    assert main(argv) == (EXIT_OK if loaded.outcome.is_alive else EXIT_DEATH)
    assert path.read_bytes() == image
