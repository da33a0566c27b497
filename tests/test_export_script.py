"""Smoke test of scripts/export_figure_data.py at a small horizon."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from qseq.errors import SaturationError

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "export_figure_data.py"

# sha256 of each file at --horizon 20000 --survey-horizon 20000 --kmax 10,
# recorded from the per-line formatter that SeriesText replaced.
GOLDEN = {
    "fluct_log.dat": "0825914811056f4a703052126079361adb668dfe5d9dfd68543dc973f1b168db",
    "freq_F.dat": "da61cbdfac3457692f0784bf3a36097ae47994e580160e13e3143e88c573fba2",
    "growth.dat": "3d276b3738b604ab166a37f232f682031c5f0975f1f9bf753e053d552ecac6a9",
    "peaks.dat": "7cf562448ec52f88e096423e7b6aaeaf74680928757b43cf35a91dcbcdf8a190",
    "renorm_even.dat": "4d02566b944b8ffd7e98c036cada79d9322e448301486b80c0b6bb22f93c6276",
    "renorm_odd.dat": "e1b35cae61a8e248af38092e2ede738d2365280afdff132c3e18ebe96f668639",
    "seed_table.txt": "3f63af3634e2cb5d19e723ff4d75e3d40472e2d9e23120070cc6c784b09c1f54",
    "selfsim_k0.dat": "1eb90713ab02a564f173bc78765be68529d5c939133157cfb532b98adf518025",
    "selfsim_k1.dat": "196c24f4de11af6285a6eb76be0482a415eef2289f1761233c360aaeb300add8",
    "selfsim_k2.dat": "2d6b47bfbc9a837a90263a959606659afb4471e44bd0e0db64e3cd158fe37a6e",
    "selfsim_k3.dat": "2f7b15b475f7f570e2dda5f55012c07ecbb76f3b0a9e6f2bf0785e215c91bdac",
    "selfsim_k4.dat": "9e20ca88f810d05c7f8c587792d3b5441ce5f178e7dc78a6cd607a57f8771d57",
    "selfsim_k5.dat": "d86385939e0255237cc2ee8b31767200468b738a7ea3dbc43325cdee4b268742",
    "selfsim_k6.dat": "0eb5a5b45bebebe484f2f4d12bd0b60f8573889e6737663ab5251f398c3b4c89",
    "selfsim_k7.dat": "ac132d0dd480d4bf3a0a540f10ce09a9d6ee4f526d0cc994fd2b55b9425b3be1",
    "selfsim_k8.dat": "f7def49f93b77021a2402fe262fd56829ee9f5a3cb4b4f73a7d02bac69848dce",
}


def load_script():
    spec = importlib.util.spec_from_file_location("export_figure_data", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_export_figure_data_writes_the_golden_files(tmp_path, capsys):
    script = load_script()
    # --kmax 10: peak_scan needs every block up to kmax complete at 20000 terms
    assert script.main(["--out-dir", str(tmp_path), "--horizon", "20000",
                        "--survey-horizon", "20000", "--kmax", "10"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == GOLDEN
    assert "done: 16 files" in capsys.readouterr().out


def test_too_short_a_horizon_for_kmax_writes_no_file(tmp_path, capsys):
    out = tmp_path / "figs"
    # the default --kmax 15 needs block 15 complete, which 20000 terms do not give
    with pytest.raises(SaturationError):
        load_script().main(["--out-dir", str(out), "--horizon", "20000",
                            "--survey-horizon", "20000"])
    assert not out.exists()
    assert "wrote" not in capsys.readouterr().out
