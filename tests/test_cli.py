import io
import json
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vqstego import cli
from vqstego.cli import main
from vqstego.config import default_config, dumps, loads
from vqstego.text_channel import word_list
from vqstego.vq import write_image


@pytest.fixture(scope="module")
def fast_ini(tmp_path_factory):
    # lossless, no correction stream: keeps CLI round trips quick
    cfg = default_config()
    cfg = replace(cfg, ecc_enabled=False, optim=replace(cfg.optim, steps=150))
    path = tmp_path_factory.mktemp("cli") / "fast.ini"
    path.write_text(dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def stego_dir(fast_ini, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "embed"
    msg = out.parent / "message.txt"
    msg.write_text("1011001110001111" * 8)
    assert main(["embed", str(msg), "--config", fast_ini,
                 "--out", str(out)]) == 0
    return out


class TestShowConfig:
    def test_round_trips_through_loads(self, capsys):
        assert main(["show-config"]) == 0
        printed = capsys.readouterr().out
        assert loads(printed) == default_config()

    def test_seed_and_key_overrides(self, capsys):
        assert main(["show-config", "--seed", "42",
                     "--key", "ef" * 32]) == 0
        cfg = loads(capsys.readouterr().out)
        assert cfg.seed == 42
        assert cfg.key_hex == "ef" * 32


class TestEmbedExtract:
    def test_embed_outputs(self, stego_dir):
        assert (stego_dir / "stego.vqi").exists()
        manifest = json.loads((stego_dir / "manifest.json").read_text())
        assert manifest["message_bits"] == 128

    def test_extract_round_trip(self, fast_ini, stego_dir, tmp_path, capsys):
        assert main(["extract", str(stego_dir / "stego.vqi"),
                     "--config", fast_ini,
                     "--truth", str(stego_dir / "truth.json"),
                     "--out", str(tmp_path)]) == 0
        got = (tmp_path / "message.txt").read_text().strip()
        assert got == "1011001110001111" * 8
        info = json.loads((tmp_path / "extract_metrics.json").read_text())
        assert info["recovered_exact"] is True
        assert info["opt_stop"] in ("settled", "cap", "scipy")

    def test_raw_bytes_message(self, fast_ini, tmp_path, capsys):
        msg = tmp_path / "binary.dat"
        msg.write_bytes(bytes(range(16)))
        assert main(["embed", str(msg), "--config", fast_ini,
                     "--out", str(tmp_path / "o")]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["message_bits"] == 128

    def test_attack_then_extract(self, fast_ini, stego_dir, tmp_path, capsys):
        assert main(["attack", str(stego_dir / "stego.vqi"),
                     "--config", fast_ini, "--out", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["l2_distortion"] == 0.0
        assert main(["extract", str(tmp_path / "attacked.vqi"),
                     "--config", fast_ini, "--out", str(tmp_path)]) == 0


class TestExitCodes:
    def test_missing_message_file_is_malformed(self, tmp_path):
        assert main(["embed", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)]) == 2

    def test_missing_image_file_is_malformed(self, tmp_path):
        assert main(["extract", str(tmp_path / "nope.vqi"),
                     "--out", str(tmp_path)]) == 2

    def test_corrupt_image_is_malformed(self, tmp_path):
        bad = tmp_path / "bad.vqi"
        bad.write_bytes(b"not an image at all")
        assert main(["extract", str(bad), "--out", str(tmp_path)]) == 2

    def test_odd_pixel_body_is_malformed(self, tmp_path, capsys):
        # a 4-byte body cannot hold the 1x1x1 header's one float64
        odd = tmp_path / "odd.vqi"
        odd.write_bytes(b"VQI2" + struct.pack("<III", 1, 1, 1) + bytes(4))
        assert main(["attack", str(odd), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["attack", "extract"])
    def test_float32_image_is_malformed(self, tmp_path, capsys, command):
        # a well-formed file of the older lossy format has no reader
        old = tmp_path / "old.vqi"
        old.write_bytes(b"VQI1" + struct.pack("<III", 96, 96, 3)
                        + np.zeros(96 * 96 * 3, "<f4").tobytes())
        out = tmp_path / "d"
        assert main([command, str(old), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("spec, shape", [
        ("rescale:0.5", (0, 0, 3)),
        ("gaussian:0.1", (0, 0, 3)),
        ("rescale:0.5", (1, 1, 3)),
    ])
    def test_degenerate_image_attack_is_malformed(self, tmp_path, capsys,
                                                  spec, shape):
        # images with no pixels, or too small to rescale
        ini = tmp_path / "c.ini"
        ini.write_text(f"[channel]\nspec = {spec}\n")
        image = tmp_path / "tiny.vqi"
        write_image(image, np.zeros(shape))
        out = tmp_path / "d"
        assert main(["attack", str(image), "--config", str(ini),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (out / "attacked.vqi").exists()

    @pytest.mark.parametrize("case", ["nan", "out_of_range", "wrong_size"])
    def test_bad_image_is_malformed(self, tmp_path, capsys, case):
        image = np.zeros((64, 64, 3) if case == "wrong_size" else (96, 96, 3))
        if case == "nan":
            image[5, 7, 1] = np.nan
        elif case == "out_of_range":
            image[:] = 5.0
        path = tmp_path / f"{case}.vqi"
        write_image(path, image)
        assert main(["extract", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag, content", [
        ("--text", None),                   # missing
        ("--text", "directory"),            # unreadable
        ("--text", b"caf\xe9 au lait"),     # not UTF-8
        ("--truth", None),
        ("--truth", b"{not json"),
        ("--truth", b'{"grid": [0]}'),      # no message
        ("--truth", b'{"message": "01"}'),  # no grid
        ("--truth", b'{"message": "01", "grid": [1, 2, 3]}'),
    ])
    def test_bad_side_file_is_malformed(self, tmp_path, capsys, flag,
                                        content):
        image = tmp_path / "zeros.vqi"
        write_image(image, np.zeros((96, 96, 3)))
        side = tmp_path / "side"
        if content == "directory":
            side.mkdir()
        elif content is not None:
            side.write_bytes(content)
        assert main(["extract", str(image), flag, str(side),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_zero_jobs_is_malformed(self, tmp_path):
        assert main(["sweep", "--jobs", "0", "--seeds", "1",
                     "--out", str(tmp_path)]) == 2

    def test_bad_config_is_malformed(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[vq]\ngrid_h = 0\n")
        assert main(["show-config", "--config", str(ini)]) == 2

    @pytest.mark.parametrize("section, key", [
        ("image_model", "num_conditions"),
        ("text_model", "num_conditions"),
        ("vq", "vec_dim"),
        ("vq", "alpha"),
        ("ecc", "lambda1"),
        ("ecc", "lambda2"),
    ])
    def test_zero_setting_is_malformed(self, tmp_path, capsys, section, key):
        ini = tmp_path / "zero.ini"
        ini.write_text(f"[{section}]\n{key} = 0\n")
        msg = tmp_path / "m.txt"
        msg.write_text("0101")
        assert main(["embed", str(msg), "--config", str(ini),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("section, key, value", [
        ("vq", "alpha", "nan"),
        ("image_model", "temperature", "nan"),
        ("vq", "weight_scale", "inf"),
        ("channel", "spec", "gaussian:nan"),
        ("channel", "spec", "gaussian:inf"),
        # finite, but its noise field overflows
        ("channel", "spec", "gaussian:1e308,rescale:0.5"),
        # finite, but the quantize after it overflows
        ("channel", "spec", "gaussian:1e307,quantize:32,rescale:0.5"),
        pytest.param("channel", "spec", "quantize:1" + "0" * 400,
                     id="levels-past-the-largest-double"),
    ])
    def test_non_finite_setting_is_malformed(self, tmp_path, capsys, section,
                                             key, value):
        ini = tmp_path / "nonfinite.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        msg = tmp_path / "m.txt"
        msg.write_text("0101")
        image = tmp_path / "zeros.vqi"
        write_image(image, np.zeros((96, 96, 3)))
        for command, source, output in [("embed", msg, "stego.vqi"),
                                        ("attack", image, "attacked.vqi"),
                                        ("extract", image, "message.txt")]:
            out = tmp_path / command
            assert main([command, str(source), "--config", str(ini),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert not (out / output).exists()

    def test_saturating_noise_warns_nothing(self, tmp_path, capsys):
        # the sender's smooth simulation clips pixels near 1e307, where
        # the soft clip's exponent overflows to -inf
        ini = tmp_path / "huge.ini"
        ini.write_text("[channel]\nspec = gaussian:1e307,rescale:0.5\n"
                       "[optimizer]\nsteps = 5\n")
        msg = tmp_path / "m.txt"
        msg.write_text("0101")
        assert main(["embed", str(msg), "--config", str(ini),
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "0.01"),
        ("beta1", "1"),
        ("beta1", "2"),
        ("beta2", "1"),
        ("eps", "0"),
        ("plateau_tol", "-1"),
        ("plateau_window", "0"),
        ("quantize_in_loop", "true"),
    ])
    def test_fixed_optimizer_setting_is_unknown(self, tmp_path, capsys, key,
                                                value):
        # only the step cap of the L-BFGS solve is a setting
        ini = tmp_path / "optim.ini"
        ini.write_text(f"[optimizer]\nsteps = 30\n{key} = {value}\n")
        msg = tmp_path / "m.txt"
        msg.write_text("0101")
        assert main(["embed", str(msg), "--config", str(ini),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"unknown key {key!r}" in err
        assert not (tmp_path / "stego.vqi").exists()

    @pytest.mark.parametrize("argv", [
        ["attack", "x.vqi", "--key", "ef" * 32],
        ["attack", "x.vqi", "--seed", "3"],
        ["sweep", "--seed", "3"],
    ])
    def test_unread_flags_are_not_offered(self, argv, tmp_path, capsys):
        # attack reads only the channel; sweep seeds its runs 0..--seeds-1,
        # and `--seed` is not taken as an abbreviation of `--seeds`
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--out", str(tmp_path)])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, ini, flags", [
        # seeds are hashed as signed 64-bit integers
        ("embed", "[run]\nseed = 9223372036854775808\n", []),
        ("embed", "", ["--seed", "9223372036854775808"]),
        ("security-test", "", ["--seed", "-9223372036854775809"]),
        ("embed", "[channel]\nnoise_seed = 9223372036854775808\n", []),
        # numpy seeds the codebook and the decoder from non-negative seeds
        ("embed", "[vq]\ncodebook_seed = -1\n", []),
        ("embed", "[vq]\ndecoder_seed = -3\n", []),
        # one cell leaves no bits to address a correction, ECC on or off
        ("embed", "[vq]\ngrid_h = 1\ngrid_w = 1\n[ecc]\nenabled = false\n",
         []),
        ("embed", "[image_model]\ncontext_order = -1\n", []),
        ("embed", "[text]\nmax_tokens = 0\n", []),
        ("security-test", "[run]\nsecurity_positions = -1\n", []),
        ("security-test", "", ["--samples", "0"]),
        ("security-test", "", ["--samples", "-1"]),
        ("sweep", "", ["--seeds", "-2"]),
        ("sweep", "", ["--seeds", "0"]),
        ("sweep", "", ["--max-tokens", "5,x"]),
        # a negative length would run every row over an empty message
        ("sweep", "[optimizer]\nsteps = 30\n",
         ["--seeds", "1", "--message-bits", "-1"]),
        ("sweep", "[optimizer]\nsteps = 30\n",
         ["--seeds", "1", "--message-bits", "-9"]),
    ], ids=["ini-seed", "seed-flag", "negative-seed-flag", "noise-seed",
            "negative-codebook-seed", "negative-decoder-seed",
            "one-cell-grid", "context-order", "max-tokens", "positions",
            "zero-samples", "negative-samples", "negative-seeds",
            "zero-seeds", "max-tokens-list", "negative-message-bits",
            "negative-message-bytes"])
    def test_out_of_range_input_is_malformed(self, tmp_path, capsys, command,
                                             ini, flags):
        config = tmp_path / "case.ini"
        config.write_text(ini)
        argv = [command]
        if command == "embed":
            msg = tmp_path / "m.txt"
            msg.write_text("0101")
            argv.append(str(msg))
        argv += flags + ["--config", str(config), "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "stego.vqi").exists()
        assert not (tmp_path / "security_report.json").exists()
        assert not (tmp_path / "sweep_rows.jsonl").exists()

    def test_bad_key_is_malformed(self, tmp_path):
        msg = tmp_path / "m.txt"
        msg.write_text("0101")
        assert main(["embed", str(msg), "--key", "zz",
                     "--out", str(tmp_path)]) == 2

    def test_oversized_message_is_recoverable_error(self, fast_ini, tmp_path):
        msg = tmp_path / "huge.txt"
        msg.write_text("01" * 30_000)
        assert main(["embed", str(msg), "--config", fast_ini,
                     "--out", str(tmp_path)]) == 1


class TestUnusableOut:
    """An --out that cannot be a directory exits 2 before any work."""

    @pytest.mark.parametrize("command", ["embed", "extract", "attack",
                                         "security-test", "sweep"])
    @pytest.mark.parametrize("where", ["existing-file", "under-a-file",
                                       "empty"])
    def test_exits_2_before_the_pipeline(self, tmp_path, capsys, monkeypatch,
                                         command, where):
        called = []
        for name in ("run_embed", "run_extract", "run_attack",
                     "run_security_test", "run_sweep"):
            monkeypatch.setattr(cli, name, lambda *a, **k: called.append(a))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = {"existing-file": blocker, "under-a-file": blocker / "sub",
               "empty": ""}[where]
        msg = tmp_path / "m.txt"
        msg.write_text("0101")
        image = tmp_path / "zeros.vqi"
        write_image(image, np.zeros((96, 96, 3)))
        args = {"embed": [str(msg)], "extract": [str(image)],
                "attack": [str(image)],
                "security-test": ["--samples", "2"],
                "sweep": ["--seeds", "1", "--channels", "lossless"]}[command]
        assert main([command, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert called == []
        assert blocker.read_text() == "a file, not a directory"


class TestSweep:
    def test_sweep_writes_rows_and_table(self, fast_ini, tmp_path, capsys):
        assert main(["sweep", "--config", fast_ini, "--channels", "lossless",
                     "--seeds", "1", "--message-bits", "64",
                     "--out", str(tmp_path)]) == 0
        rows = [json.loads(line) for line in
                (tmp_path / "sweep_rows.jsonl").read_text().splitlines()]
        assert len(rows) == 1 and rows[0]["recovered_exact"]
        table = (tmp_path / "sweep_table.txt").read_text()
        assert "lossless" in table
        assert "lossless" in capsys.readouterr().out


class TestSecuritySmoke:
    def test_small_sample_report(self, tmp_path, capsys):
        assert main(["security-test", "--samples", "30",
                     "--out", str(tmp_path)]) == 0
        report = json.loads(
            (tmp_path / "security_report.json").read_text())
        assert report["variant"] == "stego"
        assert report["n_samples"] == 30
        assert 0.0 <= report["pooled_p"] <= 1.0
        assert "combined_p" in report


# numbers at and past the edges of a signed 64-bit integer and a double
_extreme_numbers = st.one_of(
    st.integers(-2**70, 2**70),
    st.integers(10**18, 10**30).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from(["1e308", "-1e308", "1e-320", "-1e-320", "5e-324", "0",
                     "-0", "1e300", "1e-300"]),
).map(str)

_VQ_KEYS = [("vq", "weight_scale"), ("vq", "bias_scale"), ("vq", "alpha")]
_FUZZED_KEYS = [(section, key)
                for section in ("image_model", "text_model")
                for key in ("seed", "num_conditions", "temperature")] + _VQ_KEYS


def quiet_main(argv) -> None:
    """`main(argv)`, asserting that it exits 0, 1 or 2 with no traceback
    and no warning on stderr (the suite also turns warnings into errors)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(argv) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()


class TestFuzz:
    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.sampled_from(_FUZZED_KEYS), _extreme_numbers,
                           min_size=1, max_size=3))
    @example({("image_model", "seed"): str(10**26)})
    @example({("text_model", "seed"): str(-10**22)})
    @example({("image_model", "num_conditions"): str(10**23)})
    @example({("vq", "weight_scale"): "1e308"})
    @example({("vq", "bias_scale"): "1e308"})
    @example({("vq", "alpha"): "1e308"})
    @example({("vq", "alpha"): "-1e308"})
    @example({("image_model", "temperature"): "1e-320"})
    def test_config_values(self, values):
        sections: dict[str, list[str]] = {"ecc": ["enabled = false"]}
        for (section, key), value in values.items():
            sections.setdefault(section, []).append(f"{key} = {value}")
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "c.ini"
            ini.write_text("".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                                   for section, lines in sections.items()))
            msg = Path(tmp) / "m.txt"
            msg.write_text("0101")
            quiet_main(["embed", str(msg), "--config", str(ini),
                        "--out", str(Path(tmp) / "o")])

    @settings(max_examples=10, deadline=None)
    @given(st.dictionaries(st.sampled_from(_VQ_KEYS),
                           _extreme_numbers, min_size=1, max_size=3))
    @example({("vq", "alpha"): "1e-320"})
    @example({("vq", "alpha"): "1e-300"})
    @example({("vq", "alpha"): "1e-160"})
    @example({("vq", "bias_scale"): "0", ("vq", "weight_scale"): "1e300",
              ("vq", "alpha"): "1e308"})
    def test_receiver_vq_values(self, stego_dir, values):
        # embed with the correction stream, attack, then extract with the
        # text; when embed refuses the config, the receiver still gets an
        # attacked image, one embedded under the default [vq] values
        sections = {"channel": ["spec = gaussian:0.1"],
                    "optimizer": ["steps = 20"], "vq": []}
        for (section, key), value in values.items():
            sections[section].append(f"{key} = {value}")
        with tempfile.TemporaryDirectory() as tmp:
            ini, out = Path(tmp) / "c.ini", Path(tmp) / "o"
            ini.write_text("".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                                   for section, lines in sections.items()))
            msg = Path(tmp) / "m.txt"
            msg.write_text("0101")
            quiet_main(["embed", str(msg), "--config", str(ini),
                        "--out", str(out)])
            stego = out / "stego.vqi"
            quiet_main(["attack",
                        str(stego if stego.exists()
                            else stego_dir / "stego.vqi"),
                        "--config", str(ini), "--out", tmp])
            text = out / "stego_text.txt"
            quiet_main(["extract", str(Path(tmp) / "attacked.vqi"),
                        *(["--text", str(text)] if text.exists() else []),
                        "--config", str(ini), "--out", tmp])

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(st.binary(max_size=120),
                     st.text(alphabet="01 \n\t", max_size=1200)
                     .map(str.encode)))
    def test_message_files(self, fast_ini, data):
        with tempfile.TemporaryDirectory() as tmp:
            msg = Path(tmp) / "m.txt"
            msg.write_bytes(data)
            quiet_main(["embed", str(msg), "--config", fast_ini,
                        "--out", str(Path(tmp) / "o")])

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from(word_list()), max_size=60).map(" ".join),
        st.text(max_size=60)).map(lambda t: t.encode("utf-8", "replace"))
        | st.binary(max_size=60))
    def test_extract_word_files(self, fast_ini, stego_dir, data):
        with tempfile.TemporaryDirectory() as tmp:
            words = Path(tmp) / "words.txt"
            words.write_bytes(data)
            quiet_main(["extract", str(stego_dir / "stego.vqi"),
                        "--text", str(words), "--config", fast_ini,
                        "--out", tmp])
