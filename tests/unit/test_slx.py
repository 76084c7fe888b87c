"""Unit tests for the .slx container: parameter codec, writer, parser."""

import zipfile

import numpy as np
import pytest

from repro.errors import SlxFormatError
from repro.model.block import Block
from repro.model.builder import ModelBuilder
from repro.model.graph import Model
from repro.model import slx
from repro.model.slx import (
    BLOCKDIAGRAM_PATH, decode_param, encode_param, load_slx, model_to_xml, save_slx,
    xml_to_model,
)


class TestParamCodec:
    @pytest.mark.parametrize("value", [
        0, 42, -7, 3.5, -0.25, True, False, "start_end", "",
        (3, 4), (), [1, 2, 3], [0.5, -1.5],
    ])
    def test_round_trip_scalars(self, value):
        tag, text = encode_param(value)
        assert decode_param(tag, text) == value

    def test_round_trip_float_array(self):
        arr = np.linspace(-1, 1, 7)
        tag, text = encode_param(arr)
        out = decode_param(tag, text)
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_round_trip_uint32_array(self):
        arr = np.array([0, 1, 2 ** 32 - 1], dtype="uint32")
        tag, text = encode_param(arr)
        np.testing.assert_array_equal(decode_param(tag, text), arr)

    def test_round_trip_complex_matrix(self):
        arr = np.array([[1 + 2j, -3.5 - 0.25j], [0j, 1j]])
        tag, text = encode_param(arr)
        out = decode_param(tag, text)
        np.testing.assert_array_equal(out, arr)
        assert out.shape == (2, 2)

    def test_bool_distinct_from_int(self):
        tag, _ = encode_param(True)
        assert tag == "bool"
        tag, _ = encode_param(1)
        assert tag == "int"

    def test_unknown_type_rejected(self):
        with pytest.raises(SlxFormatError):
            encode_param(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(SlxFormatError):
            decode_param("mystery", "1")


def example_model() -> Model:
    b = ModelBuilder("Example")
    u = b.inport("u", shape=(10,))
    k = b.constant("k", np.arange(3, dtype="float64"))
    c = b.convolution(u, k, name="conv")
    s = b.selector(c, start=1, end=10, name="sel")
    g = b.gain(s, 1.5, name="amp")
    b.outport("y", g)
    b.terminator(c, name="spill")  # fan-out from conv
    return b.build()


class TestWriterParser:
    def test_round_trip_structure(self, tmp_path):
        model = example_model()
        path = save_slx(model, tmp_path / "example.slx")
        loaded = load_slx(path)
        assert set(loaded.blocks) == set(model.blocks)
        assert loaded.name == model.name
        assert len(loaded.connections) == len(model.connections)

    def test_round_trip_params(self, tmp_path):
        model = example_model()
        loaded = load_slx(save_slx(model, tmp_path / "m.slx"))
        np.testing.assert_array_equal(
            loaded["k"].params["value"], model["k"].params["value"])
        assert loaded["sel"].params["start"] == 1
        assert loaded["amp"].params["gain"] == 1.5

    def test_container_is_a_zip_with_blockdiagram(self, tmp_path):
        path = save_slx(example_model(), tmp_path / "m.slx")
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
        assert "simulink/blockdiagram.xml" in names
        assert "[Content_Types].xml" in names

    def test_fanout_becomes_branches(self):
        payload = model_to_xml(example_model()).decode()
        assert "<Branch>" in payload  # conv drives sel and spill

    def test_sid_port_references(self):
        payload = model_to_xml(example_model()).decode()
        assert "#out:1" in payload and "#in:1" in payload

    def test_subsystem_round_trip(self, tmp_path):
        inner = Model("inner")
        inner.add_block(Block("in1", "Inport", {"port": 1}))
        inner.add_block(Block("amp", "Gain", {"gain": 9.0}))
        inner.add_block(Block("out1", "Outport", {"port": 1}))
        inner.connect("in1", "amp")
        inner.connect("amp", "out1")
        outer = Model("outer")
        outer.add_block(Block("src", "Inport", {"shape": (3,)}))
        outer.add_subsystem(Block("sub", "SubSystem"), inner)
        outer.add_block(Block("dst", "Outport"))
        outer.connect("src", "sub")
        outer.connect("sub", "dst")

        loaded = load_slx(save_slx(outer, tmp_path / "nested.slx"))
        assert "sub" in loaded.subsystems
        assert loaded.subsystems["sub"]["amp"].params["gain"] == 9.0
        flat = loaded.flatten()
        assert "sub.amp" in flat


class TestMalformedInputs:
    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "bogus.slx"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(SlxFormatError):
            load_slx(path)

    def test_zip_without_payload(self, tmp_path):
        path = tmp_path / "empty.slx"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("readme.txt", "nothing here")
        with pytest.raises(SlxFormatError):
            load_slx(path)

    def test_oversized_payload_rejected_before_decompressing(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(slx, "MAX_BLOCKDIAGRAM_BYTES", 4096)
        path = tmp_path / "bomb.slx"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr(BLOCKDIAGRAM_PATH, b" " * 4097)
        with pytest.raises(SlxFormatError, match="limit is 4096"):
            load_slx(path)
        small = tmp_path / "small.slx"
        save_slx(example_model(), small)
        monkeypatch.setattr(slx, "MAX_BLOCKDIAGRAM_BYTES",
                            len(model_to_xml(example_model())))
        assert load_slx(small).blocks

    def test_invalid_xml(self):
        with pytest.raises(SlxFormatError):
            xml_to_model(b"<not-closed")

    def test_missing_model_element(self):
        with pytest.raises(SlxFormatError):
            xml_to_model(b"<ModelInformation/>")

    def test_line_with_unknown_sid(self):
        payload = (
            b'<ModelInformation><Model Name="m"><System>'
            b'<Block BlockType="Inport" Name="u" SID="1"/>'
            b'<Line><P Name="Src">9#out:1</P><P Name="Dst">1#in:1</P></Line>'
            b"</System></Model></ModelInformation>"
        )
        with pytest.raises(SlxFormatError):
            xml_to_model(payload)

    def test_block_missing_sid(self):
        payload = (
            b'<ModelInformation><Model Name="m"><System>'
            b'<Block BlockType="Inport" Name="u"/>'
            b"</System></Model></ModelInformation>"
        )
        with pytest.raises(SlxFormatError):
            xml_to_model(payload)

    def test_malformed_endpoint(self):
        payload = (
            b'<ModelInformation><Model Name="m"><System>'
            b'<Block BlockType="Inport" Name="u" SID="1"/>'
            b'<Block BlockType="Outport" Name="y" SID="2"/>'
            b'<Line><P Name="Src">1:out#1</P><P Name="Dst">2#in:1</P></Line>'
            b"</System></Model></ModelInformation>"
        )
        with pytest.raises(SlxFormatError):
            xml_to_model(payload)

    def test_line_without_destinations(self):
        payload = (
            b'<ModelInformation><Model Name="m"><System>'
            b'<Block BlockType="Inport" Name="u" SID="1"/>'
            b'<Line><P Name="Src">1#out:1</P></Line>'
            b"</System></Model></ModelInformation>"
        )
        with pytest.raises(SlxFormatError):
            xml_to_model(payload)
