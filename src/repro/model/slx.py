"""``.slx`` container reader and writer.

A Simulink ``.slx`` file is a ZIP archive whose dataflow payload lives in
``simulink/blockdiagram.xml`` (paper §3.1: "the Simulink model is wrapped by
a ZIP file ... recorded in the XML files").  We reproduce that container
faithfully enough to exercise the same parsing path FRODO implements:

* ``<Block BlockType="..." Name="..." SID="...">`` elements with ``<P>``
  parameter children;
* ``<Line>`` elements whose ``Src``/``Dst`` parameters use SID-based,
  1-based port references (``"3#out:1"``), with ``<Branch>`` children for
  fan-out lines;
* nested ``<System>`` elements for Subsystem blocks.

The writer and parser round-trip every model the builder can construct,
including numpy-array parameters, which are encoded as typed ``<P>`` text.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np

from repro.errors import SlxFormatError
from repro.model.block import Block, Connection
from repro.model.graph import Model, SUBSYSTEM_TYPE

BLOCKDIAGRAM_PATH = "simulink/blockdiagram.xml"

#: Largest ``blockdiagram.xml`` :func:`load_slx` decompresses.  A small
#: upload can otherwise expand to gigabytes (a zip bomb); the zoo's
#: largest payload is under 32 KiB.
MAX_BLOCKDIAGRAM_BYTES = 64 * 1024 * 1024

_CONTENT_TYPES = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
    '<Default Extension="xml" ContentType="application/xml"/></Types>\n'
)


# -- parameter value encoding -------------------------------------------------

def encode_param(value: object) -> tuple[str, str]:
    """Encode one parameter value as ``(type_tag, text)``."""
    if isinstance(value, bool):
        return "bool", "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return "int", str(int(value))
    if isinstance(value, (float, np.floating)):
        return "float", repr(float(value))
    if isinstance(value, str):
        return "str", value
    if isinstance(value, tuple) and all(isinstance(v, (int, np.integer)) for v in value):
        return "shape", ",".join(str(int(v)) for v in value)
    if isinstance(value, list) and all(isinstance(v, (int, np.integer)) for v in value):
        return "intlist", ",".join(str(int(v)) for v in value)
    if isinstance(value, list) and all(
        isinstance(v, (int, float, np.integer, np.floating)) for v in value
    ):
        return "floatlist", ",".join(repr(float(v)) for v in value)
    if isinstance(value, np.ndarray):
        shape = ",".join(str(d) for d in value.shape)
        if np.iscomplexobj(value):
            flat = " ".join(
                f"{float(v.real)!r}{float(v.imag):+}j" for v in value.ravel())
        else:
            flat = " ".join(repr(v.item()) for v in value.ravel())
        return f"array:{value.dtype.name}:{shape}", flat
    raise SlxFormatError(f"cannot encode parameter value of type {type(value)!r}")


def decode_param(type_tag: str, text: str) -> object:
    """Inverse of :func:`encode_param`."""
    text = text or ""
    if type_tag == "bool":
        return text.strip() == "1"
    if type_tag == "int":
        return int(text)
    if type_tag == "float":
        return float(text)
    if type_tag == "str":
        return text
    if type_tag == "shape":
        return tuple(int(v) for v in text.split(",") if v.strip())
    if type_tag == "intlist":
        return [int(v) for v in text.split(",") if v.strip()]
    if type_tag == "floatlist":
        return [float(v) for v in text.split(",") if v.strip()]
    if type_tag.startswith("array:"):
        _, dtype_name, shape_text = type_tag.split(":", 2)
        shape = tuple(int(v) for v in shape_text.split(",") if v.strip())
        if dtype_name.startswith("complex"):
            values = [complex(v) for v in text.split()]
        elif dtype_name.startswith(("int", "uint")):
            values = [int(v) for v in text.split()]
        else:
            values = [float(v) for v in text.split()]
        return np.array(values, dtype=dtype_name).reshape(shape)
    raise SlxFormatError(f"unknown parameter type tag {type_tag!r}")


# -- writer -------------------------------------------------------------------

def _assign_sids(model: Model, start: int = 1) -> dict[str, int]:
    sids: dict[str, int] = {}
    next_sid = start
    for block in model.blocks.values():
        sids[block.name] = next_sid
        block.sid = next_sid
        next_sid += 1
    return sids


def _system_element(model: Model) -> ET.Element:
    system = ET.Element("System")
    sids = _assign_sids(model)
    for block in model.blocks.values():
        elem = ET.SubElement(system, "Block", {
            "BlockType": block.block_type,
            "Name": block.name,
            "SID": str(sids[block.name]),
        })
        for key in sorted(block.params):
            type_tag, text = encode_param(block.params[key])
            p = ET.SubElement(elem, "P", {"Name": key, "Type": type_tag})
            p.text = text
        if block.block_type == SUBSYSTEM_TYPE:
            elem.append(_system_element(model.subsystems[block.name]))

    by_source: dict[tuple[str, int], list[Connection]] = {}
    for conn in model.connections:
        by_source.setdefault((conn.src, conn.src_port), []).append(conn)
    for (src, src_port), conns in by_source.items():
        line = ET.SubElement(system, "Line")
        src_p = ET.SubElement(line, "P", {"Name": "Src"})
        src_p.text = f"{sids[src]}#out:{src_port + 1}"
        if len(conns) == 1:
            dst_p = ET.SubElement(line, "P", {"Name": "Dst"})
            dst_p.text = f"{sids[conns[0].dst]}#in:{conns[0].dst_port + 1}"
        else:
            for conn in conns:
                branch = ET.SubElement(line, "Branch")
                dst_p = ET.SubElement(branch, "P", {"Name": "Dst"})
                dst_p.text = f"{sids[conn.dst]}#in:{conn.dst_port + 1}"
    return system


def model_to_xml(model: Model) -> bytes:
    """Serialize a model to the ``blockdiagram.xml`` payload."""
    root = ET.Element("ModelInformation", {"Version": "1.0"})
    model_elem = ET.SubElement(root, "Model", {"Name": model.name})
    model_elem.append(_system_element(model))
    tree = ET.ElementTree(root)
    buffer = io.BytesIO()
    tree.write(buffer, encoding="utf-8", xml_declaration=True)
    return buffer.getvalue()


def save_slx(model: Model, path: str | Path) -> Path:
    """Write ``model`` as a ``.slx`` ZIP container."""
    path = Path(path)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("[Content_Types].xml", _CONTENT_TYPES)
        archive.writestr(
            "metadata/coreProperties.xml",
            '<?xml version="1.0"?><coreProperties>'
            f"<title>{model.name}</title></coreProperties>",
        )
        archive.writestr(BLOCKDIAGRAM_PATH, model_to_xml(model))
    return path


# -- parser ---------------------------------------------------------------------

def _parse_endpoint(text: str, kind: str) -> tuple[int, int]:
    """Parse ``"3#out:1"`` to ``(sid, 0-based port)``."""
    try:
        sid_text, port_text = text.split("#", 1)
        ref_kind, port_number = port_text.split(":", 1)
        if ref_kind != kind:
            raise ValueError(f"expected {kind!r} reference")
        return int(sid_text), int(port_number) - 1
    except ValueError as exc:
        raise SlxFormatError(f"malformed line endpoint {text!r}: {exc}") from exc


def _parse_system(system: ET.Element, name: str) -> Model:
    model = Model(name)
    by_sid: dict[int, str] = {}
    for elem in system.findall("Block"):
        block_type = elem.get("BlockType")
        block_name = elem.get("Name")
        sid_text = elem.get("SID")
        if not block_type or not block_name or not sid_text:
            raise SlxFormatError(
                "Block element missing BlockType/Name/SID attributes"
            )
        params: dict[str, object] = {}
        for p in elem.findall("P"):
            key = p.get("Name")
            if key is None:
                raise SlxFormatError("P element missing Name attribute")
            params[key] = decode_param(p.get("Type", "str"), p.text or "")
        block = Block(block_name, block_type, params, sid=int(sid_text))
        if block_type == SUBSYSTEM_TYPE:
            inner_elem = elem.find("System")
            if inner_elem is None:
                raise SlxFormatError(
                    f"SubSystem block {block_name!r} has no nested System"
                )
            model.add_subsystem(block, _parse_system(inner_elem, block_name))
        else:
            model.add_block(block)
        by_sid[int(sid_text)] = block_name

    for line in system.findall("Line"):
        src_p = line.find("P[@Name='Src']")
        if src_p is None or not src_p.text:
            raise SlxFormatError("Line element missing Src parameter")
        src_sid, src_port = _parse_endpoint(src_p.text, "out")
        destinations: list[tuple[int, int]] = []
        dst_p = line.find("P[@Name='Dst']")
        if dst_p is not None and dst_p.text:
            destinations.append(_parse_endpoint(dst_p.text, "in"))
        for branch in line.findall("Branch"):
            branch_dst = branch.find("P[@Name='Dst']")
            if branch_dst is None or not branch_dst.text:
                raise SlxFormatError("Branch element missing Dst parameter")
            destinations.append(_parse_endpoint(branch_dst.text, "in"))
        if not destinations:
            raise SlxFormatError("Line element has no destinations")
        for dst_sid, dst_port in destinations:
            for sid in (src_sid, dst_sid):
                if sid not in by_sid:
                    raise SlxFormatError(f"line references unknown SID {sid}")
            model.connections.append(Connection(
                by_sid[src_sid], src_port, by_sid[dst_sid], dst_port,
            ))
    return model


def xml_to_model(payload: bytes) -> Model:
    """Parse the ``blockdiagram.xml`` payload into a model."""
    try:
        root = ET.fromstring(payload)
    except ET.ParseError as exc:
        raise SlxFormatError(f"invalid XML payload: {exc}") from exc
    model_elem = root.find("Model")
    if model_elem is None:
        raise SlxFormatError("payload has no <Model> element")
    system = model_elem.find("System")
    if system is None:
        raise SlxFormatError("payload has no <System> element")
    return _parse_system(system, model_elem.get("Name", "model"))


def load_slx(path: str | Path) -> Model:
    """Read a ``.slx`` container back into a model."""
    path = Path(path)
    try:
        with zipfile.ZipFile(path) as archive:
            try:
                info = archive.getinfo(BLOCKDIAGRAM_PATH)
            except KeyError:
                raise SlxFormatError(
                    f"{path} does not contain {BLOCKDIAGRAM_PATH}"
                ) from None
            if info.file_size > MAX_BLOCKDIAGRAM_BYTES:
                raise SlxFormatError(
                    f"{BLOCKDIAGRAM_PATH} in {path} is {info.file_size} "
                    f"bytes; the limit is {MAX_BLOCKDIAGRAM_BYTES}")
            # Read at most one byte past the cap, so a header that
            # understates the size cannot get past the check above.
            with archive.open(info) as member:
                payload = member.read(MAX_BLOCKDIAGRAM_BYTES + 1)
            if len(payload) > MAX_BLOCKDIAGRAM_BYTES:
                raise SlxFormatError(
                    f"{BLOCKDIAGRAM_PATH} in {path} exceeds "
                    f"{MAX_BLOCKDIAGRAM_BYTES} bytes")
    except zipfile.BadZipFile as exc:
        raise SlxFormatError(f"{path} is not a ZIP container: {exc}") from exc
    return xml_to_model(payload)
