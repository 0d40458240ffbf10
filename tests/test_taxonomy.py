import json

import pytest

from thermofault.taxonomy import (
    EQUIPMENT_TYPES,
    QUOTE_CHARS,
    STATUSES,
    SUBCATEGORIES,
    EquipmentType,
    Status,
    SubcategoryId,
    check_keys,
    encode_json,
    parse_equipment_type,
    parse_status,
    quote,
    read_scalar,
    write_json,
    write_lines,
    write_records,
)


def test_exactly_ten_subcategories():
    assert len(SUBCATEGORIES) == 10
    assert len(set(SUBCATEGORIES)) == 10


def test_equipment_type_strings():
    assert {t.value for t in EquipmentType} == {
        "transformer",
        "bushing",
        "voltage_transformer",
        "current_transformer",
        "arrester",
    }
    assert [s.value for s in Status] == ["normal", "fault"]


def test_index_formula():
    for subcat in SUBCATEGORIES:
        t = EQUIPMENT_TYPES.index(subcat.equipment_type)
        s = STATUSES.index(subcat.status)
        assert subcat.index == 2 * t + s


def test_sorting_follows_index():
    shuffled = list(SUBCATEGORIES[::-1])
    assert [c.index for c in sorted(shuffled)] == list(range(10))


def test_label():
    sub = SubcategoryId(EquipmentType.BUSHING, Status.FAULT)
    assert sub.label == "bushing:fault"


def test_parse_equipment_type():
    assert parse_equipment_type("arrester") is EquipmentType.ARRESTER
    with pytest.raises(ValueError):
        parse_equipment_type("capacitor")


def test_parse_status():
    assert parse_status("normal") is Status.NORMAL
    assert parse_status("fault") is Status.FAULT
    assert parse_status(None) is None
    with pytest.raises(ValueError):
        parse_status("broken")


def test_subcategory_dict_round_trip():
    for sub in SUBCATEGORIES:
        assert SubcategoryId.from_dict(sub.to_dict()) == sub
    assert SUBCATEGORIES[3].to_dict() == {"equipment_type": "bushing", "status": "fault"}
    with pytest.raises(ValueError, match="needs a status"):
        SubcategoryId.from_dict({"equipment_type": "bushing", "status": None})


def test_check_keys_names_unknown_and_missing_keys():
    d = {"alpha": 0.5}
    assert check_keys(d, ("alpha", "seed"), "config") is d
    with pytest.raises(ValueError, match="'alpah'"):
        check_keys({"alpah": 0.0}, ("alpha", "seed"), "config")
    with pytest.raises(ValueError, match="'seed'"):
        check_keys(d, ("alpha", "seed"), "config", required=("seed",))
    with pytest.raises(ValueError, match="JSON object"):
        check_keys([1, 2], ("alpha",), "config")


def test_check_keys_names_at_most_three_unknown_keys():
    allowed = ("alpha",)
    with pytest.raises(ValueError) as info:
        check_keys({"d": 0, "c": 0, "b": 0}, allowed, "config")
    assert str(info.value) == "unknown config key(s): 'b', 'c', 'd'; expected: alpha"
    with pytest.raises(ValueError) as info:
        check_keys({"e": 0, "d": 0, "c": 0, "b": 0, "alpha": 0}, allowed, "config")
    assert str(info.value) == "unknown config key(s): 'b', 'c', 'd' and 1 more; expected: alpha"


def test_quote_cuts_only_a_long_repr():
    for value in ("capacitor", None, [0.5, True], "x" * (QUOTE_CHARS - 2)):
        assert quote(value) == repr(value)
    text = "x" * (QUOTE_CHARS - 1)
    assert quote(text) == repr(text)[:QUOTE_CHARS] + "... (1 more characters)"
    records = [{"values": [0.125] * 128}] * 400
    assert quote(records) == repr(records)[:QUOTE_CHARS] + (
        f"... ({len(repr(records)) - QUOTE_CHARS} more characters)"
    )
    with pytest.raises(ValueError) as info:
        parse_status("y" * 10_000)
    assert str(info.value).startswith("unknown status 'yyy") and len(str(info.value)) < 300
    with pytest.raises(ValueError) as info:
        check_keys({"z" * 10_000: 0}, ("alpha",), "config")
    assert str(info.value).endswith("more characters); expected: alpha")


@pytest.mark.parametrize("n", [0, 1, 3])
def test_write_records_streams_the_bytes_of_write_json(tmp_path, n):
    records = [
        {"b": [1.5, -0.0, 1e-300], "a": {"z": None, "y": "s\u00e9"}, "i": i} for i in range(n)
    ]
    # a head key sorts before "records" or after it
    head = {"z": [2], "grid": {"n_points": 2, "t_lo": 0.0}}
    assert write_records(tmp_path / "s" / "f.json", head, iter(records)) == n
    write_json(tmp_path / "w" / "f.json", {**head, "records": records})
    data = (tmp_path / "s" / "f.json").read_bytes()
    assert data == (tmp_path / "w" / "f.json").read_bytes()
    record = '{"a":{"y":"s\u00e9","z":null},"b":[1.5,-0.0,1e-300],"i":%d}'
    text = '{"grid":{"n_points":2,"t_lo":0.0},"records":[%s],"z":[2]}\n'
    assert data == (text % ",".join(record % i for i in range(n))).encode("utf-8")
    assert data.count(b"\n") == 1
    assert write_records(tmp_path / "e.json", {}, iter(records)) == n
    expected = '{"records":[%s]}\n' % ",".join(record % i for i in range(n))
    assert (tmp_path / "e.json").read_bytes() == expected.encode("utf-8")


def test_write_json_writes_one_compact_sorted_line(tmp_path):
    """The artifact form: no spaces, sorted keys, raw UTF-8, shortest
    round-trip floats with bare exponents, NaN and the infinities as null,
    one final newline."""
    doc = {
        "\u00e9": "s\u00e9", "b": [2.4450711788890764e-7, 6.758318023151695e-05, 1e16, 100.0],
        "a": [float("nan"), float("inf"), -0.0], "n": [None, True, "a\\"],
        "i": [2**64 - 1, -(2**63)],
    }
    want = (
        '{"a":[null,null,-0.0],"b":[2.4450711788890764e-7,0.00006758318023151695,1e16,100.0],'
        '"i":[18446744073709551615,-9223372036854775808],"n":[null,true,"a\\\\"],"\u00e9":"s\u00e9"}\n'
    ).encode("utf-8")
    assert write_json(tmp_path / "d" / "f.json", doc) == want
    assert (tmp_path / "d" / "f.json").read_bytes() == want
    assert encode_json(doc) + b"\n" == want


def test_write_lines_writes_one_compact_line_per_record(tmp_path):
    assert write_lines(tmp_path / "p.jsonl", iter([{"b": 1, "a": [0.1]}, {}])) == 2
    assert (tmp_path / "p.jsonl").read_bytes() == b'{"a":[0.1],"b":1}\n{}\n'
    assert write_lines(tmp_path / "e.jsonl", iter([])) == 0
    assert (tmp_path / "e.jsonl").read_bytes() == b""


@pytest.mark.parametrize(
    "value", [2**64, -(2**63) - 1, "\ud800"], ids=["2**64", "-2**63-1", "surrogate"]
)
def test_the_encoder_refuses_what_read_scalar_rejects(value):
    """orjson refuses an integer past 64 bits and a lone surrogate, so every
    reader of such a scalar rejects it first, naming the key."""
    with pytest.raises(TypeError):
        encode_json({"k": value})
    kind = str if isinstance(value, str) else int
    with pytest.raises(ValueError, match="^region 'k' must be a "):
        read_scalar({"k": value}, "k", kind, "region")


def test_read_scalar_takes_every_64_bit_integer_and_paired_surrogates():
    for value in (2**63 - 1, -(2**63), 0):
        assert read_scalar({"k": value}, "k", int, "region") == value
    with pytest.raises(ValueError) as info:
        read_scalar({"k": 2**63}, "k", int, "region")
    assert str(info.value) == "region 'k' must be a 64-bit integer, got 9223372036854775808"
    # json.loads reads the escaped pair "\ud83d\ude00" as one character
    for text in (json.loads('"\\ud83d\\ude00"'), "\u00e9x", "plain"):
        assert read_scalar({"k": text}, "k", str, "region") == text
    with pytest.raises(ValueError) as info:
        read_scalar({"k": "a\udfff"}, "k", str, "region")
    assert str(info.value) == "region 'k' must be a string with no lone surrogate, got 'a\\udfff'"
