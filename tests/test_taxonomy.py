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
    parse_equipment_type,
    parse_status,
    quote,
    write_json,
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
    text = (tmp_path / "s" / "f.json").read_text(encoding="utf-8")
    assert text == (tmp_path / "w" / "f.json").read_text(encoding="utf-8")
    assert text == json.dumps({**head, "records": records}, sort_keys=True) + "\n"
    assert text.count("\n") == 1
    assert write_records(tmp_path / "e.json", {}, iter(records)) == n
    expected = json.dumps({"records": records}, sort_keys=True) + "\n"
    assert (tmp_path / "e.json").read_text(encoding="utf-8") == expected
