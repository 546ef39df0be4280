"""Wire protocol: parsing, canonical encoding, structured error codes."""

import json

import pytest

from repro.service.protocol import (
    CONTROL_VERBS,
    E_BAD_REQUEST,
    E_UNKNOWN_VERB,
    ERROR_CODES,
    QUERY_VERBS,
    ProtocolError,
    Request,
    canonical_args,
    canonical_json,
    encode_error,
    encode_response,
    parse_request,
)


class TestParseRequest:
    def test_minimal_request(self):
        req = parse_request('{"verb": "topk"}')
        assert req.verb == "topk"
        assert req.args == {}
        assert req.request_id is None
        assert req.deadline_ms is None

    def test_full_request(self):
        req = parse_request(
            '{"verb": "node", "args": {"u": 3, "k": 5}, '
            '"id": "c-17", "deadline_ms": 250}'
        )
        assert req.verb == "node"
        assert req.args == {"u": 3, "k": 5}
        assert req.request_id == "c-17"
        assert req.deadline_ms == 250

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            "[1, 2, 3]",
            '"just a string"',
            "{}",
            '{"verb": 7}',
            '{"verb": "topk", "args": [1]}',
            '{"verb": "topk", "extra": true}',
            '{"verb": "topk", "deadline_ms": 0}',
            '{"verb": "topk", "deadline_ms": -5}',
            '{"verb": "topk", "deadline_ms": true}',
            '{"verb": "topk", "deadline_ms": "soon"}',
        ],
    )
    def test_malformed_requests_are_bad_request(self, line):
        with pytest.raises(ProtocolError) as err:
            parse_request(line)
        assert err.value.code == E_BAD_REQUEST

    def test_unknown_verb_has_its_own_code(self):
        with pytest.raises(ProtocolError) as err:
            parse_request('{"verb": "frobnicate"}')
        assert err.value.code == E_UNKNOWN_VERB
        # The message teaches the vocabulary.
        assert "topk" in str(err.value)

    def test_verbs_are_disjoint(self):
        assert not set(QUERY_VERBS) & set(CONTROL_VERBS)


class TestCanonicalEncoding:
    def test_one_byte_representation(self):
        a = canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
        b = canonical_json(json.loads(a))
        assert a == b
        assert " " not in a  # compact separators

    def test_request_key_ignores_arg_order(self):
        r1 = Request(verb="node", args={"u": 1, "k": 5})
        r2 = Request(verb="node", args={"k": 5, "u": 1})
        assert r1.key == r2.key
        assert r1.key == ("node", canonical_args({"k": 5, "u": 1}))

    def test_different_args_different_key(self):
        r1 = Request(verb="topk", args={"k": 5})
        r2 = Request(verb="topk", args={"k": 6})
        assert r1.key != r2.key

    def test_a_parsed_request_encodes_its_key_once(self, monkeypatch):
        """Admission, the cache and settlement each read the key; one
        request encodes its args once."""
        from repro.service import protocol

        encoded = []

        def counting(args):
            encoded.append(args)
            return canonical_args(args)

        monkeypatch.setattr(protocol, "canonical_args", counting)
        request = parse_request('{"verb":"node","args":{"u":1,"k":2}}')
        keys = {request.key for _ in range(6)}
        assert keys == {("node", '{"k":2,"u":1}')}
        assert len(encoded) == 1
        assert request == Request(verb="node", args={"u": 1, "k": 2})


class TestResponses:
    def test_response_envelope(self):
        line = encode_response("c1", version=3, stale=False, result={"x": 1})
        payload = json.loads(line)
        assert payload == {
            "id": "c1", "ok": True, "version": 3, "stale": False,
            "result": {"x": 1},
        }
        assert line == canonical_json(payload)

    def test_error_envelope(self):
        line = encode_error("c1", E_BAD_REQUEST, "nope")
        payload = json.loads(line)
        assert payload == {
            "id": "c1", "ok": False,
            "error": {"code": "bad_request", "message": "nope"},
        }

    def test_unknown_error_code_is_refused(self):
        with pytest.raises(ValueError):
            encode_error(None, "made_up_code", "boom")

    def test_error_codes_are_distinct(self):
        assert len(ERROR_CODES) == len(set(ERROR_CODES))
