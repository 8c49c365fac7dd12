package engine

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// decodeShapes are request bodies that reach every rule of the decoder:
// escapes and surrogates, invalid UTF-8, folded and duplicate keys, null,
// the integer rule of timeout_ms, unknown keys of every shape, nesting,
// and what may follow the document. Each is a seed of both fuzz targets.
var decodeShapes = []string{
	`{"program":"search-node node=a marker=c1 value=0\ncollect-node marker=c1\n","timeout_ms":50}`,
	`{"programs":["collect-node marker=c1","set-marker marker=c1 value=1"],"timeout_ms":0}`,
	` { "program" : "x" , "timeout_ms" : 7 } ` + "\t\r\n",
	`{"program":"\"\\\/\b\f\n\r\t\u0041\u00e9\u4E16é世\u0000"}`,
	`{"program":"\ud83d\ude00 pair, \ud83d lone high, \ude00 lone low, \ud83dA high then A, \ud800𐀀 high then raw"}`,
	`{"program":"\uD83D\uDE00 upper-case hex, \ud83d\ud83d\ude00 high high low, \udbff\udfff last, \ud83d\u12"}`,
	"{\"program\":\"bad\xffutf\xc3 and \xed\xa0\x80 encoded surrogate, \xef\xbf\xbd real U+FFFD\"}",
	"{\"program\":\"raw\x01control\"}",
	"{\"program\":\"raw\ttab\"}",
	`{"program":"bad escape \x"}`,
	`{"program":"short \u12"}`,
	`{"program":"short \u12G4"}`,
	`{"PROGRAM":"upper","Timeout_MS":5}`,
	`{"Program":"title","TIMEOUT_ms":6}`,
	"{\"programſ\":[\"long s\"],\"program\\u017f\":[\"as escape\"],\"\\u212a\":1}",
	"{\"PROGRAMK\":\"kelvin\",\"tımeout_ms\":1,\"tİmeout_ms\":2,\"timeout_mſ\":3}",
	`{"Programs":["a"],"PROGRAMS":["b","c"]}`,
	`{"\u0070rogram":"escaped key","timeout\u005fms":9,"PROGRAM\/":"not a key"}`,
	`{"program":"first","program":"second","timeout_ms":1,"timeout_ms":2}`,
	`{"program":"kept","program":null,"timeout_ms":3,"timeout_ms":null}`,
	`{"programs":["a","b","c"],"programs":["x"],"programs":[null,null,null]}`,
	`{"programs":["a","b"],"programs":null}`,
	`{"programs":["a"],"programs":[]}`,
	`{"programs":[null,"a",null]}`,
	`{"programs":[]}`,
	`{"programs":null}`,
	`null`,
	` null `,
	`{}`,
	`{"program":null}`,
	`{"timeout_ms":1.5}`,
	`{"timeout_ms":1e3}`,
	`{"timeout_ms":1E+3}`,
	`{"timeout_ms":-0}`,
	`{"timeout_ms":-9223372036854775808}`,
	`{"timeout_ms":9223372036854775807}`,
	`{"timeout_ms":9223372036854775808}`,
	`{"timeout_ms":-9223372036854775809}`,
	`{"timeout_ms":99999999999999999999999}`,
	`{"timeout_ms":01}`,
	`{"timeout_ms":-}`,
	`{"timeout_ms":1.}`,
	`{"timeout_ms":1e}`,
	`{"timeout_ms":+1}`,
	`{"timeout_ms":"5"}`,
	`{"timeout_ms":true}`,
	`{"program":7}`,
	`{"program":["a"]}`,
	`{"program":{"a":1}}`,
	`{"program":false}`,
	`{"programs":"a"}`,
	`{"programs":[1]}`,
	`{"programs":[["a"]]}`,
	`{"programs":{"0":"a"}}`,
	`{"unknown":{"a":[1,2.5e-3,{"b":null}],"c":[true,false,"é"]},"program":"after"}`,
	`{"unknown":[[[[[]]]]],"programs":["after"]}`,
	`{"unknown":tru}`,
	`{"unknown":nul}`,
	`{"unknown":[1,]}`,
	`{"unknown":{"a":1,}}`,
	`{"unknown":{"a"}}`,
	`{"unknown" 1}`,
	`{"program":"x",}`,
	`{,"program":"x"}`,
	`{"program":"x"`,
	`{"program":"x`,
	`{"program":"x"} trailing`,
	`{"program":"x"}{"program":"y"}`,
	`{"program":"x"}]`,
	"\xef\xbb\xbf{\"program\":\"bom\"}",
	`[]`,
	`["program"]`,
	`"program"`,
	`7`,
	`true`,
	``,
	`   `,
	`{"a":1} `,
	`{'program':'x'}`,
	`{program:"x"}`,
	"{\"program\":\"x\"}\x00",
	"{\"program\":\"x\"\x00}",
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	`{"u":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"program":"depth 10000"}`,
	`{"u":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"program":"depth 10001"}`,
}

// checkDecode holds one body's decode to json.Unmarshal's: the same
// verdict, and when both accept, equal values (nil and empty slices
// told apart).
func checkDecode[T any](t *testing.T, body []byte, decode func([]byte, *T) error) {
	t.Helper()
	var want, got T
	werr := json.Unmarshal(body, &want)
	gerr := decode(body, &got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: encoding/json says %v, the decoder %v", body, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %#v, encoding/json %#v", body, got, want)
	}
}

// TestDecodeMatchesEncodingJSON runs every shape through both decoders
// and both request types.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, body := range decodeShapes {
		checkDecode(t, []byte(body), decodeQueryRequest)
		checkDecode(t, []byte(body), decodeBatchRequest)
	}
	// A decode error is a bad_request whatever its message; the message
	// says where.
	var req QueryRequest
	if err := decodeQueryRequest([]byte(`{"program":"x"} trailing`), &req); err == nil || !strings.Contains(err.Error(), "after top-level value") {
		t.Errorf("trailing garbage: %v", err)
	}
}

// TestDecodeAllocations: a {"program":"…"} body costs the program
// string and nothing else.
func TestDecodeAllocations(t *testing.T) {
	body := []byte(`{"program":"search-node node=a marker=c1 value=0\ncollect-node marker=c1\n","timeout_ms":50}`)
	var req QueryRequest
	if n := testing.AllocsPerRun(100, func() {
		if err := decodeQueryRequest(body, &req); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("decoding a query allocates %v times, want 1 (the program)", n)
	}
}

func FuzzDecodeQueryRequest(f *testing.F) {
	for _, body := range decodeShapes {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, decodeQueryRequest)
	})
}

func FuzzDecodeBatchRequest(f *testing.F) {
	for _, body := range decodeShapes {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, decodeBatchRequest)
	})
}
