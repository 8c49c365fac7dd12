package engine

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The request decoder: JSON bodies of /v1/query, /v1/mutate and
// /v1/query/batch are scanned once, in place, into QueryRequest and
// BatchQueryRequest, with no reflection. It accepts, rejects and decodes
// exactly what json.Unmarshal does for those two structs
// (FuzzDecodeQueryRequest and FuzzDecodeBatchRequest hold it to that),
// including the rules a hand-written reader tends to miss:
//
//   - a key names a field exactly or under Unicode case folding
//     ("PROGRAM", "Program", and "programſ" for "programs"), the last
//     duplicate wins, and an unknown key's value is checked and skipped;
//   - null leaves a string or an integer as it was and sets a slice nil;
//     a duplicate "programs" decodes over the slice the first one left,
//     so a null member keeps what the earlier array had in its place;
//   - \u escapes pair surrogates; a lone surrogate and each byte of
//     invalid UTF-8 decode to U+FFFD; a raw control byte is refused;
//   - timeout_ms takes an integer literal that fits an int, and nothing
//     else (not 1.5, not 1e3);
//   - containers nest at most 10 000 deep, and nothing but white space
//     may follow the document.
//
// Error messages follow encoding/json's wording; clients branch on the
// envelope's code, not on them.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// decoder is one pass over a request body.
type decoder struct {
	b      []byte
	i      int   // next byte to read
	depth  int   // containers open at i
	syntax error // the first syntax error; the scan stops at it
	typ    error // the first type error; the scan goes on, as encoding/json's does
}

// decodeQueryRequest is json.Unmarshal(b, req).
func decodeQueryRequest(b []byte, req *QueryRequest) error {
	d := decoder{b: b}
	var kb [32]byte
	if d.object("engine.QueryRequest") {
		for first := true; d.more('}', first); first = false {
			switch key := d.key(kb[:0]); {
			case keyIs(key, "program", "PROGRAM"):
				d.stringInto(&req.Program, "QueryRequest.program")
			case keyIs(key, "timeout_ms", "TIMEOUT_MS"):
				d.intInto(&req.TimeoutMillis, "QueryRequest.timeout_ms")
			default:
				d.skip()
			}
		}
	}
	return d.finish()
}

// decodeBatchRequest is json.Unmarshal(b, req).
func decodeBatchRequest(b []byte, req *BatchQueryRequest) error {
	d := decoder{b: b}
	var kb [32]byte
	if d.object("engine.BatchQueryRequest") {
		for first := true; d.more('}', first); first = false {
			switch key := d.key(kb[:0]); {
			case keyIs(key, "programs", "PROGRAMS"):
				d.stringsInto(&req.Programs, "BatchQueryRequest.programs")
			case keyIs(key, "timeout_ms", "TIMEOUT_MS"):
				d.intInto(&req.TimeoutMillis, "BatchQueryRequest.timeout_ms")
			default:
				d.skip()
			}
		}
	}
	return d.finish()
}

// object starts the document, which decodes into a struct: it reports
// true when the document is an object, whose members the caller then
// reads. A null document decodes to nothing; anything else is a type
// error.
func (d *decoder) object(goType string) bool {
	switch d.ws() {
	case '{':
		d.open()
		return true
	case 'n':
		d.literal("null")
	default:
		d.mismatch("Go value of type " + goType)
	}
	return false
}

// finish checks that only white space follows the document and reports
// the error json.Unmarshal would: a syntax error anywhere before a type
// error.
func (d *decoder) finish() error {
	if d.ws(); d.syntax == nil && d.i < len(d.b) {
		d.fail("after top-level value")
	}
	if d.syntax != nil {
		return d.syntax
	}
	return d.typ
}

// ws skips white space and returns the next byte, or 0 at the end of
// the body or after a syntax error. A 0 byte in the body reads as 0 too,
// and is refused like the end, by whichever check comes next.
func (d *decoder) ws() byte {
	if d.syntax != nil {
		return 0
	}
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// fail records a syntax error at d.i: an unexpected byte there (context
// says what was being read) or the end of the body.
func (d *decoder) fail(context string) {
	if d.syntax != nil {
		return
	}
	if d.i >= len(d.b) {
		d.syntax = fmt.Errorf("unexpected end of JSON input")
		return
	}
	d.syntax = fmt.Errorf("invalid character %s %s (offset %d)", quoteChar(d.b[d.i]), context, d.i)
}

// quoteChar formats c as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	if c == '\'' {
		return `'\''`
	}
	if c == '"' {
		return `'"'`
	}
	s := strconv.Quote(string(c))
	return "'" + s[1:len(s)-1] + "'"
}

// open enters the container whose opening byte is at d.i.
func (d *decoder) open() {
	if d.depth++; d.depth > maxDepth {
		d.syntax = fmt.Errorf("exceeded max depth (offset %d)", d.i)
		return
	}
	d.i++
}

// more reads up to the next member of the container opened last, whose
// closing byte is close: it reports whether there is one. first says no
// member has been read yet (only then may the container close at once).
func (d *decoder) more(close byte, first bool) bool {
	c := d.ws()
	if c == close {
		d.i++
		d.depth--
		return false
	}
	switch {
	case d.syntax != nil:
		return false
	case first:
		if close == ']' {
			return true
		}
		if c != '"' {
			d.fail("looking for beginning of object key string")
			return false
		}
		return true
	case c != ',':
		if close == '}' {
			d.fail("after object key:value pair")
		} else {
			d.fail("after array element")
		}
		return false
	}
	d.i++
	if close == '}' && d.ws() != '"' {
		d.fail("looking for beginning of object key string")
		return false
	}
	return true
}

// key reads an object key and its colon, and returns the decoded key
// (see str).
func (d *decoder) key(dst []byte) []byte {
	k := d.str(dst)
	if d.ws() != ':' {
		d.fail("after object key")
		return nil
	}
	d.i++
	return k
}

// keyIs reports whether key names the field called name, whose folded
// form is folded: the exact name, or one equal to it under the folding
// encoding/json matches with (ASCII upper case, and for any other rune
// the least rune of its simple case-folding orbit).
func keyIs(key []byte, name, folded string) bool {
	if string(key) == name {
		return true
	}
	j := 0
	for i := 0; i < len(key); j++ {
		c := key[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			i++
		} else {
			r, n := utf8.DecodeRune(key[i:])
			if r = foldRune(r); r >= utf8.RuneSelf {
				return false // folded is ASCII
			}
			c = byte(r)
			i += n
		}
		if j >= len(folded) || folded[j] != c {
			return false
		}
	}
	return j == len(folded)
}

// foldRune is the least rune of r's simple case-folding orbit.
func foldRune(r rune) rune {
	for {
		f := unicode.SimpleFold(r)
		if f <= r {
			return f
		}
		r = f
	}
}

// stringInto decodes a value into a string field.
func (d *decoder) stringInto(dst *string, field string) {
	switch d.ws() {
	case '"':
		// Room to decode a typical program's escapes on the stack: the
		// string is then the one allocation.
		var buf [512]byte
		*dst = string(d.str(buf[:0]))
	case 'n':
		d.literal("null")
	default:
		d.mismatch("Go struct field " + field + " of type string")
	}
}

// stringsInto decodes a value into a []string field the way
// encoding/json decodes into a slice: over the elements already there.
func (d *decoder) stringsInto(dst *[]string, field string) {
	switch d.ws() {
	case '[':
		d.open()
	case 'n':
		d.literal("null")
		*dst = nil
		return
	default:
		d.mismatch("Go struct field " + field + " of type []string")
		return
	}
	s, n := *dst, 0
	for first := true; d.more(']', first); first = false {
		if n == cap(s) {
			s = append(s, "")
		}
		s = s[:max(len(s), n+1)]
		d.stringInto(&s[n], field)
		n++
	}
	if n == 0 {
		s = []string{}
	}
	*dst = s[:n]
}

// intInto decodes a value into an int field: an integer literal that
// fits, or null.
func (d *decoder) intInto(dst *int, field string) {
	switch c := d.ws(); {
	case c == '-' || '0' <= c && c <= '9':
		lit := d.number()
		if d.syntax != nil {
			return
		}
		if v, ok := parseInt(lit); ok {
			*dst = v
		} else if d.typ == nil {
			d.typ = fmt.Errorf("json: cannot unmarshal number %s into Go struct field %s of type int", lit, field)
		}
	case c == 'n':
		d.literal("null")
	default:
		d.mismatch("Go struct field " + field + " of type int")
	}
}

// parseInt is strconv.ParseInt(lit, 10, 0) over a JSON number literal:
// false for a fraction, an exponent or a value out of an int's range.
func parseInt(lit []byte) (int, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var v uint64
	for _, c := range lit {
		if c < '0' || c > '9' || v > (limit-uint64(c-'0'))/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		return int(-v), true
	}
	return int(v), true
}

// mismatch records a type error for the value at d.i, which decodes into
// target, and skips the value.
func (d *decoder) mismatch(target string) {
	var kind string
	switch c := d.ws(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	}
	if kind != "" && d.typ == nil {
		d.typ = fmt.Errorf("json: cannot unmarshal %s into %s", kind, target)
	}
	d.skip()
}

// skip checks and consumes one value of any shape.
func (d *decoder) skip() {
	var buf [32]byte
	switch c := d.ws(); {
	case c == '{':
		d.open()
		for first := true; d.more('}', first); first = false {
			d.key(buf[:0])
			d.skip()
		}
	case c == '[':
		d.open()
		for first := true; d.more(']', first); first = false {
			d.skip()
		}
	case c == '"':
		d.str(buf[:0])
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	default:
		d.fail("looking for beginning of value")
	}
}

// literal consumes the literal word at d.i.
func (d *decoder) literal(word string) {
	for j := 0; j < len(word); j++ {
		if d.i >= len(d.b) || d.b[d.i] != word[j] {
			d.fail("in literal " + word)
			return
		}
		d.i++
	}
}

// number consumes the number literal at d.i and returns its bytes:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() []byte {
	start := d.i
	if d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.digit() && d.b[d.i] == '0':
		d.i++
	case d.digit():
		d.digits()
	default:
		d.fail("in numeric literal")
		return nil
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if !d.digit() {
			d.fail("after decimal point in numeric literal")
			return nil
		}
		d.digits()
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digit() {
			d.fail("in exponent of numeric literal")
			return nil
		}
		d.digits()
	}
	return d.b[start:d.i]
}

func (d *decoder) digit() bool { return d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' }

func (d *decoder) digits() {
	for d.digit() {
		d.i++
	}
}

// str consumes the string literal whose opening quote is at d.i and
// returns its decoded bytes: a slice of the body when the literal is
// plain text, else dst with them appended.
func (d *decoder) str(dst []byte) []byte {
	if d.ws() != '"' {
		d.fail("looking for beginning of object key string")
		return nil
	}
	start := d.i + 1
	i := start
	for i < len(d.b) {
		c := d.b[i]
		if c == '"' {
			d.i = i + 1
			return d.b[start:i]
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, n := utf8.DecodeRune(d.b[i:])
		if r == utf8.RuneError && n == 1 {
			break
		}
		i += n
	}
	out := append(dst, d.b[start:i]...)
	for {
		if i >= len(d.b) {
			d.i = i
			d.fail("")
			return nil
		}
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			return out
		case c < ' ':
			d.i = i
			d.fail("in string literal")
			return nil
		case c == '\\':
			i++
			if i >= len(d.b) {
				d.i = i
				d.fail("")
				return nil
			}
			switch e := d.b[i]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.b[i+1:])
				if r < 0 {
					// Find the offending digit for the message.
					for d.i = i + 1; d.i < len(d.b) && d.i < i+5 && isHex(d.b[d.i]); d.i++ {
					}
					d.fail(`in \u hexadecimal character escape`)
					return nil
				}
				i += 4
				if utf16.IsSurrogate(r) {
					if next := i + 1; next+1 < len(d.b) && d.b[next] == '\\' && d.b[next+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(d.b[next+2:])); dec != utf8.RuneError {
							out = utf8.AppendRune(out, dec)
							i += 6 + 1
							continue
						}
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
			default:
				d.i = i
				d.fail("in string escape code")
				return nil
			}
			i++
		case c < utf8.RuneSelf:
			j := i + 1
			for j < len(d.b) && ' ' <= d.b[j] && d.b[j] < utf8.RuneSelf && d.b[j] != '"' && d.b[j] != '\\' {
				j++
			}
			out = append(out, d.b[i:j]...)
			i = j
		default:
			r, n := utf8.DecodeRune(d.b[i:])
			if r == utf8.RuneError && n == 1 {
				out = utf8.AppendRune(out, utf8.RuneError)
			} else {
				out = append(out, d.b[i:i+n]...)
			}
			i += n
		}
	}
}

// hex4 is the value of the four hex digits b starts with, or -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
