package engine

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

// The wire encoder: /v1/query, /v1/mutate and /v1/query/batch answers are
// appended straight from *machine.Result into one pooled buffer, with no
// intermediate QueryResponse and no reflection. The bytes are exactly
// what encoding/json writes for the exported QueryResponse and
// BatchQueryResponse structs — those stay the documented schema, and the
// tests hold this file to json.Encoder's output of them byte for byte.
// A result-cache hit copies the bytes this encoder wrote for its entry's
// first hit (appendHit); every answer byte still comes from here.

// maxPooledBuf is the largest buffer putBuf keeps. One 64-member batch
// can grow a buffer to megabytes; dropping it keeps the pool from
// pinning that memory behind ordinary few-KiB answers.
const maxPooledBuf = 1 << 20

// bufPool holds the request-scoped byte buffers: a handler reads the
// body into one and, once the body is decoded, encodes the answer over it.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// errNonFinite reports a result row JSON has no number for. encoding/json
// refuses such a value too; the handlers answer it as an internal error.
var errNonFinite = errors.New("engine: result holds a NaN or infinite marker value")

// appendQueryResponse appends the QueryResponse object for res, without
// the trailing newline, resolving names under one KB read lock.
func (e *Engine) appendQueryResponse(dst []byte, prog *isa.Program, res *machine.Result, wall time.Duration) ([]byte, error) {
	dst = strconv.AppendInt(appendHead(dst, res), wall.Microseconds(), 10)
	return e.appendTail(dst, prog, res)
}

// appendHit appends the QueryResponse object for the result-cache entry
// a: its encoding, made by its first hit and kept, around wall.
func (e *Engine) appendHit(dst []byte, a *answer, wall time.Duration) ([]byte, error) {
	w := a.wire.Load()
	if w == nil {
		// Encode in dst's spare room, keep an exact copy. Two first hits
		// that race both encode; their bytes are equal, one is kept.
		enc := appendHead(dst, a.res)
		split := len(enc) - len(dst)
		enc, err := e.appendTail(enc, a.prog, a.res)
		if err != nil {
			return dst, err
		}
		w = &wireAnswer{b: bytes.Clone(enc[len(dst):]), split: split}
		a.wire.CompareAndSwap(nil, w)
	}
	dst = append(dst, w.b[:w.split]...)
	dst = strconv.AppendInt(dst, wall.Microseconds(), 10)
	return append(dst, w.b[w.split:]...), nil
}

// appendAnswer appends q's QueryResponse object, from its cache entry's
// bytes when one answered it.
func (e *Engine) appendAnswer(dst []byte, q *query, wall time.Duration) ([]byte, error) {
	if q.hit != nil {
		return e.appendHit(dst, q.hit, wall)
	}
	return e.appendQueryResponse(dst, q.prog, q.res, wall)
}

// appendHead appends a QueryResponse object up to its wall_us value.
func appendHead(dst []byte, res *machine.Result) []byte {
	dst = append(dst, `{"virtual_time":"`...)
	dst = res.Time.AppendTo(dst)
	dst = append(dst, `","virtual_ps":`...)
	dst = strconv.AppendInt(dst, int64(res.Time), 10)
	return append(dst, `,"wall_us":`...)
}

// appendTail appends a QueryResponse object from after its wall_us value.
func (e *Engine) appendTail(dst []byte, prog *isa.Program, res *machine.Result) ([]byte, error) {
	dst = append(dst, `,"collections":`...)
	if len(res.Collections) == 0 {
		dst = append(dst, "null"...)
	} else {
		var err error
		e.kb.View(func(names semnet.View) {
			dst, err = appendCollections(dst, names, res.Collections)
		})
		if err != nil {
			return dst, err
		}
	}
	dst = append(dst, `,"program_hash":"`...)
	dst = appendHash(dst, prog.Hash())
	dst = append(dst, `","instructions":`...)
	dst = strconv.AppendInt(dst, int64(prog.Len()), 10)
	if res.KBGen != 0 {
		dst = append(dst, `,"kb_generation":`...)
		dst = strconv.AppendUint(dst, res.KBGen, 10)
	}
	return append(dst, '}'), nil
}

func appendCollections(dst []byte, names semnet.View, colls []machine.Collection) ([]byte, error) {
	ok := true
	dst = append(dst, '[')
	for i := range colls {
		c := &colls[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"instr":`...)
		dst = strconv.AppendInt(dst, int64(c.Instr), 10)
		dst = append(dst, `,"op":`...)
		dst = appendString(dst, c.Op.String())
		if len(c.Items) == 0 {
			dst = append(dst, `,"items":null}`...)
			continue
		}
		dst = append(dst, `,"items":[`...)
		for j := range c.Items {
			it := &c.Items[j]
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"node":`...)
			dst = appendString(dst, names.CanonicalName(it.Node))
			switch c.Op {
			case isa.OpCollectRelation:
				dst = appendStringField(dst, `,"rel":`, names.RelationName(it.Rel))
				dst, ok = appendFloatField(dst, `,"weight":`, it.Weight)
				dst = appendStringField(dst, `,"to":`, names.CanonicalName(it.To))
			case isa.OpCollectColor:
				dst = appendStringField(dst, `,"color":`, names.ColorName(it.Color))
			default:
				dst, ok = appendFloatField(dst, `,"value":`, it.Value)
				dst = appendStringField(dst, `,"origin":`, names.CanonicalName(it.Origin))
			}
			if !ok {
				return dst, errNonFinite
			}
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, ']'), nil
}

// appendBatchResponse appends the BatchQueryResponse document, newline
// included. Element i is compileErrs[i] when that is set; the elements
// that compiled are answered, in order, by qs[j].
func (e *Engine) appendBatchResponse(dst []byte, compileErrs []error, qs []query, wall time.Duration) []byte {
	dst = append(dst, `{"results":[`...)
	j := 0
	for i, err := range compileErrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if err == nil {
			if err = qs[j].err; err == nil {
				dst, err = e.appendResultElement(dst, &qs[j], wall)
			}
			j++
		}
		if err != nil {
			dst = appendErrorElement(dst, err)
		}
	}
	return append(dst, "]}\n"...)
}

// appendResultElement appends the BatchElement {"result":<QueryResponse>},
// or nothing when the result cannot be encoded.
func (e *Engine) appendResultElement(dst []byte, q *query, wall time.Duration) ([]byte, error) {
	out, err := e.appendAnswer(append(dst, `{"result":`...), q, wall)
	if err != nil {
		return dst, err
	}
	return append(out, '}'), nil
}

// appendErrorElement appends the BatchElement carrying err's typed
// envelope body: {"error":{"code":…,"message":…,"retryable":…}}.
func appendErrorElement(dst []byte, err error) []byte {
	_, code, retryable := classify(err)
	dst = append(dst, `{"error":{"code":`...)
	dst = appendString(dst, code)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, err.Error())
	dst = append(dst, `,"retryable":`...)
	dst = strconv.AppendBool(dst, retryable)
	return append(dst, "}}"...)
}

// appendStringField appends key and s, or nothing when s is empty
// (the field is omitempty).
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// appendFloatField appends key and f, or nothing when f is zero (the
// field is omitempty). It reports false for a NaN or an infinity.
func appendFloatField(dst []byte, key string, f float32) ([]byte, bool) {
	if f == 0 {
		return dst, true
	}
	return appendFloat32(append(dst, key...), f)
}

// appendFloat32 appends f as encoding/json writes a float32: shortest
// digits that round-trip, positional unless the magnitude is below 1e-6
// or at least 1e21, and then with the exponent's leading zero dropped
// (1e-07 → 1e-7). It reports false, appending nothing, for a NaN or an
// infinity. Normal values take the Schubfach kernel (ftoa32.go); zero and
// the subnormals take strconv.
func appendFloat32(dst []byte, f float32) ([]byte, bool) {
	// Marker values are mostly small whole numbers (hop counts, summed
	// unit weights); float32 holds every integer below 2^24 exactly, so
	// its positional form is the integer's digits.
	if i := int32(f); float32(i) == f && i != 0 && -1<<24 < i && i < 1<<24 {
		return strconv.AppendInt(dst, int64(i), 10), true
	}
	abs := float32(math.Abs(float64(f)))
	if !(abs <= math.MaxFloat32) {
		return dst, false
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	if b := math.Float32bits(f); b>>23&0xff != 0 {
		return appendShortest32(dst, b, format), true
	}
	dst = strconv.AppendFloat(dst, float64(f), format, -1, 32)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// safeByte[b] reports whether appendString copies byte b as it is:
// printable ASCII (DEL included, as encoding/json has it) but for ", \,
// <, > and &.
var safeByte = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// appendString appends s as the JSON string encoding/json writes with
// its default HTML escaping: ", \ and the control bytes escaped (\b \f
// \n \r \t by name, the rest as \u00XX), <, > and & as \u00XX, U+2028
// and U+2029 as \u202X, each byte of invalid UTF-8 as the six
// characters \ufffd, and everything else verbatim.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is the pending run that needs no escaping
	for i := 0; i < len(s); {
		b := s[i]
		if safeByte[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendHash appends h as 16 lower-case hex digits.
func appendHash(dst []byte, h uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[h>>uint(shift)&0xf])
	}
	return dst
}
