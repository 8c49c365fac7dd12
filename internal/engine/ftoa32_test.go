package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

var float32Sweep = flag.Bool("float32-sweep", false,
	"TestFloat32ShortestMatchesStrconv checks all 2^32 float32 bit patterns (minutes)")

// strconvFloat32 is appendFloat32 before the Schubfach kernel: strconv
// for every value that is not a small integer.
func strconvFloat32(dst []byte, f float32) ([]byte, bool) {
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
	dst = strconv.AppendFloat(dst, float64(f), format, -1, 32)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// float32Checker compares appendFloat32 with strconvFloat32, and with
// encoding/json when withJSON is set, for one bit pattern at a time.
type float32Checker struct {
	got, want  []byte
	withJSON   bool
	failures   []string // the first ten
	mismatches int
}

func (c *float32Checker) check(b uint32) {
	f := math.Float32frombits(b)
	var ok, wantOK bool
	c.got, ok = appendFloat32(c.got[:0], f)
	c.want, wantOK = strconvFloat32(c.want[:0], f)
	if ok != wantOK || !bytes.Equal(c.got, c.want) {
		c.fail(b, "strconv", c.want, wantOK, ok)
		return
	}
	if !c.withJSON {
		return
	}
	j, err := json.Marshal(f)
	if (err == nil) != ok || err == nil && !bytes.Equal(c.got, j) {
		c.fail(b, "encoding/json", j, err == nil, ok)
	}
}

func (c *float32Checker) fail(b uint32, ref string, want []byte, wantOK, ok bool) {
	c.mismatches++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, strconv.Quote(string(c.got))+" ok="+strconv.FormatBool(ok)+
			" for "+strconv.FormatUint(uint64(b), 16)+", "+ref+" "+strconv.Quote(string(want))+
			" ok="+strconv.FormatBool(wantOK))
	}
}

// TestFloat32ShortestMatchesStrconv holds the Schubfach kernel to the
// strconv path it replaced, and to encoding/json: every positive
// subnormal (they stay on strconv; a negative one is the same digits
// behind a '-'), the smallest and largest normal of each exponent, and
// every 4 099th bit pattern. -float32-sweep checks all 2^32 patterns
// against strconv instead, which takes minutes.
func TestFloat32ShortestMatchesStrconv(t *testing.T) {
	if *float32Sweep {
		n := sweepFloat32(t, 0, 1<<32, 1, false)
		t.Logf("all 2^32 float32 bit patterns checked: %d mismatches", n)
		return
	}
	sweepFloat32(t, 1, 1<<23, 1, false)
	sweepFloat32(t, 0, 1<<32, 4099, true)
	c := &float32Checker{withJSON: true}
	for _, sign := range []uint32{0, 1 << 31} {
		for be := uint32(1); be < 0xff; be++ {
			c.check(sign | be<<23)
			c.check(sign | be<<23 | (1<<23 - 1))
		}
	}
	for _, f := range c.failures {
		t.Error(f)
	}
}

// sweepFloat32 checks the bit patterns lo, lo+step, … below hi, spread
// over GOMAXPROCS goroutines, and returns how many mismatched.
func sweepFloat32(t *testing.T, lo, hi, step uint64, withJSON bool) int {
	workers := uint64(runtime.GOMAXPROCS(0))
	checkers := make([]*float32Checker, workers)
	var wg sync.WaitGroup
	for w := range checkers {
		c := &float32Checker{withJSON: withJSON}
		checkers[w] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := lo + uint64(w)*step; b < hi; b += workers * step {
				c.check(uint32(b))
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, c := range checkers {
		for _, f := range c.failures {
			t.Error(f)
		}
		n += c.mismatches
	}
	return n
}
