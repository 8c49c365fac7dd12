package engine

import (
	"math/big"
	"math/bits"
)

// The shortest-digits kernel appendFloat32 uses for every finite normal
// float32 that is not a small integer: R. Giulietti's Schubfach ("The
// Schubfach way to render doubles", 2020), float32 width. It picks the
// same digits strconv.AppendFloat(…, -1, 32) does — the shortest decimal
// that rounds back, the closest such one, ties to even — for every
// normal bit pattern; zero and the subnormals stay on strconv, where a
// literal port would keep Java's two-digit minimum (1.4e-45 for 1e-45).

const (
	f32QMin = -149 // binary exponent of the smallest normal's ulp
	f32CMin = 1 << 23
	f32KMin = -45 // floor(f32QMin·log10 2)
	f32KMax = 31  // floor(104·log10 2), 104 the largest normal's exponent
)

// f32Pow10[k-f32KMin] is g1(k)+1: with 10^-k = β·2^r and 2^125 ≤ β <
// 2^126, the top 63 bits of ⌊β⌋+1, plus one — an over-approximation of
// 10^-k in 63 bits, which float32 needs and no more.
var f32Pow10 = func() (g [f32KMax - f32KMin + 1]uint64) {
	ten := big.NewInt(10)
	for k := f32KMin; k <= f32KMax; k++ {
		num, den := big.NewInt(1), big.NewInt(1)
		if k < 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		if e := 125 - flog2pow10(-k); e >= 0 {
			num.Lsh(num, uint(e))
		} else {
			den.Lsh(den, uint(-e))
		}
		num.Quo(num, den)
		num.Add(num, big.NewInt(1)).Rsh(num, 63)
		g[k-f32KMin] = num.Uint64() + 1
	}
	return g
}()

// flog10pow2 is ⌊e·log10 2⌋, flog10threeQuartersPow2 ⌊e·log10 2 +
// log10 ¾⌋ and flog2pow10 ⌊e·log2 10⌋, exact over the exponents used.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }
func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}
func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// roundToOdd is ⌊g·cp / 2^95⌋ with its last bit set when the product has
// any lower bit set.
func roundToOdd(g, cp uint64) uint64 {
	hi, _ := bits.Mul64(g, cp)
	return hi>>31 | (hi&(1<<32-1)+(1<<32-1))>>32
}

// shortest32 returns the shortest decimal d·10^k that rounds to the
// normal float32 whose biased exponent is be (1..254) and whose
// fraction bits are frac.
func shortest32(be, frac uint32) (d uint64, k int) {
	q := int(be) + f32QMin - 1
	c := uint64(f32CMin | frac)
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	if c != f32CMin || q == f32QMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// A power of two: the interval below is half the one above.
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 33)
	g := f32Pow10[k-f32KMin]
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h)
	vbr := roundToOdd(g, cbr<<h)

	// One digit fewer than s, when exactly one of its neighbours fits.
	s := vb >> 2
	if s >= 100 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both fit: the closer, and s on a tie when it is even.
	if cmp := int64(vb) - int64(s+t)<<1; cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendShortest32 appends the normal float32 with the given bits as
// strconv.AppendFloat(…, format, -1, 32) does, except that an 'e'
// exponent carries no leading zero (1e-7, not 1e-07), as encoding/json
// writes it.
func appendShortest32(dst []byte, b uint32, format byte) []byte {
	if b>>31 != 0 {
		dst = append(dst, '-')
	}
	d, k := shortest32(b>>23&0xff, b&(1<<23-1))
	for d%10 == 0 {
		d /= 10
		k++
	}
	// The digits of d, two at a time, right-aligned in buf.
	var buf [10]byte
	i := len(buf)
	for d >= 10 {
		p := d % 100 * 2
		d /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[p], digitPairs[p+1]
	}
	if d > 0 {
		i--
		buf[i] = byte('0' + d)
	}
	digits := buf[i:]
	dp := len(digits) + k // the decimal point sits after digit dp

	if format == 'e' {
		dst = append(dst, digits[0])
		if len(digits) > 1 {
			dst = append(dst, '.')
			dst = append(dst, digits[1:]...)
		}
		exp := dp - 1
		if exp < 0 {
			dst = append(dst, 'e', '-')
			exp = -exp
		} else {
			dst = append(dst, 'e', '+')
		}
		if exp >= 10 {
			return append(dst, digitPairs[exp*2], digitPairs[exp*2+1])
		}
		return append(dst, byte('0'+exp))
	}
	switch {
	case dp <= 0:
		dst = append(dst, '0', '.')
		for ; dp < 0; dp++ {
			dst = append(dst, '0')
		}
		return append(dst, digits...)
	case dp >= len(digits):
		dst = append(dst, digits...)
		for dp -= len(digits); dp > 0; dp-- {
			dst = append(dst, '0')
		}
		return dst
	}
	dst = append(dst, digits[:dp]...)
	dst = append(dst, '.')
	return append(dst, digits[dp:]...)
}
