package cost

import (
	"hash/fnv"
	"math"
	"strconv"
)

// Fingerprint returns a canonical string identifying the exact numeric
// behaviour of f, and whether such a string exists. Two functions with
// equal fingerprints evaluate bit-identically at every item count, so
// fingerprints are safe keys for memoizing DP rows across solves (see
// core.Plan): reusing a row computed under an equal fingerprint cannot
// change a single bit of the result.
//
// Only the structural cost types of this package are fingerprintable.
// Opaque functions (Func, or any foreign implementation) return
// ("", false); callers must then fall back to a fresh solve, since two
// closures cannot be proven equal.
//
// Normalizations are applied only when they provably preserve every
// Eval result bit-for-bit: an Affine with a zero Fixed part
// fingerprints as the equivalent Linear (0 + a·x == a·x exactly in
// IEEE-754 for the non-negative values the cost model allows, and both
// types tabulate through the same closed form).
func Fingerprint(f Function) (string, bool) {
	b, ok := AppendFingerprint(nil, f)
	if !ok {
		return "", false
	}
	return string(b), true
}

// AppendFingerprint appends f's Fingerprint to b and reports whether f
// has one; when it has none, b is returned unchanged. Callers that
// join many fingerprints (core.PlatformSignature) build them in one
// buffer this way instead of concatenating intermediate strings.
func AppendFingerprint(b []byte, f Function) ([]byte, bool) {
	switch cf := f.(type) {
	case Linear:
		return appendHexFloat(append(b, "lin("...), cf.PerItem, ')'), true
	case Affine:
		if cf.Fixed == 0 {
			return appendHexFloat(append(b, "lin("...), cf.PerItem, ')'), true
		}
		b = appendHexFloat(append(b, "aff("...), cf.Fixed, ',')
		return appendHexFloat(b, cf.PerItem, ')'), true
	case Table:
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range cf.Values {
			putUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		inc := byte('g')
		if cf.Increasing {
			inc = 'i'
		}
		b = append(append(b, "tab("...), inc, ',')
		b = append(strconv.AppendInt(b, int64(len(cf.Values)), 10), ',')
		return append(strconv.AppendUint(b, h.Sum64(), 16), ')'), true
	case PiecewiseLinear:
		h := fnv.New64a()
		var buf [8]byte
		for _, bp := range cf.Points {
			putUint64(buf[:], uint64(int64(bp.X)))
			h.Write(buf[:])
			putUint64(buf[:], math.Float64bits(bp.Y))
			h.Write(buf[:])
		}
		b = append(strconv.AppendInt(append(b, "pwl("...), int64(len(cf.Points)), 10), ',')
		return append(strconv.AppendUint(b, h.Sum64(), 16), ')'), true
	case Sum:
		out := append(b, "sum("...)
		for i, t := range cf.Terms {
			if i > 0 {
				out = append(out, ',')
			}
			var ok bool
			if out, ok = AppendFingerprint(out, t); !ok {
				return b, false
			}
		}
		return append(out, ')'), true
	case Scaled:
		out, ok := AppendFingerprint(appendHexFloat(append(b, "scl("...), cf.Factor, ','), cf.F)
		if !ok {
			return b, false
		}
		return append(out, ')'), true
	case Classified:
		out := append(strconv.AppendInt(append(b, "cls("...), int64(cf.C), 10), ',')
		out, ok := AppendFingerprint(out, cf.F)
		if !ok {
			return b, false
		}
		return append(out, ')'), true
	default:
		return b, false
	}
}

// appendHexFloat appends v exactly (hexadecimal mantissa, no rounding),
// so distinct float64 values never collide, followed by sep.
func appendHexFloat(b []byte, v float64, sep byte) []byte {
	return append(strconv.AppendFloat(b, v, 'x', -1, 64), sep)
}

// putUint64 writes v little-endian into b[:8]; a local helper so the
// package keeps its tiny dependency footprint.
func putUint64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
