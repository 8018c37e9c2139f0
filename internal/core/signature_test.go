package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cost"
)

// legacyFingerprint is the string-concatenating cost.Fingerprint that
// signatures were first built with, kept verbatim as the oracle for the
// append-based one: signatures key the durable plan WAL, so a single
// changed byte would orphan every stored plan.
func legacyFingerprint(f cost.Function) (string, bool) {
	switch cf := f.(type) {
	case cost.Linear:
		return "lin(" + legacyHexFloat(cf.PerItem) + ")", true
	case cost.Affine:
		if cf.Fixed == 0 {
			return "lin(" + legacyHexFloat(cf.PerItem) + ")", true
		}
		return "aff(" + legacyHexFloat(cf.Fixed) + "," + legacyHexFloat(cf.PerItem) + ")", true
	case cost.Table:
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range cf.Values {
			legacyPutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		inc := "g"
		if cf.Increasing {
			inc = "i"
		}
		return "tab(" + inc + "," + strconv.Itoa(len(cf.Values)) + "," +
			strconv.FormatUint(h.Sum64(), 16) + ")", true
	case cost.PiecewiseLinear:
		h := fnv.New64a()
		var buf [8]byte
		for _, bp := range cf.Points {
			legacyPutUint64(buf[:], uint64(int64(bp.X)))
			h.Write(buf[:])
			legacyPutUint64(buf[:], math.Float64bits(bp.Y))
			h.Write(buf[:])
		}
		return "pwl(" + strconv.Itoa(len(cf.Points)) + "," +
			strconv.FormatUint(h.Sum64(), 16) + ")", true
	case cost.Sum:
		parts := make([]string, len(cf.Terms))
		for i, t := range cf.Terms {
			fp, ok := legacyFingerprint(t)
			if !ok {
				return "", false
			}
			parts[i] = fp
		}
		return "sum(" + strings.Join(parts, ",") + ")", true
	case cost.Scaled:
		fp, ok := legacyFingerprint(cf.F)
		if !ok {
			return "", false
		}
		return "scl(" + legacyHexFloat(cf.Factor) + "," + fp + ")", true
	case cost.Classified:
		fp, ok := legacyFingerprint(cf.F)
		if !ok {
			return "", false
		}
		return "cls(" + strconv.Itoa(int(cf.C)) + "," + fp + ")", true
	default:
		return "", false
	}
}

func legacyHexFloat(v float64) string {
	return strconv.FormatFloat(v, 'x', -1, 64)
}

func legacyPutUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// legacyFingerprints and legacyPlatformSignature are the old
// per-processor fingerprints and their ";" join.
func legacyFingerprints(procs []Processor) []string {
	fps := make([]string, len(procs))
	for i, pr := range procs {
		cm, ok1 := legacyFingerprint(pr.Comm)
		cp, ok2 := legacyFingerprint(pr.Comp)
		if ok1 && ok2 {
			fps[i] = cm + "|" + cp
		}
	}
	return fps
}

func legacyPlatformSignature(procs []Processor) (string, bool) {
	if PlatformClass(procs) == cost.General {
		return "", false
	}
	fps := legacyFingerprints(procs)
	for _, fp := range fps {
		if fp == "" {
			return "", false
		}
	}
	return strings.Join(fps, ";"), true
}

// randomSigFloat draws a non-negative cost constant, sometimes an exact
// zero (the Affine-to-Linear normalization) or a subnormal.
func randomSigFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	default:
		return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(12)-8))
	}
}

// randomSigFunction draws a Linear, Affine, Table, PiecewiseLinear or
// Sum cost (Sums nest up to depth levels), occasionally wrapped in
// Scaled or Classified, or an opaque Func.
func randomSigFunction(rng *rand.Rand, depth int) cost.Function {
	var f cost.Function
	switch k := rng.Intn(5); {
	case k == 0:
		f = cost.Linear{PerItem: randomSigFloat(rng)}
	case k == 1:
		f = cost.Affine{Fixed: randomSigFloat(rng), PerItem: randomSigFloat(rng)}
	case k == 2:
		vals := make([]float64, 1+rng.Intn(12))
		for i := 1; i < len(vals); i++ {
			vals[i] = vals[i-1] + randomSigFloat(rng)
		}
		f = cost.Table{Values: vals, Increasing: rng.Intn(2) == 0}
	case k == 3:
		pts := make([]cost.Breakpoint, 1+rng.Intn(6))
		x, y := 0, 0.0
		for i := range pts {
			x += 1 + rng.Intn(1000)
			y += randomSigFloat(rng)
			pts[i] = cost.Breakpoint{X: x, Y: y}
		}
		f = cost.PiecewiseLinear{Points: pts}
	case depth > 0:
		terms := make([]cost.Function, 1+rng.Intn(3))
		for i := range terms {
			terms[i] = randomSigFunction(rng, depth-1)
		}
		f = cost.Sum{Terms: terms}
	default:
		f = cost.Linear{PerItem: randomSigFloat(rng)}
	}
	switch rng.Intn(20) {
	case 0:
		f = cost.Scaled{Factor: randomSigFloat(rng), F: f}
	case 1:
		f = cost.Classified{C: cost.Class(rng.Intn(3)), F: f}
	case 2:
		f = cost.Func(func(x int) float64 { return float64(x) })
	}
	return f
}

// TestPlatformSignatureMatchesLegacy pins the one-buffer signature
// byte-for-byte to the string-concatenating oracle over random
// platforms, together with the per-processor fingerprints and
// cost.Fingerprint itself.
func TestPlatformSignatureMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	fingerprintable := 0
	for trial := 0; trial < 2000; trial++ {
		procs := make([]Processor, 1+rng.Intn(8))
		for i := range procs {
			procs[i] = Processor{
				Name: "p" + strconv.Itoa(i),
				Comm: randomSigFunction(rng, 2),
				Comp: randomSigFunction(rng, 2),
			}
			for _, f := range []cost.Function{procs[i].Comm, procs[i].Comp} {
				got, gok := cost.Fingerprint(f)
				want, wok := legacyFingerprint(f)
				if got != want || gok != wok {
					t.Fatalf("trial %d: cost.Fingerprint(%#v) = %q, %v; legacy %q, %v", trial, f, got, gok, want, wok)
				}
			}
		}
		got, gok := PlatformSignature(procs)
		want, wok := legacyPlatformSignature(procs)
		if got != want || gok != wok {
			t.Fatalf("trial %d: PlatformSignature = %q, %v; legacy %q, %v", trial, got, gok, want, wok)
		}
		if gok {
			fingerprintable++
		}
		gfps, wfps := fingerprints(procs), legacyFingerprints(procs)
		for i := range wfps {
			if gfps[i] != wfps[i] {
				t.Fatalf("trial %d: fingerprints[%d] = %q, legacy %q", trial, i, gfps[i], wfps[i])
			}
		}
	}
	// The draw must exercise both outcomes, not only opaque platforms.
	if fingerprintable < 200 || fingerprintable > 1800 {
		t.Fatalf("%d of 2000 random platforms fingerprintable; the generator lost a stratum", fingerprintable)
	}
}

// BenchmarkPlatformSignature times the signature of a 16-processor
// linear platform, the shape scatterd computes on every plan request.
func BenchmarkPlatformSignature(b *testing.B) {
	procs := make([]Processor, 16)
	for i := range procs {
		procs[i] = Processor{
			Comm: cost.Affine{Fixed: 1e-3 * float64(i), PerItem: 1e-5 * float64(i+1)},
			Comp: cost.Linear{PerItem: 0.004 + 1e-4*float64(i)},
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := PlatformSignature(procs); !ok {
			b.Fatal("no signature")
		}
	}
}
