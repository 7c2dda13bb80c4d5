package workloads

import (
	"math"
	"math/rand"
	"testing"
)

// scriptedSource plays a script of Int63 values, then a seeded stream.
type scriptedSource struct {
	script []int64
	next   int
	rest   rand.Source
}

func (s *scriptedSource) Int63() int64 {
	if s.next < len(s.script) {
		s.next++
		return s.script[s.next-1]
	}
	return s.rest.Int63()
}

func (s *scriptedSource) Seed(int64) { panic("scriptedSource: Seed") }

// nearR appends the Int63 values around the one whose Float64 maps to ur = u
// under z, the three that come closest.
func nearR(dst []int64, z *zipfSampler, u float64) []int64 {
	i := int64((u - z.hxm) / z.hx0minusHxm * 0x1p63)
	for j := i - 1; j <= i+1; j++ {
		if j >= 0 && float64(j) < 0x1p63 {
			dst = append(dst, j)
		}
	}
	return dst
}

// edgeScript is the Int63 values that land on every guide-bucket edge of z and
// within ±4 ulps of every threshold its spans are cut from.
func edgeScript(z *zipfSampler) []int64 {
	var script []int64
	for b := range z.guide {
		script = nearR(script, z, z.hxm+float64(b)/z.buckets*z.hx0minusHxm)
	}
	thresholds := []float64{z.h(-0.5)}
	for k := range z.spans {
		kf := float64(k)
		thresholds = append(thresholds, z.h(kf+0.5), z.h(kf-z.s))
	}
	for _, t := range thresholds {
		u := t
		for range 4 {
			u = math.Nextafter(u, math.Inf(-1))
		}
		for range 9 {
			script = nearR(script, z, u)
			u = math.Nextafter(u, math.Inf(1))
		}
	}
	return script
}

// sameDraws draws n values (or until src's script is spent, for n < 0) from z
// and from rand.Zipf over the same stream, and fails at the first that differs
// or at the first draw after which they have consumed different amounts of
// it.
func sameDraws(t *testing.T, z *zipfSampler, src *scriptedSource, ref *rand.Zipf, refSrc *scriptedSource, n int) {
	t.Helper()
	for i := 0; n < 0 && src.next < len(src.script) || i < n; i++ {
		at := src.next
		if got, want := z.Uint64(), ref.Uint64(); got != want || src.next != refSrc.next {
			t.Fatalf("draw %d, from stream value %d on: %d after %d values, rand.Zipf %d after %d",
				i, at, got, src.next-at, want, refSrc.next-at)
		}
	}
}

// TestZipfSamplerMatchesMathRand is the tables' oracle: on Int63 values aimed
// at every guide-bucket edge and at every threshold to within ±4 ulps, and on
// 10 M seeded draws, the sampler returns what rand.Zipf returns and consumes
// what it consumes.
func TestZipfSamplerMatchesMathRand(t *testing.T) {
	const q, v = 1.07, 4.0
	for _, vocab := range []int{1, 2, 64, 300, 20000, 70000} {
		imax := uint64(vocab - 1)
		src := &scriptedSource{rest: rand.NewSource(7)}
		z := newZipfSampler(rand.New(src), q, v, imax, math.MaxInt32)
		src.script = edgeScript(z)
		refSrc := &scriptedSource{script: src.script, rest: rand.NewSource(7)}
		sameDraws(t, z, src, rand.NewZipf(rand.New(refSrc), q, v, imax), refSrc, -1)

		// The tables, not the exact step, must answer nearly every draw: ur is
		// uniform over its range, so the spans' share of it is theirs.
		covered := 0.0
		for _, sp := range z.spans {
			covered += max(sp.hi-sp.lo, 0)
		}
		if share := covered / -z.hx0minusHxm; share < 0.99 {
			t.Errorf("vocab %d: the spans cover %.4f of ur's range, want at least 0.99", vocab, share)
		}
	}

	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	for i, c := range []struct {
		vocab int
		seed  int64
		share float64 // of the draws
		built int     // the draws the sampler is built for
	}{
		{20000, 1, 0.4, draws}, {20000, 2, 0.3, draws}, {300, 3, 0.1, draws}, {70000, 4, 0.1, draws},
		{1, 5, 0.05, draws}, {64, 6, 0.04, draws}, {1 << 20, 7, 0.01, 1000}, // tables off
	} {
		imax := uint64(c.vocab - 1)
		src := &scriptedSource{rest: rand.NewSource(c.seed)}
		refSrc := &scriptedSource{rest: rand.NewSource(c.seed)}
		z := newZipfSampler(rand.New(src), q, v, imax, c.built)
		if (z.spans == nil) != (c.built < 2*c.vocab) {
			t.Fatalf("case %d: tables built = %v for %d words and %d draws", i, z.spans != nil, c.vocab, c.built)
		}
		sameDraws(t, z, src, rand.NewZipf(rand.New(refSrc), q, v, imax), refSrc, int(c.share*float64(draws)))
	}
}
