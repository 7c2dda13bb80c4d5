package workloads

import (
	"math"
	"math/rand"
)

// zipfSampler draws exactly what rand.NewZipf(rng, q, v, imax).Uint64() draws,
// draw for draw, from the same rng.Float64() stream, without paying math/rand's
// Log and Exp on nearly every draw.
//
// math/rand's Zipf (Hörmann & Derflinger's rejection-inversion, 1996) maps
// r = Float64() to ur = hxm + r*hx0minusHxm, inverts x = hinv(ur), rounds
// k = ⌊x+0.5⌋ and returns k when k−x <= s, or else when ur clears a second
// bound; otherwise it draws again. h is increasing, so k comes out exactly when
// ur lies in [h(k−0.5), h(k+0.5)), and the first test passes exactly when
// ur >= h(k−s). The sampler tabulates those thresholds once, finds a draw's
// interval through a guide table over r (Chen & Asau, 1974) and a short search,
// and returns k from the table when ur lies inside the interval by more than
// zipfMargin. Every other draw (one near a threshold, or in the band the second
// test decides) takes math/rand's own step, the same expressions in the same
// order; so does every draw of a sampler built for fewer draws than the tables
// would cost.
type zipfSampler struct {
	rng *rand.Rand

	// math/rand's constants, computed by its expressions.
	v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64

	spans   []zipfSpan // spans[k]: where the table returns k; nil: no tables
	guide   []int32    // guide[b]: the search's start for r in [b, b+1)/buckets
	buckets float64    // len(guide)-1
}

// zipfSpan is the ur interval [lo, hi) in which k is returned from the table.
type zipfSpan struct{ lo, hi float64 }

// zipfMargin is how far, relative to a threshold, ur must lie inside a span.
// The thresholds carry h's rounding, a few ulps. math/rand's hinv errs more:
// its Log errs by an ulp or two, and hinv multiplies that Log by 1/(1−q)
// (−14.3 at q = 1.07) before the Exp, so x+v errs by up to ~14.3 times that
// plus ~2·ln(x+v) ulps. In ur, which moves (q−1) times as fast as ln(x+v), that
// is again a few ulps. 2^-40 (4096 ulps) covers both with room to spare, and
// costs little: of 20 M draws at Vocab 20 000 it sends one to the exact step
// that a zero margin would not (the second-test band sends 0.3 %).
const zipfMargin = 0x1p-40

// newZipfSampler returns the sampler of rand.NewZipf(rng, q, v, imax), for
// q > 1 and v >= 1, as it is when expected to make about draws draws: the
// tables cost two Log/Exp pairs a word, so they are built only when the draws
// outnumber that.
func newZipfSampler(rng *rand.Rand, q, v float64, imax uint64, draws int) *zipfSampler {
	z := &zipfSampler{rng: rng, v: v, q: q}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	if imax >= uint64(draws)/2 || imax >= math.MaxInt32 {
		return z
	}
	// Every threshold is negative (h < 0 for q > 1), so scaling it by 1∓margin
	// moves it into its span.
	z.spans = make([]zipfSpan, imax+1)
	below := z.h(-0.5) // h(k−0.5)
	for k := range z.spans {
		kf := float64(k)
		above := z.h(kf + 0.5)
		lo := max(below, z.h(kf-z.s))
		z.spans[k] = zipfSpan{lo: lo - lo*zipfMargin, hi: above + above*zipfMargin}
		below = above
	}
	// One bucket a word. ur falls as r grows, so walking the bucket edges up in
	// r walks the spans down in k: each guide entry is the k the search would
	// stop at for ur at the bucket's edge, the largest a draw in it can need.
	z.guide = make([]int32, len(z.spans)+1)
	z.buckets = float64(len(z.spans))
	k := len(z.spans) - 1
	for b := range z.guide {
		edge := z.hxm + float64(b)/z.buckets*z.hx0minusHxm
		for k > 0 && edge < z.spans[k-1].hi {
			k--
		}
		z.guide[b] = int32(k)
	}
	return z
}

func (z *zipfSampler) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfSampler) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Uint64 returns the next value rand.Zipf.Uint64 would.
func (z *zipfSampler) Uint64() uint64 {
	for {
		r := z.rng.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		if z.spans != nil {
			// The search stops at the one k whose span can hold ur.
			k := z.guide[int(r*z.buckets)]
			for k > 0 && ur < z.spans[k-1].hi {
				k--
			}
			if sp := z.spans[k]; ur >= sp.lo && ur < sp.hi {
				return uint64(k)
			}
		}
		if k, ok := z.step(ur); ok {
			return k
		}
	}
}

// step is one pass of math/rand's Zipf.Uint64 loop from ur: the k it rounds
// to, and whether it accepts it.
func (z *zipfSampler) step(ur float64) (uint64, bool) {
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= z.s {
		return uint64(k), true
	}
	return uint64(k), ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q)
}
