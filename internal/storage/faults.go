package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"time"

	"ftmrmpi/internal/metrics"
)

// Storage fault injection. Real FT frameworks break on the storage path, not
// the happy path: a crash mid-append leaves a torn tail, media and transport
// corrupt bytes silently, and shared file systems throw transient errors
// under load. An Injector attached to a Tier reproduces those faults from a
// seeded RNG so every chaos run is replayable.
//
// Fault taxonomy:
//
//   - Torn write: only a random strict prefix of the data reaches the file
//     and the operation reports ErrTornWrite (a crash-truncated or
//     short-counted write the caller gets to observe). Callers roll back to
//     the pre-write length and retry, or accept the coverage loss.
//   - Bit flip: the data lands with one bit inverted and NO error — silent
//     corruption that only end-to-end integrity checks (the checkpoint
//     frame CRC) can catch.
//   - Transient read error: the read fails with ErrReadFault; a retry of
//     the same path succeeds.
//   - Latency spike: the operation succeeds but costs SpikeDelay of extra
//     virtual time (a congested PFS or a local disk stalled mid-GC). Spikes
//     are pure slowdowns — no error, no data damage — so they exercise the
//     timing side of the fault model the way checkpoint-drain stalls do.
//
// Faults are transient per path: after an operation on a path faults, the
// next operation on that same path is never faulted. Hardened callers that
// retry therefore always converge, while callers that never retry still see
// every failure mode. Latency spikes are exempt from both sides of that
// rule: they never mark a path sticky and fire even on the post-fault
// retry — a retried write can be slow and still succeed.

// ErrTornWrite reports a write or append that only partially reached the
// tier (the stored file holds a prefix of the intended data).
var ErrTornWrite = errors.New("storage: torn write")

// ErrReadFault reports a transient read failure; retrying the same path
// succeeds.
var ErrReadFault = errors.New("storage: transient read error")

// ErrTierOutage reports an operation attempted while the whole tier is
// offline. Unlike the transient faults above, outages are NOT subject to the
// per-path sticky guarantee: every operation keeps failing until the outage
// window ends. Callers either fail over to another tier or wait the window
// out with Tier.AwaitOnline.
var ErrTierOutage = errors.New("storage: tier outage")

// OutageWindow takes a whole tier offline for the half-open virtual-time
// interval [Begin, End): every charged operation — and Peek — fails with
// ErrTierOutage while the window is active.
type OutageWindow struct {
	Begin, End time.Duration
}

// covers reports whether the window is active at virtual time now.
func (w OutageWindow) covers(now time.Duration) bool {
	return w.End > w.Begin && now >= w.Begin && now < w.End
}

// FaultRule gives per-path-prefix fault probabilities. An empty Prefix
// matches every path.
type FaultRule struct {
	Prefix    string
	TornWrite float64 // P(write/append is torn and reported)
	BitFlip   float64 // P(write/append lands with one silent bit flip)
	ReadError float64 // P(read fails transiently)
	// Latency spikes: the operation succeeds but takes SpikeDelay longer.
	// A zero probability draws nothing from the RNG, so policies without
	// spikes keep their exact historical fault sequences.
	ReadSpike  float64       // P(read is delayed by SpikeDelay)
	WriteSpike float64       // P(write/append is delayed by SpikeDelay)
	SpikeDelay time.Duration // extra virtual time per spiked operation
}

// FaultPolicy seeds an Injector: the first rule whose prefix matches the
// (tier-relative) path governs an operation; unmatched paths never fault.
// Outage windows are scheduled on the injector (Injector.AddOutage).
type FaultPolicy struct {
	Seed  int64
	Rules []FaultRule
}

// FaultStats counts the faults an Injector has delivered.
type FaultStats struct {
	TornWrites  int
	BitFlips    int
	ReadErrors  int
	ReadSpikes  int
	WriteSpikes int
	OutageOps   int // operations rejected because the tier was offline
}

// Injector is a seeded, stateful storage fault source for one tier.
type Injector struct {
	rng     *rand.Rand
	rules   []FaultRule
	sticky  map[string]bool // path -> previous op faulted; next op is clean
	outages []OutageWindow
	Stats   FaultStats
}

// AddOutage schedules a whole-tier outage window. Outage checks never draw
// from the RNG, so adding a window leaves the per-path fault sequence as it
// was.
func (in *Injector) AddOutage(w OutageWindow) { in.outages = append(in.outages, w) }

// OutageUntil returns the end of the outage window covering virtual time
// now, and whether one is active. Adjacent or overlapping windows are
// coalesced by re-checking from the latest end.
func (in *Injector) OutageUntil(now time.Duration) (time.Duration, bool) {
	end, active := now, false
	for changed := true; changed; {
		changed = false
		for _, w := range in.outages {
			if w.covers(end) && w.End > end {
				end, active, changed = w.End, true, true
			}
		}
	}
	return end, active
}

// BindMetrics makes the injector's Stats the source of per-tier fault
// counters in reg, under a "tier" label: each series reads its count when
// the registry takes a snapshot. Bind an injector once; several injectors
// bound to one tier sum. Safe to skip (or call with a nil registry) when
// metrics are disabled.
func (in *Injector) BindMetrics(reg *metrics.Registry, tier string) {
	if reg == nil {
		return
	}
	count := func(name, help string, n *int) {
		reg.CounterFunc(name, help, "tier", tier, func() float64 { return float64(*n) })
	}
	count("ftmr_storage_torn_writes", "Injected torn writes by storage tier.", &in.Stats.TornWrites)
	count("ftmr_storage_bit_flips", "Injected silent bit flips by storage tier.", &in.Stats.BitFlips)
	count("ftmr_storage_read_errors", "Injected transient read errors by storage tier.", &in.Stats.ReadErrors)
	count("ftmr_storage_read_spikes", "Injected read latency spikes by storage tier.", &in.Stats.ReadSpikes)
	count("ftmr_storage_write_spikes", "Injected write latency spikes by storage tier.", &in.Stats.WriteSpikes)
	count("ftmr_storage_outage_ops",
		"Operations rejected by a whole-tier outage window, by storage tier.", &in.Stats.OutageOps)
}

// NewInjector builds an injector from a policy. Two injectors with the same
// policy deliver the same fault sequence for the same operation sequence.
func NewInjector(pol FaultPolicy) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(pol.Seed)),
		rules:  append([]FaultRule(nil), pol.Rules...),
		sticky: make(map[string]bool),
	}
}

// ChaosPolicy is the default policy used by chaos runs: torn writes, silent
// bit flips, and transient read errors on checkpoint data; torn writes on
// reduce outputs (the commit path rolls them back); transient read errors on
// input chunks. Outputs are never bit-flipped — they carry no checksum, so
// silent output corruption is outside the recoverable fault model (see
// DESIGN.md "Fault model").
func ChaosPolicy(seed int64) FaultPolicy {
	return FaultPolicy{
		Seed: seed,
		Rules: []FaultRule{
			{Prefix: "ckpt/", TornWrite: 0.06, BitFlip: 0.04, ReadError: 0.06,
				ReadSpike: 0.03, WriteSpike: 0.03, SpikeDelay: 2 * time.Millisecond},
			{Prefix: "out/", TornWrite: 0.04,
				WriteSpike: 0.02, SpikeDelay: 2 * time.Millisecond},
			{Prefix: "in/", ReadError: 0.03,
				ReadSpike: 0.02, SpikeDelay: 2 * time.Millisecond},
		},
	}
}

// rule returns the first matching rule for a path, or nil.
func (in *Injector) rule(path string) *FaultRule {
	for i := range in.rules {
		if strings.HasPrefix(path, in.rules[i].Prefix) {
			return &in.rules[i]
		}
	}
	return nil
}

// clean reports (and consumes) the per-path transient guarantee: the
// operation right after a fault on the same path must succeed.
func (in *Injector) clean(path string) bool {
	if in.sticky[path] {
		delete(in.sticky, path)
		return true
	}
	return false
}

// spike rolls one latency-spike decision. It only touches the RNG when the
// probability is positive, so spike-free policies keep their historical
// fault sequences, and it never reads or sets the sticky marker.
func (in *Injector) spike(r *FaultRule, prob float64, count *int) time.Duration {
	if prob <= 0 || r.SpikeDelay <= 0 {
		return 0
	}
	if in.rng.Float64() < prob {
		*count++
		return r.SpikeDelay
	}
	return 0
}

// writeFault is the injector's verdict on one write or append: the extra
// latency a spike adds, and at most one of a torn write (err is ErrTornWrite
// and only the first keep bytes land) and a silent flip of bit bit in byte
// at. The zero value lands every byte as given.
type writeFault struct {
	delay time.Duration
	err   error
	keep  int
	flip  bool
	at    int
	bit   uint
}

// onWrite vets one write/append of n bytes to path. The verdict depends on the
// length alone, so the same rng draws decide a []byte (onBytes) and a Run
// (onRun) of the same bytes alike.
func (in *Injector) onWrite(path string, n int) writeFault {
	r := in.rule(path)
	if r == nil {
		return writeFault{}
	}
	w := writeFault{delay: in.spike(r, r.WriteSpike, &in.Stats.WriteSpikes)}
	if in.clean(path) || n == 0 {
		return w
	}
	roll := in.rng.Float64()
	switch {
	case roll < r.TornWrite:
		in.sticky[path] = true
		in.Stats.TornWrites++
		w.err, w.keep = ErrTornWrite, in.rng.Intn(n)
	case roll < r.TornWrite+r.BitFlip:
		in.sticky[path] = true
		in.Stats.BitFlips++
		w.flip, w.at = true, in.rng.Intn(n)
		w.bit = uint(in.rng.Intn(8))
	}
	return w
}

// onBytes returns the bytes of data that land: a torn prefix, a flipped copy,
// or data itself.
func (w writeFault) onBytes(data []byte) []byte {
	switch {
	case w.err != nil:
		return data[:w.keep]
	case w.flip:
		flipped := bytes.Clone(data)
		flipped[w.at] ^= 1 << w.bit
		return flipped
	}
	return data
}

// onRun is onBytes of a run: a torn prefix of it, or it with the one extent
// the flip lands in copied.
func (w writeFault) onRun(r Run) Run {
	switch {
	case w.err != nil:
		return r.prefix(w.keep)
	case w.flip:
		return r.flip(w.at, w.bit)
	}
	return r
}

// onRead vets one read of path, returning the extra latency a spike adds
// and ErrReadFault when the read transiently fails.
func (in *Injector) onRead(path string) (time.Duration, error) {
	r := in.rule(path)
	if r == nil {
		return 0, nil
	}
	delay := in.spike(r, r.ReadSpike, &in.Stats.ReadSpikes)
	if in.clean(path) {
		return delay, nil
	}
	if in.rng.Float64() < r.ReadError {
		in.sticky[path] = true
		in.Stats.ReadErrors++
		return delay, ErrReadFault
	}
	return delay, nil
}
