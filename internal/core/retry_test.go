package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ftmrmpi/internal/storage"
	"ftmrmpi/internal/vtime"
)

// flakyTier makes a tier fault several operations in a row. The injector
// itself never faults one path twice running (that guarantee is what lets
// hardened callers converge), so a budget above two is only reachable by
// re-arming a fresh always-fault injector between attempts: a sidecar
// process polls four times per operation latency, and every failed attempt
// costs its caller at least one latency.
type flakyTier struct {
	tier     *storage.Tier
	pol      storage.FaultPolicy    // always-fault rules
	outage   []storage.OutageWindow // re-added to every fresh injector
	left     int                    // transient faults still to deliver before the tier heals
	faults   int                    // transient faults delivered
	rejected int                    // operations rejected by the outage window
	done     bool                   // set by the test body; stops the sidecar
}

func (f *flakyTier) arm() {
	pol := f.pol
	if f.left == 0 {
		pol.Rules = nil // healed: only the outage window remains
	}
	f.tier.Faults = storage.NewInjector(pol)
	for _, w := range f.outage {
		f.tier.Faults.AddOutage(w)
	}
}

// absorb folds the live injector's counts into the totals and reports
// whether it delivered a transient fault.
func (f *flakyTier) absorb() bool {
	st := f.tier.Faults.Stats
	f.tier.Faults.Stats = storage.FaultStats{}
	n := st.TornWrites + st.ReadErrors
	f.faults += n
	f.rejected += st.OutageOps
	return n > 0
}

func (f *flakyTier) run(sim *vtime.Sim) {
	f.arm()
	sim.Spawn("rearm", func(p *vtime.Proc) {
		for !f.done {
			if f.absorb() {
				f.left--
				f.arm()
			}
			p.Sleep(f.tier.OpLat / 4)
		}
	})
}

// TestRetryPolicy pins the storage retry policy that every charged call in
// the package goes through: the per-call budgets, that a waited-out outage
// never consumes budget while a not-waited one does, and that an append
// which gives up leaves the file at its pre-append length.
func TestRetryPolicy(t *testing.T) {
	const path = "out/job/part-00000"
	pre := []byte("committed-prefix\n")
	data := bytes.Repeat([]byte("record\n"), 64)
	outage := storage.OutageWindow{End: 50 * time.Millisecond}

	type call func(p *vtime.Proc, tier *storage.Tier) error
	read := func(p *vtime.Proc, tier *storage.Tier) error {
		var wait time.Duration
		got, err := readRetry(p, tier, path, nil, &wait)
		if err == nil && !bytes.Equal(got, pre) {
			t.Errorf("read returned %q", got)
		}
		return err
	}
	appendWith := func(budget int, waitOutage bool) call {
		return func(p *vtime.Proc, tier *storage.Tier) error {
			_, err := appendRollback(p, tier, path, budget, waitOutage, func() (time.Duration, error) {
				return tier.AppendFile(p, path, data, 1)
			})
			return err
		}
	}
	output := appendWith(outputAppendBudget, true)
	ckpt := appendWith(ckptAppendBudget, false)
	writeWith := func(budget int) call {
		return func(p *vtime.Proc, tier *storage.Tier) error {
			_, err := writeRetry(p, tier, path, pre, budget)
			return err
		}
	}
	marker := writeWith(markerWriteBudget)

	cases := []struct {
		name     string
		call     call
		faults   int  // consecutive transient faults before the tier heals
		outage   bool // a whole-tier outage covers the start of the call
		wantErr  error
		attempts int  // operations issued, outage rejections included
		appended bool // the file ends as pre+data
		torn     bool // the file is left as the last torn write landed
	}{
		{name: "read/clean", call: read, attempts: 1},
		{name: "read/fault-x1", call: read, faults: 1, attempts: 2},
		{name: "read/fault-x2", call: read, faults: 2, attempts: 3},
		{name: "read/fault-x3", call: read, faults: 3, wantErr: storage.ErrReadFault, attempts: 3},
		{name: "read/outage+fault-x2", call: read, faults: 2, outage: true, attempts: 4},

		{name: "output/torn-x1", call: output, faults: 1, attempts: 2, appended: true},
		{name: "output/torn-x7", call: output, faults: 7, attempts: 8, appended: true},
		{name: "output/torn-x8", call: output, faults: 8, wantErr: storage.ErrTornWrite, attempts: 8},
		{name: "output/outage+torn-x7", call: output, faults: 7, outage: true, attempts: 9, appended: true},

		{name: "ckpt/torn-x1", call: ckpt, faults: 1, attempts: 2, appended: true},
		{name: "ckpt/torn-x3", call: ckpt, faults: 3, attempts: 4, appended: true},
		{name: "ckpt/torn-x4", call: ckpt, faults: 4, wantErr: storage.ErrTornWrite, attempts: 4},
		// Checkpoint appends do not wait: an outage burns the whole budget
		// and the frame is dropped.
		{name: "ckpt/outage", call: ckpt, outage: true, wantErr: storage.ErrTierOutage, attempts: 4},

		{name: "marker/torn-x3", call: marker, faults: 3, attempts: 4},
		{name: "marker/torn-x4", call: marker, faults: 4, wantErr: storage.ErrTornWrite, attempts: 4, torn: true},
		{name: "marker/outage+torn-x3", call: marker, faults: 3, outage: true, attempts: 5},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			clus := ckptCluster()
			tier := clus.PFS
			clus.FS.Write("pfs:"+path, pre)
			f := &flakyTier{tier: tier, left: c.faults, pol: storage.FaultPolicy{
				Seed:  1,
				Rules: []storage.FaultRule{{Prefix: "out/", TornWrite: 1, ReadError: 1}},
			}}
			if c.outage {
				f.outage = []storage.OutageWindow{outage}
			}
			f.run(clus.Sim)
			var err error
			var finished time.Duration
			clus.Sim.Spawn("caller", func(p *vtime.Proc) {
				err = c.call(p, tier)
				finished = p.Now()
				f.done = true
			})
			clus.Sim.Run()
			f.absorb()

			if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			attempts := f.faults + f.rejected
			if err == nil {
				attempts++
			}
			if attempts != c.attempts {
				t.Errorf("%d operations issued (%d faulted, %d rejected by the outage), want %d",
					attempts, f.faults, f.rejected, c.attempts)
			}
			if waited := finished >= outage.End; c.outage && err == nil && !waited {
				t.Errorf("call finished at %v, inside the outage window", finished)
			}
			want := pre
			if c.appended {
				want = append(append([]byte(nil), pre...), data...)
			}
			if got, _ := clus.FS.Read("pfs:" + path); !c.torn && !bytes.Equal(got, want) {
				t.Errorf("file holds %d bytes, want %d (pre-append length %d)", len(got), len(want), len(pre))
			}
		})
	}
}
